import random

import pytest
from hypothesis import example, given, settings, strategies as st

from extweyl.ext_root import ExtRootError, fully_extended, span_extended
from extweyl.intlinalg import (
    hermite_rows,
    is_zero_mat,
    lattice_contains,
    mat_vec,
    outer,
    sparse_rows,
    transpose,
)
from extweyl.lattice_algebra import lattice_embedding_matrix
from extweyl.refl_groups import ReflectionLabel, conj_reflect, label_k_part
from extweyl.root_core import FiniteRootSystem, build
from extweyl.verify import word_test_systems
from extweyl.weyl import WElement, evaluate_word_in_w, random_label, w_generator
from support import (
    ClosureCapError,
    SymSystem,
    act_on_root,
    check_reflection_group,
    check_sym_axioms,
    pairing,
    reflect,
    reflection_ids,
    reflection_sym_system,
    terminal_group,
)


def a_part(w):
    """The image (k, v) of w in the terminal group: w with z dropped."""
    return w.k, w.v


def a_is_identity(w):
    return is_zero_mat(w.k) and w.v.is_identity()


def trivial_sym_system(size):
    """The system with s.t = t for all s, t."""
    return SymSystem(size, [list(range(size))] * size)


def test_sym_axioms_trivial():
    assert check_sym_axioms(trivial_sym_system(3)).ok


def test_sym_axioms_a2_conjugation_table():
    sym, _ = reflection_sym_system(build("A", 2))
    assert sym.size == 3
    assert check_sym_axioms(sym).ok


def test_sym_axioms_corrupted():
    sym, _ = reflection_sym_system(build("A", 2))
    table = [list(r) for r in sym.table]
    table[0][1] = (table[0][1] + 1) % sym.size
    rep = check_sym_axioms(SymSystem(sym.size, table))
    assert not rep.ok
    assert any(c.witness for c in rep.failed())


def test_terminal_group_singleton():
    order, orbits = terminal_group(trivial_sym_system(1))
    assert order == 1
    assert orbits == [[0]]


def test_terminal_group_a2_is_s3():
    sym, _ = reflection_sym_system(build("A", 2))
    order, orbits = terminal_group(sym)
    assert order == 6
    assert orbits == [[0, 1, 2]]


def test_terminal_group_trivial_multiplication():
    # every left multiplication is the identity permutation
    order, orbits = terminal_group(trivial_sym_system(4))
    assert order == 1
    assert orbits == [[0], [1], [2], [3]]


def test_terminal_group_cap():
    with pytest.raises(ClosureCapError):
        terminal_group(trivial_sym_system(99))


def perm_tools(size):
    ident = tuple(range(size))

    def mul(p, q):
        return tuple(p[q[i]] for i in range(size))

    return ident, mul


def test_check_reflection_group_weyl_on_a2():
    rs = build("A", 2)
    sym, reps = reflection_sym_system(rs)
    images = [rs.weyl_generator(r) for r in reps]
    ident = rs.weyl_generator(reps[0]) * rs.weyl_generator(reps[0])
    ids = reflection_ids(rs)

    def mul(x, y):
        return x * y

    def act(x, t):
        target = mat_vec(x.matrix, rs.roots[reps[t]])
        i = rs.index_of(target)
        for k, r in enumerate(reps):
            if ids[i] == ids[r]:
                return k
        raise AssertionError

    rep = check_reflection_group(sym, images, mul, ident, act)
    assert rep.ok  # proper terminal realization


def test_check_reflection_group_z2_squared_on_trivial_system():
    # the group Z2 x Z2 with the two generators acting trivially is a
    # reflection group for the 2-element trivial system
    sym = trivial_sym_system(2)
    images = [(1, 0), (0, 1)]

    def mul(x, y):
        return ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2)

    def act(x, t):
        return t

    rep = check_reflection_group(sym, images, mul, (0, 0), act)
    assert rep.ok


def test_check_reflection_group_identity_images_fail():
    sym, reps = reflection_sym_system(build("A", 2))
    images = [(0,)] * sym.size

    def mul(x, y):
        return (0,)

    def act(x, t):
        return t

    rep = check_reflection_group(sym, images, mul, (0,), act)
    failed = [c.name for c in rep.failed()]
    assert any(n.startswith("G2") for n in failed)
    assert not any(n.startswith("G4") for n in failed)
    assert not rep.checks[-2].passed  # does not separate reflections


def test_label_canonicalization():
    ers = fully_extended("A", 1, n=1)
    t1 = ReflectionLabel.make(ers, (1,), 0)
    t2 = ReflectionLabel.make(ers, (-1,), 1)
    assert t1 == t2
    # BC: a divisible-root label with even shift reduces to the short root
    bc = fully_extended("BC", 1, n=1)
    div = bc.delta.divisible_root_indices()[0]
    red = bc.delta.reduced_root_indices()
    t = ReflectionLabel.make(bc, (2,), div)
    assert t.root in red
    t_odd = ReflectionLabel.make(bc, (1,), div)
    assert t_odd.root not in red


def _make_by_vectors(ers, g, root):
    """ReflectionLabel.make from the root vectors: halve a divisible root
    when g is even, then take the lexicographically larger of +-root."""
    g = tuple(int(x) for x in g)
    rs = ers.delta
    vec = rs.roots[root]
    if all(x % 2 == 0 for x in vec):
        half = tuple(x // 2 for x in vec)
        if half in rs._index and all(x % 2 == 0 for x in g):
            vec = half
            g = tuple(x // 2 for x in g)
            root = rs.index_of(vec)
    neg = tuple(-x for x in vec)
    if vec < neg:
        vec, g = neg, tuple(-x for x in g)
        root = rs.index_of(vec)
    return ReflectionLabel(g, root)


# every family, BC1-BC3 for the halving
LABEL_TYPES = [
    ("A", 1), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4),
    ("E", 6), ("F", 4), ("G", 2), ("BC", 1), ("BC", 2), ("BC", 3),
]


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(LABEL_TYPES),
    n=st.integers(1, 3),
    roots=st.tuples(st.integers(min_value=0), st.integers(min_value=0)),
    shifts=st.tuples(*[st.lists(st.integers(-5, 5), min_size=3, max_size=3)] * 2),
)
@example(kind=("BC", 1), n=1, roots=(0, 0), shifts=([2, 0, 0], [1, 0, 0]))
def test_make_matches_the_vector_oracle(kind, n, roots, shifts):
    # each shift is also tried doubled, so the halving branch is reached
    ers = fully_extended(*kind, n=n)
    rs = ers.delta
    labels = []
    for draw, shift in zip(roots, shifts):
        root = draw % len(rs.roots)
        for g in (shift[:n], [2 * x for x in shift[:n]]):
            t = ReflectionLabel.make(ers, g, root)
            assert t == _make_by_vectors(ers, g, root)
            labels.append(t)
    for t1 in labels:
        for t2 in labels:
            # t1.t2 = r_(h - <alpha^vee, beta> g, r_alpha(beta)), from vectors
            beta = rs.roots[t2.root]
            m = pairing(rs, t1.root, beta)
            moved = rs.index_of(reflect(rs, t1.root, beta))
            h = [x - m * y for x, y in zip(t2.g, t1.g)]
            assert conj_reflect(ers, t1, t2) == _make_by_vectors(ers, h, moved)


def test_make_reads_no_root_vectors(monkeypatch):
    # with the vector lookups refused, every root still gets its label,
    # the table included when it is built under the refusal
    def refuse(*args):
        raise AssertionError("root vector looked up")

    systems = [ers for _, ers in word_test_systems()] + [fully_extended("BC", 2, n=2)]
    cases = []
    for ers in systems:
        for root in range(len(ers.delta.roots)):
            for g in [(0,) * ers.n, (1,) * ers.n, (-2,) * ers.n, tuple(range(ers.n))]:
                cases.append((ers, g, root, _make_by_vectors(ers, g, root)))
        monkeypatch.delitem(ers.delta.__dict__, "label_table", raising=False)
    monkeypatch.setattr(FiniteRootSystem, "index_of", refuse)
    for ers, g, root, want in cases:
        assert ReflectionLabel.make(ers, g, root) == want


def test_make_rejects_a_root_outside_the_system():
    ers = span_extended("B", 2, n=2, g1=(0,))
    for root in (-1, -8, 8):
        with pytest.raises(ExtRootError, match=rf"root index in 0\.\.7, got {root}$"):
            ReflectionLabel.make(ers, (1, 0), root)


def test_label_k_part():
    ers = fully_extended("A", 1, n=2)
    t = ReflectionLabel.make(ers, (0, 0), 0)
    assert is_zero_mat(label_k_part(ers, t))
    t2 = ReflectionLabel.make(ers, (1, 0), 1)
    assert label_k_part(ers, t2) == outer(t2.g, ers.delta.coroots[t2.root])


def k_in_twist_decomposition(ers, k):
    """Whether a K-matrix lies in (G1 (x) L) + (G2 (x) Lv).

    The root lattice sits inside the coroot lattice through the scaled
    embedding, so rows indexed by G1 must lie in that sublattice.
    """
    phi = lattice_embedding_matrix(ers.delta)
    image = hermite_rows(ers.delta.rank, sparse_rows(transpose(phi)))
    return all(lattice_contains(image, k[i]) for i in ers.group.g1)


def test_k_part_twist_decomposition():
    rng = random.Random(3)
    for ers in [
        span_extended("B", 2, n=2, g1=(0,)),
        span_extended("C", 3, n=2, g1=(0,)),
        span_extended("G", 2, n=2, g1=(0,)),
    ]:
        for _ in range(50):
            t = random_label(ers, rng)
            assert k_in_twist_decomposition(ers, label_k_part(ers, t))


def test_a_element_group_axioms():
    ers = span_extended("B", 2, n=2, g1=(0,))
    rng = random.Random(0)
    ident = WElement.identity(ers)
    for _ in range(50):
        t = random_label(ers, rng)
        a = w_generator(ers, t)
        assert a_is_identity(a * a)
        assert a_is_identity(a * a.inv())
        b = w_generator(ers, random_label(ers, rng))
        c = w_generator(ers, random_label(ers, rng))
        assert a_part((a * b) * c) == a_part(a * (b * c))
        assert a_part(ident * a) == a_part(a)


def test_a_conjugation_matches_labels():
    ers = span_extended("B", 2, n=2, g1=(0,))
    rng = random.Random(1)
    for _ in range(200):
        t1, t2 = random_label(ers, rng), random_label(ers, rng)
        a1, a2 = w_generator(ers, t1), w_generator(ers, t2)
        assert a_part(a1 * a2 * a1.inv()) == a_part(w_generator(ers, conj_reflect(ers, t1, t2)))


def test_conj_reflect_examples():
    ers = fully_extended("A", 1, n=1)
    root_pos = ers.delta.index_of((1,))
    t0 = ReflectionLabel.make(ers, (0,), root_pos)
    t1 = ReflectionLabel.make(ers, (1,), root_pos)
    assert conj_reflect(ers, t0, t0) == t0
    # r_(0,a).r_(1,a) = r_(1,-a), canonically (-1, a)
    got = conj_reflect(ers, t0, t1)
    assert got == ReflectionLabel.make(ers, (-1,), root_pos)
    # perpendicular pair: conjugation fixes the label
    d4 = fully_extended("D", 4, n=1)
    rs = d4.delta
    pair = next(
        (i, j)
        for i in range(len(rs.roots))
        for j in range(len(rs.roots))
        if rs.perpendicular(i, j)
    )
    s = ReflectionLabel.make(d4, (2,), pair[0])
    t = ReflectionLabel.make(d4, (5,), pair[1])
    assert conj_reflect(d4, s, t) == t


def test_act_on_root():
    ers = span_extended("B", 2, n=2, g1=(0,))
    rng = random.Random(2)
    ident = WElement.identity(ers)
    for _ in range(100):
        beta = rng.randrange(len(ers.delta.roots))
        h = (rng.randint(-3, 3), rng.randint(-3, 3))
        assert act_on_root(ers, ident, h, beta) == (h, beta)
        t = random_label(ers, rng)
        a = w_generator(ers, t)
        h2, b2 = act_on_root(ers, a, h, beta)
        m = pairing(ers.delta, t.root, ers.delta.roots[beta])
        assert h2 == tuple(x - m * g for x, g in zip(h, t.g))
        assert b2 == ers.delta.reflection_table[t.root][beta]


def test_center_trivial():
    ers = span_extended("B", 2, n=2, g1=(0,))
    rng = random.Random(4)
    gens = [w_generator(ers, random_label(ers, rng)) for _ in range(12)]
    count = 0
    while count < 500:
        word = [random_label(ers, rng) for _ in range(rng.randint(1, 6))]
        x = evaluate_word_in_w(ers, word)
        if a_is_identity(x):
            continue
        count += 1
        assert any(a_part(x * g) != a_part(g * x) for g in gens)


def test_k_fix_trivial():
    # nonzero K-elements are moved by some simple generator
    rng = random.Random(5)
    ers = span_extended("B", 2, n=2, g1=(0,))
    from extweyl.intlinalg import mat_mul

    moved = 0
    for _ in range(100):
        k = None
        for _ in range(rng.randint(1, 3)):
            part = label_k_part(ers, random_label(ers, rng))
            k = part if k is None else tuple(
                tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(k, part)
            )
        if is_zero_mat(k):
            continue
        moved += 1
        assert any(
            mat_mul(k, ers.delta.weyl_generator(b).coroot_images) != k
            for b in ers.delta.basis
        )
    assert moved > 50


def test_separates_reflections():
    ers = span_extended("B", 2, n=2, g1=(0,))
    rng = random.Random(6)
    for _ in range(500):
        t1, t2 = random_label(ers, rng), random_label(ers, rng)
        if t1 == t2:
            continue
        assert a_part(w_generator(ers, t1)) != a_part(w_generator(ers, t2))
