import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from extweyl import ext_root, weyl
from extweyl.ext_root import (
    ExtRootError,
    ExtRootSystem,
    check_twist,
    fully_extended,
    span_extended,
    trim,
    validate,
)
from extweyl.intlinalg import (
    FPAbelianGroup,
    QuotientTooLarge,
    coset_residues,
    determinant,
    freeze,
    hermite_rows,
    identity,
    is_zero_mat,
    lattice_contains,
    mat_mul,
    transpose,
    zeros,
)
from extweyl.refl_groups import ReflectionLabel, conj_reflect, label_k_part
from extweyl.root_core import (
    LONG,
    SHORT,
    WeylElement,
    build,
    coxeter_evaluate,
    k_delta,
)
from extweyl.verify import orbit_configurations, suite_orbits, word_test_systems
from extweyl.weyl import (
    AbKGroup,
    OrbitClass,
    WElement,
    ab_a_properness,
    build_uab_kernel_word,
    closure_letters,
    closure_steps,
    cocycle,
    conjugated_relator_product,
    cross_check_remark,
    decide_word,
    default_brute_modulus,
    evaluate_word_in_w,
    expected_ab_k_descriptor,
    orbit_bruteforce,
    orbit_of,
    orbit_classes,
    random_label,
    relator_word,
    remark_conditions,
    slice_residues_by_class,
    uab_of_word,
    w_generator,
)

from test_ext_root import _refined_to_k_squared, _swapped_b2, _untame_b2
from test_root_core import reflection_pair


def b2():
    return span_extended("B", 2, n=2, g1=(0,))


def test_cocycle_alternating_and_bilinear():
    ers = b2()
    rng = random.Random(0)
    for _ in range(100):
        k1 = label_k_part(ers, random_label(ers, rng))
        k2 = label_k_part(ers, random_label(ers, rng))
        assert is_zero_mat(cocycle(ers, k1, k1))
        s = tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(k1, k2))
        lhs = cocycle(ers, s, k2)
        rhs = cocycle(ers, k1, k2)
        assert lhs == rhs  # c(k1+k2, k2) = c(k1,k2) since c(k2,k2)=0


def test_cocycle_rank_one_group_vanishes():
    ers = fully_extended("A", 1, n=1)
    rng = random.Random(1)
    for _ in range(50):
        k1 = label_k_part(ers, random_label(ers, rng))
        k2 = label_k_part(ers, random_label(ers, rng))
        assert is_zero_mat(cocycle(ers, k1, k2))


def test_cocycle_reflection_condition():
    ers = b2()
    rng = random.Random(2)
    for _ in range(200):
        s = random_label(ers, rng)
        t = random_label(ers, rng)
        kt = label_k_part(ers, t)
        moved = mat_mul(kt, ers.delta.weyl_generator(s.root).coroot_images)
        assert is_zero_mat(cocycle(ers, moved, kt))


def test_cocycle_admissibility_d4():
    d4 = fully_extended("D", 4, n=2)
    rs = d4.delta
    rng = random.Random(3)
    pairs = [
        (i, j)
        for i in rs.basis
        for j in rs.basis
        if rs.perpendicular(i, j)
    ]
    assert pairs
    for i, j in pairs:
        for _ in range(25):
            g = (rng.randint(-3, 3), rng.randint(-3, 3))
            h = (rng.randint(-3, 3), rng.randint(-3, 3))
            s = ReflectionLabel.make(d4, g, i)
            t = ReflectionLabel.make(d4, h, j)
            assert is_zero_mat(
                cocycle(d4, label_k_part(d4, s), label_k_part(d4, t))
            )


def test_w_generator_squares_and_projection():
    ers = b2()
    rng = random.Random(4)
    for _ in range(100):
        t = random_label(ers, rng)
        w = w_generator(ers, t)
        assert (w * w).is_identity()
        assert (w.k, w.v) == (label_k_part(ers, t), ers.delta.weyl_generator(t.root))


def test_w_projection_homomorphism():
    ers = b2()
    rng = random.Random(5)
    for _ in range(100):
        t1, t2 = random_label(ers, rng), random_label(ers, rng)
        w = w_generator(ers, t1) * w_generator(ers, t2)
        # the product in the terminal group K x| V, written out
        v1 = ers.delta.weyl_generator(t1.root)
        moved = mat_mul(label_k_part(ers, t2), v1.coroot_images)
        k = tuple(
            tuple(a + b for a, b in zip(r1, r2))
            for r1, r2 in zip(label_k_part(ers, t1), moved)
        )
        assert (w.k, w.v) == (k, v1 * ers.delta.weyl_generator(t2.root))


def test_w_conjugation():
    ers = b2()
    rng = random.Random(6)
    for _ in range(200):
        t1, t2 = random_label(ers, rng), random_label(ers, rng)
        w1 = w_generator(ers, t1)
        assert w1 * w_generator(ers, t2) * w1.inv() == w_generator(
            ers, conj_reflect(ers, t1, t2)
        )


def test_w_commutator_identity():
    ers = b2()
    rng = random.Random(7)
    one = WeylElement.identity(ers.delta)
    z0 = zeros(ers.n, ers.n)
    for _ in range(200):
        k1 = label_k_part(ers, random_label(ers, rng))
        k2 = label_k_part(ers, random_label(ers, rng))
        x = WElement(ers, z0, k1, one)
        y = WElement(ers, z0, k2, one)
        comm = x * y * x.inv() * y.inv()
        expect = tuple(tuple(2 * v for v in row) for row in cocycle(ers, k1, k2))
        assert comm.z == expect and is_zero_mat(comm.k) and comm.v.is_identity()


def test_central_kernel_commutes_and_torsion_free():
    ers = b2()
    rng = random.Random(8)
    one = WeylElement.identity(ers.delta)
    z = ((0, 3), (-3, 0))
    central = WElement(ers, z, zeros(2, 2), one)
    for _ in range(50):
        w = w_generator(ers, random_label(ers, rng))
        assert central * w == w * central
    power = WElement.identity(ers)
    for m in range(1, 17):
        power = power * central
        assert not power.is_identity()
        assert power.z == tuple(tuple(m * x for x in row) for row in z)


def test_evaluate_word_basics():
    ers = b2()
    rng = random.Random(9)
    assert evaluate_word_in_w(ers, []).is_identity()
    for _ in range(50):
        t = random_label(ers, rng)
        assert evaluate_word_in_w(ers, [t, t]).is_identity()
    for _ in range(200):
        t1, t2 = random_label(ers, rng), random_label(ers, rng)
        assert evaluate_word_in_w(ers, relator_word(ers, t1, t2)).is_identity()


def test_det_functor_parity():
    ers = b2()
    rng = random.Random(10)
    for _ in range(100):
        length = rng.randint(0, 6)
        word = [random_label(ers, rng) for _ in range(length)]
        w = evaluate_word_in_w(ers, word)
        assert determinant(w.v.matrix) == (-1) ** length


def test_orbit_rows():
    a1 = fully_extended("A", 1, n=1)
    assert orbit_of(a1, (0,), 0) == orbit_of(a1, (2,), 0)
    assert orbit_of(a1, (0,), 0) != orbit_of(a1, (1,), 0)
    a2 = fully_extended("A", 2, n=1)
    assert len({orbit_of(a2, (g,), i) for g in range(-2, 3) for i in range(6)}) == 1
    ers = b2()
    sh = next(i for i, c in enumerate(ers.delta.lengths) if c == SHORT)
    lg = next(i for i, c in enumerate(ers.delta.lengths) if c == "long")
    assert orbit_of(ers, (0, 1), sh) == orbit_of(ers, (0, 0), sh)
    assert orbit_of(ers, (0, 1), lg) != orbit_of(ers, (0, 0), lg)
    c3 = span_extended("C", 3, n=2, g1=(0,))
    shorts = [i for i, c in enumerate(c3.delta.lengths) if c == SHORT]
    assert len({orbit_of(c3, g, shorts[0]) for g in [(0, 0), (1, 0), (0, 1), (1, 1)]}) == 1
    # not tame: the short roots fall into the four cosets of 2Z^2
    untame = _untame_b2()
    assert not untame.twist.ok
    assert orbit_of(untame, (0, 1), sh) != orbit_of(untame, (0, 0), sh)


_PROPERTY_TYPES = [("A", 1), ("A", 2), ("B", 2), ("B", 3), ("C", 3), ("G", 2), ("D", 4)]


def _presented(draw, h, cosets):
    """The slice (h, cosets) written with another basis of H and coset
    representatives shifted by elements of H."""
    rows = [list(r) for r in h]
    for _ in range(draw(st.integers(0, 3)) if len(rows) > 1 else 0):
        a, b = draw(st.permutations(range(len(rows))))[:2]
        f = draw(st.sampled_from((-1, 1)))
        rows[a] = [x + f * y for x, y in zip(rows[a], rows[b])]
    shifted = []
    for c in cosets:
        for r in rows:
            f = draw(st.integers(-1, 1))
            c = [x + f * y for x, y in zip(c, r)]
        shifted.append(c)
    return {"H": rows, "cosets": shifted}


def _saturated(rs, kk, res):
    """Grow the slice residues mod kk until S_beta - <alpha^vee, beta> S_alpha
    lies in S_beta for every simple alpha and root beta (R3').  With 0 in
    every slice that also gives the chain k S_sh <= S_lg <= S_sh, and each
    slice stays a union of cosets of its own H."""
    triples = {
        (rs.lengths[a], rs.lengths[b], m)
        for a in rs.basis
        for b, m in enumerate(rs.pairing_table[a])
        if m
    }
    grown = True
    while grown:
        grown = False
        for cls_a, cls_b, m in triples:
            new = {
                tuple((x - m * y) % kk for x, y in zip(s, d))
                for s in res[cls_b]
                for d in res[cls_a]
            } - res[cls_b]
            res[cls_b] |= new
            grown = grown or bool(new)
    return res


@st.composite
def valid_reduced_systems(draw):
    """A valid reduced system, tame or not: each slice a union of cosets
    of some H between k^2*G and G, one of them 0, grown to satisfy R3',
    over a randomly split G and written in a random presentation."""
    family, rank = draw(st.sampled_from(_PROPERTY_TYPES))
    n = draw(st.integers(1, 2))
    rs = build(family, rank)
    kk = 4 if rs.rs_type.is_single_length() else k_delta(rs.rs_type) ** 2
    residue = st.lists(st.integers(0, kk - 1), min_size=n, max_size=n).map(tuple)
    fine = hermite_rows([[kk * (i == j) for j in range(n)] for i in range(n)])
    h, res = {}, {}
    for cls in [c for c in (SHORT, LONG) if c in rs.lengths]:
        h[cls] = hermite_rows(fine + draw(st.lists(residue, max_size=2)))
        cosets = [(0,) * n] + draw(st.lists(residue, max_size=4))
        res[cls] = coset_residues(fine, cosets, h[cls])
    _saturated(rs, kk, res)
    g1 = draw(st.lists(st.integers(0, n - 1), unique=True))
    ers = ExtRootSystem.from_json({
        "delta": {"family": family, "rank": rank},
        "g": {"rank": n, "g1": g1, "g2": [i for i in range(n) if i not in g1]},
        "s_sets": {
            key: _presented(draw, h[cls], sorted(res[cls]))
            for key, cls in (("sh", SHORT), ("lg", LONG))
            if cls in h
        },
    })
    assume(validate(ers).ok)  # R1' may still fail
    return ers


@settings(max_examples=100, deadline=2000)
@given(valid_reduced_systems())
def test_orbit_classes_are_exact_on_valid_systems(ers):
    # the closure is the oracle; m*G inside every T_cls is what makes the
    # closure in G/mG see whole orbits
    assert orbit_classes(ers)[1]
    m = default_brute_modulus(ers)
    for rows in ers.orbit_rows.values():
        for i in range(ers.n):
            assert lattice_contains(rows, tuple(m * (j == i) for j in range(ers.n)))


def test_orbit_errors():
    ers = b2()
    lg = next(i for i, c in enumerate(ers.delta.lengths) if c == "long")
    with pytest.raises(ExtRootError):
        orbit_of(ers, (1, 0), lg)  # not an extended root
    with pytest.raises(ExtRootError):
        orbit_of(fully_extended("BC", 1, n=1), (0,), 0)


def test_orbit_bruteforce_matches():
    for ers in [
        fully_extended("A", 1, n=2),
        b2(),
        span_extended("G", 2, n=1, g1=(0,)),
        trim(fully_extended("BC", 2, n=1)).system,
    ]:
        assert orbit_classes(ers)[1]


def test_orbit_bruteforce_reaches_everything_fully_extended():
    g2 = span_extended("G", 2, n=1)
    closure = orbit_bruteforce(g2, (0,), 0)
    # single length class per orbit; the fully extended G2 merges all
    # shifts within each class
    classes = {orbit_of(g2, h, b) for h, b in closure}
    assert len(classes) == 1


def _all_residue_closure(ers, g, root_idx, m):
    """The closure orbit_bruteforce used before closure_letters: one letter
    per (simple root alpha, residue of S_alpha mod m).  The oracle for the
    generating set of letters."""
    rs = ers.delta
    residues = slice_residues_by_class(ers, m)
    letters = [
        (rs.pairing_table[alpha], rs.reflection_table[alpha], d)
        for alpha in rs.basis
        for d in residues[rs.lengths[alpha]]
    ]
    return _tuple_closure(g, root_idx, m, letters)


def _tuple_closure(g, root_idx, m, letters):
    """The closure orbit_bruteforce ran before closure_steps: a search
    over (residue tuple, root) states, one new tuple per state and
    letter.  The oracle for the integer state codes."""
    start = (tuple(x % m for x in g), root_idx)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for h, beta in frontier:
            for pairs, images, d in letters:
                c = pairs[beta]
                state = (tuple((x - c * y) % m for x, y in zip(h, d)), images[beta])
                if state not in seen:
                    seen.add(state)
                    nxt.append(state)
        frontier = nxt
    return seen


def _b2_over(n):
    """B2 over Z^n with every coordinate twisted: S_sh = G, S_lg = 2G, so
    G/2G has index 2^n and there are 2^n + 1 orbit classes."""
    return span_extended("B", 2, n=n, g1=tuple(range(n)))


def _closure_grids(max_n=8):
    for name, ers in orbit_configurations():
        yield name, ers
        yield f"{name} over k^2 Z^n", _refined_to_k_squared(ers)
    for n in range(1, max_n + 1):
        yield f"B2 over Z^{n}", _b2_over(n)


def _starts(ers, m):
    rs = ers.delta
    residues = slice_residues_by_class(ers, m)
    return [(d, beta) for beta in range(len(rs.roots)) for d in residues[rs.lengths[beta]]]


def _assert_closures_match(name, ers, starts, m):
    # orbit_bruteforce on state codes equals the tuple-state search under
    # the same letters, and that equals the closure under every residue
    letters = closure_letters(ers, m)
    steps = closure_steps(ers, m)
    oracle = {}
    for d, beta in starts:
        if (d, beta) not in oracle:
            orbit = _all_residue_closure(ers, d, beta, m)
            oracle.update(dict.fromkeys(orbit, orbit))
        got = orbit_bruteforce(ers, d, beta, m, steps)
        assert got == _tuple_closure(d, beta, m, letters) == oracle[d, beta], (name, d, beta)


def test_generating_letters_close_the_same_orbits():
    for name, ers in _closure_grids():
        m = default_brute_modulus(ers)
        _assert_closures_match(name, ers, _starts(ers, m), m)


def test_generating_letters_close_the_same_orbits_b2_z10_sample():
    ers = _b2_over(10)
    starts = random.Random(10).sample(_starts(ers, 2), 40)
    _assert_closures_match("B2 over Z^10", ers, starts, 2)


def test_state_codes_close_the_same_orbits_at_the_cap():
    # G/2G of index 2^12 = MAX_QUOTIENT_INDEX
    ers = _b2_over(12)
    letters, steps = closure_letters(ers, 2), closure_steps(ers, 2)
    for d, beta in random.Random(12).sample(_starts(ers, 2), 40):
        assert orbit_bruteforce(ers, d, beta, 2, steps) == _tuple_closure(d, beta, 2, letters)


def test_closure_steps_share_one_table_per_shift():
    # each root's steps are the (table, image) of its letters, the table
    # read off the grid, with one table object per shift c*d mod m
    for name, ers in _closure_grids(max_n=4):
        m = default_brute_modulus(ers)
        letters = closure_letters(ers, m)
        grid, steps = closure_steps(ers, m)
        assert grid == sorted(grid) and len(grid) == m**ers.n, name
        index = {h: i for i, h in enumerate(grid)}
        shifts = set()
        for beta, row in enumerate(steps):
            want = set()
            for pairs, images, d in letters:
                shift = tuple(pairs[beta] * y % m for y in d)
                table = tuple(index[tuple((x - y) % m for x, y in zip(h, shift))] for h in grid)
                want.add((table, images[beta]))
                shifts.add(shift)
            assert {(tuple(table), image) for table, image in row} == want, (name, beta)
        assert len({id(table) for row in steps for table, _ in row}) == len(shifts), name


def test_closure_past_the_cap_raises_before_building(monkeypatch):
    # G/2G of index 2^13: no letter and no table is built
    ers = _b2_over(13)

    def unbuilt(ers, m):
        raise AssertionError("closure_letters called past the cap")

    monkeypatch.setattr("extweyl.weyl.closure_letters", unbuilt)
    with pytest.raises(QuotientTooLarge, match="index 8192 exceeds the cap 4096"):
        orbit_bruteforce(ers, (0,) * 13, 0, 2)


def test_generating_letters_are_few():
    # one letter per coset and per basis row of H, not one per residue:
    # the short simple root of B2 over Z^8 takes 0 and the 8 unit vectors
    # (256 residues), the long one 0 alone (S_lg = 2G is 0 mod 2)
    assert len(closure_letters(_b2_over(8), 2)) == 9 + 1


def test_orbit_of_depends_on_root_only_through_length_class():
    # orbit_classes asks orbit_of once per (length class, residue) on this
    for name, ers in _closure_grids():
        rs = ers.delta
        for cls, ds in slice_residues_by_class(ers, default_brute_modulus(ers)).items():
            roots = [b for b, c in enumerate(rs.lengths) if c == cls]
            for d in ds:
                assert len({orbit_of(ers, d, b) for b in roots}) == 1, (name, cls, d)


def _orbit_partitions_agree(ers, classify=orbit_of):
    """The all-states oracle for orbit_classes: classify every (d, beta)
    of the grid of G/mG and compare each class with the brute-force
    closure of its states.  Returns the partition and whether it agrees."""
    m = default_brute_modulus(ers)
    rs = ers.delta
    residues = slice_residues_by_class(ers, m)
    steps = closure_steps(ers, m)
    states = [
        (d, beta) for beta in range(len(rs.roots)) for d in residues[rs.lengths[beta]]
    ]
    by_class = {}
    for d, beta in states:
        by_class.setdefault(classify(ers, d, beta), set()).add((d, beta))
    remaining = set(states)
    while remaining:
        d, beta = next(iter(remaining))
        closure = orbit_bruteforce(ers, d, beta, m, steps)
        if closure != by_class[classify(ers, d, beta)]:
            return by_class, False
        remaining -= closure
    return by_class, True


def _blocks(by_class):
    return {frozenset(states) for states in by_class.values()}


def test_orbit_classes_match_the_all_states_oracle():
    for name, ers in _closure_grids(max_n=6):
        by_class, agree = _orbit_partitions_agree(ers)
        classes, got = orbit_classes(ers)
        assert agree and got, name
        assert set(classes) == {(c.length_class, c.coset) for c in by_class}, name
        for (cls, coset), rep in classes.items():
            assert rep in by_class[OrbitClass(cls, coset)], (name, cls, coset)


# orbit_of made too coarse (every coset sent to 0) and too fine (no reduction)
_WRONG_ORBIT_OF = {
    "coarse": lambda ers, g, root: OrbitClass(ers.delta.lengths[root], (0,) * ers.n),
    "fine": lambda ers, g, root: OrbitClass(ers.delta.lengths[root], tuple(g)),
}


@pytest.mark.parametrize("kind", sorted(_WRONG_ORBIT_OF))
def test_orbit_classes_catch_a_wrong_orbit_of(monkeypatch, kind):
    wrong = _WRONG_ORBIT_OF[kind]
    grids = list(_closure_grids(max_n=6))
    truth = {name: _blocks(_orbit_partitions_agree(ers)[0]) for name, ers in grids}
    monkeypatch.setattr("extweyl.weyl.orbit_of", wrong)
    changed = 0
    for name, ers in grids:
        by_class, agree = _orbit_partitions_agree(ers, wrong)
        moved = _blocks(by_class) != truth[name]
        assert agree == (not moved), name
        assert orbit_classes(ers)[1] == (not moved), name
        changed += moved
    assert changed > 0
    assert not suite_orbits().ok


def test_uab_examples():
    a1 = fully_extended("A", 1, n=1)
    root = 0
    t0 = ReflectionLabel.make(a1, (0,), root)
    t1 = ReflectionLabel.make(a1, (1,), root)
    assert uab_of_word(a1, []).is_zero()
    assert uab_of_word(a1, [t0, t0]).is_zero()
    v = uab_of_word(a1, [t0, t1])
    assert not v.is_zero()
    assert len(v.odd_classes) == 2


def test_ab_k_cases():
    cases = [
        (fully_extended("A", 2, n=2), "0"),
        (fully_extended("A", 1, n=2), "Z2 x Z2"),
        (span_extended("B", 3, n=2, g1=(0,)), "Z2"),
        (span_extended("C", 3, n=2, g1=(0,)), "Z2"),
        (span_extended("G", 2, n=2, g1=(0,)), "0"),
    ]
    for ers, want in cases:
        assert AbKGroup(ers).descriptor() == want
        assert expected_ab_k_descriptor(ers) == want


def _ab_k_by_matrices(ers, abk):
    """K_eff of AbKGroup's K basis by the matrix formula b - b.r_k^T,
    r_k the reflection_pair matrix of the k-th simple root on coroot
    coordinates."""
    rs = ers.delta
    n, l = ers.n, rs.rank
    rows = []
    for b in abk._k_basis:
        mat = freeze([b[a * l : (a + 1) * l] for a in range(n)])
        for base in rs.basis:
            _, r = reflection_pair(rs.pairing_matrix, rs.roots[base], rs.coroots[base])
            moved = mat_mul(mat, transpose(r))
            rows.append(
                abk._coords(tuple(mat[a][c] - moved[a][c] for a in range(n) for c in range(l)))
            )
    return FPAbelianGroup(len(abk._k_basis), rows)


def test_ab_k_relations_match_the_matrix_formula():
    for name, ers in word_test_systems():
        abk = AbKGroup(ers)
        assert abk.fp.relations == _ab_k_by_matrices(ers, abk).relations, name


def test_decide_word_examples():
    ers = b2()
    rng = random.Random(11)
    for _ in range(50):
        word = conjugated_relator_product(ers, rng)
        d = decide_word(ers, word)
        assert d.trivial and d.failing_layer is None

    a1 = fully_extended("A", 1, n=1)
    root_pos = a1.delta.index_of((1,))
    t0 = ReflectionLabel.make(a1, (0,), root_pos)
    t1 = ReflectionLabel.make(a1, (1,), root_pos)
    d = decide_word(a1, [t0, t1, t0, t1])
    assert not d.trivial and d.failing_layer == "K"
    d2 = decide_word(a1, [t0])
    assert not d2.trivial and d2.failing_layer == "V"
    assert decide_word(a1, [t0, t0]).trivial


def test_decide_word_rejects_nontame_and_bc():
    # the twist report is cached, so the second call must still raise
    swapped = _swapped_b2()
    t = ReflectionLabel.make(swapped, (0, 0), 0)
    for _ in range(2):
        for call in (
            lambda: decide_word(swapped, [t, t]),
            lambda: remark_conditions(swapped, [t, t]),
            lambda: build_uab_kernel_word(swapped),
        ):
            with pytest.raises(ExtRootError, match="tame"):
                call()
    bc = fully_extended("BC", 1, n=1)
    tb = ReflectionLabel.make(bc, (0,), bc.delta.reduced_root_indices()[0])
    with pytest.raises(ExtRootError):
        decide_word(bc, [tb, tb])


def test_decide_word_checks_tameness_once_per_system(monkeypatch):
    calls = []

    def counting(ers):
        calls.append(ers)
        return check_twist(ers)

    monkeypatch.setattr(ext_root, "check_twist", counting)
    ers = b2()
    rng = random.Random(13)
    for _ in range(50):
        assert decide_word(ers, conjugated_relator_product(ers, rng)).trivial
    assert calls == [ers]


def _same_root_pair(ers, rng):
    """Two labels on one root: trivial in the finite Weyl group."""
    t = random_label(ers, rng)
    while True:
        u = random_label(ers, rng)
        if u.root == t.root:
            return [t, u]


def _translation_commutator(ers, rng):
    """[t1, t2] for the translations t_i = r_(0,a) r_(h_i,a), h_i rows of
    H_a: trivial in V and K, central with even parity."""
    root = random_label(ers, rng).root
    h = ers.s_of_root(root).h_basis
    a0, a1, a2 = (ReflectionLabel.make(ers, g, root) for g in ((0,) * ers.n, h[0], h[1]))
    return [a0, a1, a0, a2, a1, a0, a2, a0]


def test_decide_word_trivial_iff_identity_and_even_parity():
    # decide_word evaluates each word once; the oracle evaluates it in W
    # and takes the orbit parity separately
    rng = random.Random(14)
    systems = word_test_systems() + [
        ("A1 n=3", fully_extended("A", 1, n=3)),
        ("B2 n=3", span_extended("B", 2, n=3, g1=(0, 1, 2))),
    ]
    layers = set()
    for name, ers in systems:
        words = [conjugated_relator_product(ers, rng) for _ in range(10)]
        words += [[random_label(ers, rng) for _ in range(rng.randint(0, 8))] for _ in range(20)]
        words += [_same_root_pair(ers, rng) for _ in range(5)]
        if ers.n > 1:
            words += [_translation_commutator(ers, rng) for _ in range(3)]
        kernel = build_uab_kernel_word(ers) if ers.n == 3 else None
        if kernel:
            words += [kernel, kernel + kernel]
        for word in words:
            want = (
                evaluate_word_in_w(ers, word).is_identity()
                and uab_of_word(ers, word).is_zero()
            )
            d = decide_word(ers, word)
            assert d.trivial == want, (name, word)
            layers.add(d.failing_layer)
    assert layers == {None, "V", "K", "Z", "Uab"}


IMAGE_SYSTEMS = word_test_systems() + [
    (f"{f}{l} full", fully_extended(f, l, n=1)) for f, l in (("G", 2), ("F", 4), ("D", 4))
]


@settings(max_examples=300, deadline=None)
@given(
    system=st.integers(0, len(IMAGE_SYSTEMS) - 1),
    draws=st.lists(st.integers(min_value=0), max_size=16),
)
@example(system=0, draws=[])
@example(system=len(IMAGE_SYSTEMS) - 1, draws=[])
def test_word_images_match_the_matrix_evaluation(system, draws):
    # the matrix evaluation stays the oracle of the image walk
    _, ers = IMAGE_SYSTEMS[system]
    rs = ers.delta
    roots = [x % len(rs.roots) for x in draws]
    word = []
    for x, r in zip(draws, roots):
        cosets = ers.s_of_root(r).cosets
        word.append(ReflectionLabel.make(ers, cosets[x // len(rs.roots) % len(cosets)], r))
    images = rs.word_images(roots)
    v = evaluate_word_in_w(ers, word).v
    assert rs.image_matrix(images) == v.matrix == coxeter_evaluate(rs, roots).matrix
    assert (images == rs.basis) == v.is_identity()


def _matrix_evaluate(ers, word):
    """(z, k, matrix, comatrix) of a word, multiplied out letter by letter
    with the reflection_pair matrices of each letter's root."""
    rs = ers.delta
    z, k = zeros(ers.n, ers.n), zeros(ers.n, rs.rank)
    m = cm = identity(rs.rank)
    for t in word:
        r, cr = reflection_pair(rs.pairing_matrix, rs.roots[t.root], rs.coroots[t.root])
        moved = mat_mul(label_k_part(ers, t), transpose(cm))
        z = tuple(
            tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(z, cocycle(ers, k, moved))
        )
        k = tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(k, moved))
        m, cm = mat_mul(m, r), mat_mul(cm, cr)
    return z, k, m, cm


def test_evaluate_word_in_w_matches_the_matrix_evaluation():
    rng = random.Random(16)
    systems = word_test_systems() + [
        ("A1 n=3", fully_extended("A", 1, n=3)),
        ("B2 n=3", span_extended("B", 2, n=3, g1=(0, 1, 2))),
    ]
    kernels = 0
    for name, ers in systems:
        words = [conjugated_relator_product(ers, rng) for _ in range(3)]
        words += [[random_label(ers, rng) for _ in range(rng.randint(0, 8))] for _ in range(5)]
        kernel = build_uab_kernel_word(ers) if ers.n == 3 else None
        if kernel:
            words.append(kernel)
            kernels += 1
        for word in words:
            w = evaluate_word_in_w(ers, word)
            z, k, m, cm = _matrix_evaluate(ers, word)
            assert (w.z, w.k, w.v.matrix, w.v.coroot_images) == (z, k, m, transpose(cm)), name
    assert kernels == 2


def test_v_rejected_words_skip_the_matrix_evaluation(monkeypatch):
    rng = random.Random(15)
    cases = []
    for _, ers in word_test_systems():
        for _ in range(5):
            v = WeylElement.identity(ers.delta)
            while v.is_identity():
                word = [random_label(ers, rng) for _ in range(rng.randint(1, 12))]
                v = evaluate_word_in_w(ers, word).v
            cases.append((ers, word, {"v_matrix": [list(r) for r in v.matrix]}))

    def unreachable(ers, word):
        raise AssertionError("evaluate_word_in_w reached")

    monkeypatch.setattr(weyl, "evaluate_word_in_w", unreachable)
    for ers, word, witness in cases:
        d = decide_word(ers, word)
        assert (d.trivial, d.failing_layer, d.witness) == (False, "V", witness)
    # a word with finite image 1 still takes the matrix path
    ers = b2()
    with pytest.raises(AssertionError, match="reached"):
        decide_word(ers, conjugated_relator_product(ers, rng))


def test_remark_conditions():
    ers = b2()
    assert remark_conditions(ers, []) == (True, True, True)
    t = ReflectionLabel.make(ers, (0, 0), 0)
    c1, c2, c3 = remark_conditions(ers, [t])
    assert not c1
    rng = random.Random(12)
    words = [
        [random_label(ers, rng) for _ in range(rng.randint(0, 8))] for _ in range(300)
    ]
    stats = cross_check_remark(ers, words)
    assert stats["agree"] + stats["disagree"] == 300
    # the harness logs; it never asserts agreement of the layer shortcut


def test_decision_json():
    a1 = fully_extended("A", 1, n=1)
    root_pos = a1.delta.index_of((1,))
    t0 = ReflectionLabel.make(a1, (0,), root_pos)
    d = decide_word(a1, [t0, t0])
    blob = d.to_json()
    assert blob == {"schema": 1, "trivial": True, "failing_layer": None, "witness": {}}


def test_kernel_witness_a1_rank3():
    ers = fully_extended("A", 1, n=3)
    word = build_uab_kernel_word(ers)
    assert word is not None
    assert evaluate_word_in_w(ers, word).is_identity()
    assert not uab_of_word(ers, word).is_zero()
    d = decide_word(ers, word)
    assert not d.trivial and d.failing_layer == "Uab"


def test_kernel_witness_b2_rank3():
    ers = span_extended("B", 2, n=3, g1=(0, 1, 2))
    word = build_uab_kernel_word(ers)
    assert word is not None
    d = decide_word(ers, word)
    assert not d.trivial and d.failing_layer == "Uab"


def test_kernel_witness_absent_small_rank():
    assert build_uab_kernel_word(fully_extended("A", 1, n=1)) is None
    assert build_uab_kernel_word(fully_extended("A", 1, n=2)) is None


def test_injectivity_simply_laced_and_exceptional():
    rng = random.Random(13)
    for ers in [
        fully_extended("A", 2, n=1),
        fully_extended("A", 3, n=2),
        fully_extended("D", 4, n=1),
        span_extended("F", 4, n=1),
        span_extended("G", 2, n=2, g1=(0,)),
    ]:
        for _ in range(40):
            word = conjugated_relator_product(ers, rng)
            assert evaluate_word_in_w(ers, word).is_identity()
            assert decide_word(ers, word).trivial


def test_properness():
    for ers in [
        fully_extended("A", 1, n=2),
        b2(),
        span_extended("C", 3, n=2, g1=(0,)),
        fully_extended("A", 2, n=1),
    ]:
        assert ab_a_properness(ers)


def test_orbits_same_under_a_and_w():
    # conjugation through the terminal group and through the extension
    # moves labels identically
    ers = b2()
    rng = random.Random(14)
    for _ in range(100):
        t = random_label(ers, rng)
        word = [random_label(ers, rng) for _ in range(rng.randint(1, 4))]
        a_label = t
        for s in reversed(word):
            a_label = conj_reflect(ers, s, a_label)
        w = evaluate_word_in_w(ers, word)
        wt = w * w_generator(ers, t) * w.inv()
        at = w_generator(ers, a_label)
        assert (wt.k, wt.v) == (at.k, at.v)


def test_reflection_bihom_exhaustive_small_shifts():
    # generator squares and conjugation over every basis-root label with
    # shift entries bounded by 2
    import itertools

    ers = b2()
    shifts = list(itertools.product(range(-2, 3), repeat=2))
    labels = [
        ReflectionLabel.make(ers, g, b)
        for b in ers.delta.basis
        for g in shifts
        if ers.membership(g, b)
    ]
    for t in labels:
        w = w_generator(ers, t)
        assert (w * w).is_identity()
    for t1 in labels:
        w1 = w_generator(ers, t1)
        for t2 in labels:
            lhs = w1 * w_generator(ers, t2) * w1.inv()
            assert lhs == w_generator(ers, conj_reflect(ers, t1, t2))
