import random

import pytest

from extweyl import root_core
from extweyl.intlinalg import (
    Matrix,
    Vector,
    determinant,
    dot,
    freeze,
    identity,
    mat_inv,
    mat_mul,
    mat_vec,
    transpose,
    vec_mat,
)
from extweyl.root_core import (
    EXTRALONG,
    LONG,
    SHORT,
    FiniteRootSystem,
    RootSystemError,
    RootSystemType,
    build,
    coxeter_evaluate,
    doubled_lattice_inside_l_eff,
    invariant_form,
    k_delta,
    l_eff_quotient,
    pairing_value_sets,
)
from extweyl.verify import suite_cocycle, sweep_types, word_test_systems

ROOT_COUNTS = {
    ("A", 1): 2,
    ("A", 2): 6,
    ("A", 3): 12,
    ("B", 2): 8,
    ("B", 3): 18,
    ("C", 3): 18,
    ("D", 4): 24,
    ("E", 6): 72,
    ("E", 7): 126,
    ("E", 8): 240,
    ("F", 4): 48,
    ("G", 2): 12,
    ("BC", 1): 4,
    ("BC", 2): 12,
}


def short_long_basis(rs):
    i, j = rs.basis[:2]
    if rs.lengths[i] == SHORT and rs.lengths[j] != SHORT:
        return i, j
    return j, i


def test_rank_constraints():
    for fam, bad in [("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 5), ("F", 3), ("G", 3), ("BC", 0)]:
        with pytest.raises(RootSystemError):
            RootSystemType(fam, bad)
    with pytest.raises(RootSystemError):
        RootSystemType("H", 3)


def test_simply_laced_flags():
    assert not RootSystemType("A", 1).is_simply_laced()
    assert RootSystemType("A", 1).is_single_length()
    assert RootSystemType("A", 2).is_simply_laced()
    assert RootSystemType("D", 5).is_simply_laced()
    assert RootSystemType("E", 7).is_simply_laced()
    for fam, rk in [("B", 2), ("C", 3), ("F", 4), ("G", 2), ("BC", 2)]:
        assert not RootSystemType(fam, rk).is_simply_laced()


def test_root_counts():
    for (fam, rk), n in ROOT_COUNTS.items():
        assert len(build(fam, rk).roots) == n


def test_table1_rows():
    # <a^,b>, r_a.b - b = m*a for the adjacent basis pair with a short
    for fam, pair_ab, mult in [("A", -1, 1), ("B", -2, 2), ("G", -3, 3)]:
        rs = build(fam, 2)
        a, b = short_long_basis(rs)
        assert rs.pairing(a, rs.roots[b]) == pair_ab
        assert rs.pairing(b, rs.roots[a]) == -1
        assert rs.reflect(a, rs.roots[b]) == tuple(
            x + mult * y for x, y in zip(rs.roots[b], rs.roots[a])
        )
        assert rs.reflect(b, rs.roots[a]) == tuple(
            x + y for x, y in zip(rs.roots[a], rs.roots[b])
        )


def test_pairing_basics():
    rs = build("B", 2)
    for i in range(len(rs.roots)):
        assert rs.pairing(i, rs.roots[i]) == 2
    a, b = short_long_basis(rs)
    assert rs.pairing(a, rs.roots[b]) == -2
    # bilinearity in the lattice slot
    lam = tuple(2 * x - 3 * y for x, y in zip(rs.roots[a], rs.roots[b]))
    assert rs.pairing(b, lam) == 2 * rs.pairing(b, rs.roots[a]) - 3 * 2


def test_pairing_value_set_b2():
    vs = pairing_value_sets(build("B", 2))
    assert vs[(SHORT, LONG)] == frozenset({0, 2, -2})
    assert vs[(SHORT, SHORT)] == frozenset({1, -1})


def test_reflect_involution_and_stability():
    for fam, rk in [("A", 2), ("B", 3), ("G", 2), ("BC", 2)]:
        rs = build(fam, rk)
        for i in range(len(rs.roots)):
            assert rs.reflect(i, rs.roots[i]) == tuple(-x for x in rs.roots[i])
            for j in range(len(rs.roots)):
                assert rs.is_root(rs.reflect(i, rs.roots[j]))


def test_coroot_bijection_and_negation():
    for fam, rk in [("A", 3), ("C", 3), ("F", 4), ("BC", 2)]:
        rs = build(fam, rk)
        assert len(set(rs.coroots)) == len(rs.roots)
        for i, r in enumerate(rs.roots):
            j = rs.index_of(tuple(-x for x in r))
            assert rs.coroots[j] == tuple(-x for x in rs.coroots[i])


def test_bc_divisible_roots():
    rs = build("BC", 2)
    div = rs.divisible_root_indices()
    assert len(div) == 4
    for i in div:
        assert rs.lengths[i] == EXTRALONG
        half = tuple(x // 2 for x in rs.roots[i])
        assert rs.is_root(half)
    assert len(rs.reduced_root_indices()) == 8


def test_label_table_invariants():
    kinds = set(sweep_types(8)) | {("BC", l) for l in range(1, 5)}
    for fam, rk in sorted(kinds):
        rs = build(fam, rk)
        table = rs.label_table
        assert len(table) == len(rs.roots)
        doubles = {tuple(2 * x for x in r) for r in rs.roots}
        for r, (plain, half) in zip(rs.roots, table):
            # each entry is a canonical root c with r = sign*c, or 2*sign*c
            for entry, scale in ((plain, 1), (half, 2)):
                if entry is None:
                    continue
                i, sign = entry
                c = rs.roots[i]
                assert c > tuple(-x for x in c)
                assert tuple(scale * sign * x for x in c) == r
            assert (half is not None) == (r in doubles)
        assert build(fam, rk).label_table is table


def test_k_delta():
    assert k_delta(RootSystemType("G", 2)) == 3
    assert k_delta(RootSystemType("B", 3)) == 2
    assert k_delta(RootSystemType("BC", 1)) == 2
    for fam, rk in [("A", 2), ("A", 1), ("D", 4), ("E", 6)]:
        with pytest.raises(RootSystemError):
            k_delta(RootSystemType(fam, rk))


def test_l_eff_quotient_cases():
    for fam, rk, want in [
        ("A", 1, "Z2"),
        ("B", 2, "Z2"),
        ("B", 4, "Z2"),
        ("BC", 1, "Z2"),
        ("BC", 3, "Z2"),
        ("C", 3, "0"),
        ("A", 2, "0"),
        ("D", 4, "0"),
        ("F", 4, "0"),
        ("G", 2, "0"),
    ]:
        fp, images = l_eff_quotient(build(fam, rk))
        assert fp.descriptor() == want, (fam, rk)
        if want == "Z2":
            rs = build(fam, rk)
            for i in range(len(rs.roots)):
                if rs.lengths[i] == SHORT:
                    assert images[i] == (1,)
                else:
                    assert images[i] == (0,)


def test_doubled_lattice_inside_l_eff():
    for fam, rk in [("A", 1), ("A", 4), ("B", 3), ("C", 4), ("D", 5), ("E", 6), ("F", 4), ("G", 2), ("BC", 2)]:
        assert doubled_lattice_inside_l_eff(build(fam, rk))


def test_invariant_form_values():
    rs = build("B", 2)
    f = invariant_form(rs)
    a, b = short_long_basis(rs)
    assert dot(rs.roots[a], mat_vec(f, rs.roots[a])) == 1
    assert dot(rs.roots[a], mat_vec(f, rs.roots[b])) == -1
    # A2: normalize the symmetrized form by the gcd over all root pairs
    rs = build("A", 2)
    f = invariant_form(rs)
    from math import gcd

    g = 0
    vals = []
    for x in rs.roots:
        for y in rs.roots:
            v = dot(x, mat_vec(f, y))
            vals.append(v)
            g = gcd(g, v)
    assert g == 1
    assert dot(rs.roots[rs.basis[0]], mat_vec(f, rs.roots[rs.basis[0]])) == 2


def test_invariant_form_invariance_and_perp():
    for fam, rk in [("A", 2), ("B", 3), ("G", 2), ("D", 4)]:
        rs = build(fam, rk)
        f = invariant_form(rs)
        for b in rs.basis:
            m = rs.weyl_generator(b).matrix
            # m^T f m == f
            lhs = mat_mul(mat_mul(tuple(zip(*m)), f), m)
            assert lhs == f
        for i in range(len(rs.roots)):
            for j in range(len(rs.roots)):
                if rs.perpendicular(i, j):
                    assert dot(rs.roots[i], mat_vec(f, rs.roots[j])) == 0


def test_invariant_form_unique_up_to_scale():
    rs = build("B", 3)
    f = invariant_form(rs)
    g = tuple(tuple(5 * x for x in row) for row in f)
    # solve the scale on basis pairs
    scales = set()
    for i in range(rs.rank):
        for j in range(rs.rank):
            if f[i][j]:
                assert g[i][j] % f[i][j] == 0
                scales.add(g[i][j] // f[i][j])
    assert scales == {5}


def test_coxeter_evaluate():
    rs = build("A", 2)
    i, j = rs.basis
    assert coxeter_evaluate(rs, []).is_identity()
    assert coxeter_evaluate(rs, [i, i]).is_identity()
    assert coxeter_evaluate(rs, [i, j, i]) == coxeter_evaluate(rs, [j, i, j])
    assert determinant(coxeter_evaluate(rs, [i]).matrix) == -1
    assert determinant(coxeter_evaluate(rs, [i, j]).matrix) == 1


def test_conjugation_identity_all_types():
    # r_a r_b r_a = r_{r_a(b)} at matrix level
    for fam, rk in [("A", 3), ("B", 4), ("C", 3), ("D", 4), ("E", 6), ("F", 4), ("G", 2), ("BC", 2)]:
        rs = build(fam, rk)
        n = len(rs.roots)
        for a in range(n):
            ra = rs.weyl_generator(a)
            for b in range(n):
                lhs = ra * rs.weyl_generator(b) * ra
                rhs = rs.weyl_generator(rs.index_of(rs.reflect(a, rs.roots[b])))
                assert lhs == rhs


def _dynkin_adjacency(rs):
    """Edge multiplicities of the Dynkin diagram: a_ij * a_ji off the diagonal."""
    c = rs.cartan
    return [[c[i][j] * c[j][i] if i != j else 0 for j in range(rs.rank)] for i in range(rs.rank)]


def test_dynkin_adjacency():
    adj = _dynkin_adjacency(build("B", 3))
    assert adj[0][1] == 1 and adj[1][2] == 2 and adj[0][2] == 0
    assert _dynkin_adjacency(build("G", 2))[0][1] == 3


def test_weyl_matrices_preserve_pairing():
    rs = build("C", 3)
    for k in range(rs.rank):
        w = rs.weyl_generator(rs.basis[k])
        for i in rs.basis:
            moved = mat_vec(transpose(w.coroot_images), rs.coroots[i])
            for j in rs.basis:
                assert rs.pairing(i, rs.roots[j]) == dot(
                    mat_vec(tuple(zip(*rs.pairing_matrix)), moved),
                    mat_vec(w.matrix, rs.roots[j]),
                )


def test_build_errors_and_cache():
    with pytest.raises(RootSystemError):
        build("B", 1)
    assert build("A", 2) is build("A", 2)


def test_reduction_keeps_lattice_and_reflections():
    # dropping divisible roots changes neither the root lattice nor the
    # reflection set
    from extweyl.intlinalg import hermite_rows

    for l in (1, 2, 3):
        rs = build("BC", l)
        red = rs.reduced_root_indices()
        full_span = hermite_rows([rs.roots[i] for i in range(len(rs.roots))])
        red_span = hermite_rows([rs.roots[i] for i in red])
        assert full_span == red_span
        refl_all = {rs.weyl_generator(i) for i in range(len(rs.roots))}
        refl_red = {rs.weyl_generator(i) for i in red}
        assert refl_all == refl_red


def test_coroot_effective_quotient_is_dual():
    # the coroot lattice behaves like the dual type: torsion moves from
    # the B side to the C side
    from extweyl.intlinalg import FPAbelianGroup
    from extweyl.root_core import coroot_l_eff_lattice

    for fam, rk, want in [("A", 1, "Z2"), ("B", 2, "Z2"), ("B", 3, "0"), ("C", 3, "Z2"), ("G", 2, "0")]:
        rs = build(fam, rk)
        fp = FPAbelianGroup(rs.rank, coroot_l_eff_lattice(rs))
        assert fp.descriptor() == want, (fam, rk)


# every admissible type up to rank 8, E7 and E8 included
TABLE_TYPES = sweep_types(8)


def _pairing_oracle(rs, i, v):
    """<alpha_i^vee, v> straight from the pairing matrix."""
    return dot(mat_vec(transpose(rs.pairing_matrix), rs.coroots[i]), v)


def _same_reflection_oracle(rs, i, j):
    """Proportional roots, by comparing against every possible ratio."""
    ri, rj = rs.roots[i], rs.roots[j]
    return any(
        tuple(a * x for x in ri) == tuple(b * x for x in rj)
        for a, b in ((1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (2, -1))
    )


@pytest.mark.parametrize("fam,rank", TABLE_TYPES)
def test_root_tables_match_slow_paths(fam, rank):
    rs = build(fam, rank)
    for i, ai in enumerate(rs.roots):
        for j, aj in enumerate(rs.roots):
            c = _pairing_oracle(rs, i, aj)
            assert rs.pairing_table[i][j] == c == rs.pairing(i, aj)
            image = tuple(y - c * x for x, y in zip(ai, aj))
            assert rs.reflection_table[i][j] == rs.index_of(image)
            same = _same_reflection_oracle(rs, i, j)
            assert rs.same_reflection(i, j) == same
            assert rs.perpendicular(i, j) == (not same and c == 0)


def reflection_pair(
    pairing_matrix: Matrix, root: Vector, coroot: Vector
) -> tuple[Matrix, Matrix]:
    """The reflection in a root as matrices on root and on coroot coordinates.

    x -> x - <alpha^vee, x> alpha and y -> y - <y, alpha> alpha^vee, with
    <y, x> = y . pairing_matrix . x; the two act in lockstep, so the
    pairing stays invariant.
    """
    row = vec_mat(coroot, pairing_matrix)
    col = mat_vec(pairing_matrix, root)
    n = len(root)
    return (
        freeze([[int(r == c) - root[r] * row[c] for c in range(n)] for r in range(n)]),
        freeze([[int(r == c) - coroot[r] * col[c] for c in range(n)] for r in range(n)]),
    )


def _unit(l, j):
    return tuple(int(i == j) for i in range(l))


@pytest.mark.parametrize("fam,rank", TABLE_TYPES)
def test_reflection_pairs_match_tables(fam, rank):
    # the matrices read off weyl_generator's permutation follow the
    # reflection table, equal the reflection_pair matrices, and the move
    # tables reproduce them on every unit vector
    rs = build(fam, rank)
    for i in range(len(rs.roots)):
        w = rs.weyl_generator(i)
        comatrix = transpose(w.coroot_images)
        for j, k in enumerate(rs.reflection_table[i]):
            assert mat_vec(w.matrix, rs.roots[j]) == rs.roots[k]
            assert mat_vec(comatrix, rs.coroots[j]) == rs.coroots[k]
    for k, b in enumerate(rs.basis):
        w = rs.weyl_generator(b)
        matrix, comatrix = w.matrix, transpose(w.coroot_images)
        assert reflection_pair(rs.pairing_matrix, rs.roots[b], rs.coroots[b]) == (
            matrix,
            comatrix,
        )
        for j in range(rank):
            e = _unit(rank, j)
            for moves, m in ((rs.cartan, matrix), (rs.coroot_moves, comatrix)):
                moved = tuple(x - moves[k][j] * y for x, y in zip(e, _unit(rank, k)))
                assert moved == mat_vec(m, e)
    assert rs.coroot_moves == (
        rs.cartan if fam == "BC" and rank >= 2 else transpose(rs.cartan)
    )


@pytest.mark.parametrize("fam,rank", TABLE_TYPES)
def test_moved_basis_vectors_match_the_generator_matrices(fam, rank):
    # v.e_j - e_j with v the simple reflections, read off the matrices of
    # weyl_generator, on both lattices
    rs = build(fam, rank)
    for moves, side in ((rs.cartan, "root"), (rs.coroot_moves, "coroot")):
        want = []
        for b in rs.basis:
            w = rs.weyl_generator(b)
            m = w.matrix if side == "root" else transpose(w.coroot_images)
            for j in range(rank):
                want.append(tuple(m[i][j] - int(i == j) for i in range(rank)))
        assert root_core._moved_basis_vectors(moves) == want, side


def _matrix_pair(rs, word):
    """The product of the reflection_pair matrices along `word`: the
    matrices on root and on coroot coordinates of its Weyl element."""
    m = cm = identity(rs.rank)
    for i in word:
        r, cr = reflection_pair(rs.pairing_matrix, rs.roots[i], rs.coroots[i])
        m, cm = mat_mul(m, r), mat_mul(cm, cr)
    return m, cm


@pytest.mark.parametrize("fam,rank", TABLE_TYPES)
def test_weyl_elements_match_the_matrix_oracle(fam, rank):
    # the permutation's derived views, inverse, identity test and equality
    # agree with the matrix product, its Fraction inverse and matrix equality
    rs = build(fam, rank)
    rng = random.Random(f"{fam}{rank}")
    words = [[]]
    for _ in range(15):
        word = [rng.randrange(len(rs.roots)) for _ in range(rng.randint(1, 8))]
        cut, a = rng.randint(0, len(word)), rng.randrange(len(rs.roots))
        words += [word, word[:cut] + [a, a] + word[cut:]]
    seen = []
    for word in words:
        w = coxeter_evaluate(rs, word)
        m, cm = _matrix_pair(rs, word)
        assert w.matrix == m
        assert w.coroot_images == transpose(cm)
        assert w.inv().matrix == mat_inv(m)
        assert w.inv().coroot_images == transpose(mat_inv(cm))
        assert w.is_identity() == (m == identity(rank))
        for x, mx in seen:
            assert (w == x) == (m == mx)
            if m == mx:
                assert hash(w) == hash(x)
        seen.append((w, m))
    assert any(w == x and w is not x for w, _ in seen for x, _ in seen)


def test_weyl_elements_take_no_matrix_path(monkeypatch):
    # with the matrix product and inverse refused, Weyl elements still
    # multiply and invert, and the cocycle suite still passes
    def refuse(*args):
        raise AssertionError("matrix path taken")

    monkeypatch.setattr(root_core, "mat_inv", refuse, raising=False)
    monkeypatch.setattr(root_core, "mat_mul", refuse, raising=False)
    assert suite_cocycle(seed=0, cases=200).ok
    for _, ers in word_test_systems():
        rs = ers.delta
        w = coxeter_evaluate(rs, range(len(rs.roots)))
        assert (w * w.inv()).is_identity() and (w.inv() * w).is_identity()
        assert w.inv().inv() == w


def _closure_oracle(rs):
    """Roots and coroots closed under the simple reflection matrices."""
    l = rs.rank
    e = [tuple(int(i == k) for i in range(l)) for k in range(l)]
    seeds = [(e[k], e[k]) for k in range(l)]
    if rs.rs_type.family == "BC":
        # the short simple coroot is twice the last coroot-basis vector,
        # which is the coroot of the divisible root 2*alpha_l
        double = tuple(2 * x for x in e[-1])
        seeds[-1] = (e[-1], double)
        seeds.append((double, e[-1]))
    simple = [reflection_pair(rs.pairing_matrix, *seed) for seed in seeds[:l]]
    seen = {}
    queue = list(seeds)
    while queue:
        root, coroot = queue.pop()
        if root in seen:
            continue
        seen[root] = coroot
        for m, c in simple:
            image = mat_vec(m, root)
            if image not in seen:
                queue.append((image, mat_vec(c, coroot)))
    pairs = sorted(seen.items())
    return tuple(r for r, _ in pairs), tuple(c for _, c in pairs)


@pytest.mark.parametrize("fam,rank", TABLE_TYPES)
def test_root_closure_matches_reflection_matrices(fam, rank):
    rs = build(fam, rank)
    assert (rs.roots, rs.coroots) == _closure_oracle(rs)


def test_root_tables_are_lazy():
    rs = FiniteRootSystem(RootSystemType("E", 7))
    lazy = {"_coroot_rows", "pairing_table", "reflection_table", "reflection_ids"}
    assert not lazy & set(vars(rs))
    assert rs.reflect_root_index(0, 1) == rs.reflection_table[0][1]
    assert "reflection_table" in vars(rs)
