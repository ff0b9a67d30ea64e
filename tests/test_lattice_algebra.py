import json
import pathlib

from extweyl import lattice_algebra
from extweyl.intlinalg import lattice_contains, hermite_rows, transpose
from extweyl.lattice_algebra import (
    BoxForm,
    box_quotient,
    boxtimes_form,
    coinvariants,
    inclusion_indices,
    lattice_embedding_matrix,
    mixed_box_form,
    root_box_form,
    _tensor_of,
)
from extweyl.root_core import (
    LONG,
    SHORT,
    FiniteRootSystem,
    RootSystemType,
    build,
    k_delta,
)
from extweyl.verify import sweep_types

from test_intlinalg import projects_to_zero

GOLDEN = pathlib.Path(__file__).parent / "golden" / "tensor_types.json"


def value_roots(form, i, j):
    """The box-form value of the tensor of root i (left) and root j (right)."""
    vecs_l, _ = lattice_algebra._side_data(form.rs, form.left)
    vecs_r, _ = lattice_algebra._side_data(form.rs, form.right)
    return form.value(vecs_l[i], vecs_r[j])


def test_coinvariants_examples():
    assert coinvariants(build("A", 2), "root", "root").descriptor() == "Z"
    assert coinvariants(build("B", 2), "root", "root").descriptor() == "Z x Z2"
    assert coinvariants(build("B", 3), "root", "coroot").descriptor() == "Z"
    assert coinvariants(build("BC", 2), "root", "root").descriptor() == "Z x Z2"
    assert coinvariants(build("BC", 2), "root", "coroot").descriptor() == "Z x Z2"


def test_coinvariants_symmetry():
    # the swap map induces the identity: e_i x e_j - e_j x e_i dies
    for fam, rk in [("A", 2), ("B", 2), ("G", 2)]:
        rs = build(fam, rk)
        fp = coinvariants(rs, "root", "root")
        l = rs.rank
        for i in range(l):
            for j in range(l):
                diff = [0] * (l * l)
                diff[i * l + j] += 1
                diff[j * l + i] -= 1
                assert projects_to_zero(fp, diff)


def test_root_combination_identities():
    # 2 a (x) b = <a^, b> a (x) a, and the non-adjacent swap identity
    for fam, rk in [("A", 2), ("B", 2), ("G", 2)]:
        rs = build(fam, rk)
        fp = coinvariants(rs, "root", "root")
        n = len(rs.roots)
        for a in range(n):
            ta = _tensor_of(rs, "root", "root", a, a)
            for b in range(n):
                m = rs.pairing(a, rs.roots[b])
                tab = _tensor_of(rs, "root", "root", a, b)
                diff = tuple(2 * x - m * y for x, y in zip(tab, ta))
                assert projects_to_zero(fp, diff)


def test_nonadjacent_basis_tensors_vanish():
    rs = build("A", 3)
    fp = coinvariants(rs, "root", "root")
    l = rs.rank
    i, k = rs.basis[0], rs.basis[2]
    assert rs.pairing(i, rs.roots[k]) == 0
    t = _tensor_of(rs, "root", "root", i, k)
    assert projects_to_zero(fp, t)


def test_generating_set_claim():
    # projections of {a x a : a short} u {a x r_b(a) : a short} span
    for fam, rk in [("B", 2), ("C", 3), ("G", 2), ("A", 2)]:
        rs = build(fam, rk)
        fp = coinvariants(rs, "root", "root")
        shorts = [i for i in range(len(rs.roots)) if rs.lengths[i] == SHORT]
        images = []
        for a in shorts:
            images.append(fp.project(_tensor_of(rs, "root", "root", a, a)))
            for b in range(len(rs.roots)):
                rb = rs.index_of(rs.reflect(b, rs.roots[a]))
                images.append(fp.project(_tensor_of(rs, "root", "root", a, rb)))
        # the image subgroup of Z^free x prod Z_d must be everything
        width = fp.free_rank + len(fp.torsion)
        rows = [list(f) + list(t) for f, t in images]
        for i, d in enumerate(fp.torsion):
            rows.append([0] * fp.free_rank + [0] * i + [d] + [0] * (len(fp.torsion) - i - 1))
        h = hermite_rows(rows)
        for j in range(width):
            assert lattice_contains(h, tuple(int(t == j) for t in range(width)))


SIDES = (("root", "root"), ("root", "coroot"), ("coroot", "coroot"))
EXTRA_TYPES = [("E", 7), ("E", 8), ("F", 4), ("G", 2), ("C", 4), ("BC", 3)]


def test_box_quotients_are_z():
    for fam, rk in [("A", 1), ("B", 2), ("C", 3), ("G", 2), ("BC", 2), ("D", 4)] + EXTRA_TYPES:
        rs = build(fam, rk)
        for pair in SIDES:
            assert box_quotient(rs, *pair).descriptor() == "Z", (fam, rk, pair)


def test_box_form_kills_perpendicular_pairs():
    # every perpendicular pair, including those never imposed as
    # relations: long pairs on a same-side form, and all pairs whose
    # left root is not its length class's representative
    for fam, rk in [("D", 4), ("B", 3), ("A", 3)] + EXTRA_TYPES:
        rs = build(fam, rk)
        for f in (root_box_form(rs), mixed_box_form(rs), boxtimes_form(rs)):
            for i in range(len(rs.roots)):
                for j in range(len(rs.roots)):
                    if rs.perpendicular(i, j):
                        assert value_roots(f, i, j) == 0, (fam, rk, f.left, f.right, i, j)


def _pool(rs, left, right):
    """The roots whose perpendicular pairs the box quotient kills."""
    n = len(rs.roots)
    if left != right:
        return list(range(n))
    if left == "root":
        return [i for i in range(n) if rs.lengths[i] == SHORT]
    return [i for i in range(n) if rs.coroot_length_class(i) == SHORT]


def _all_perp_pairs(rs, left, right):
    """Every perpendicular pair of the pool, each left root included."""
    pool = _pool(rs, left, right)
    return [(i, j) for i in pool for j in pool if rs.pairing(i, rs.roots[j]) == 0]


def _first_root_perp_pairs(rs, left, right):
    """The first pool root of each length class against every perpendicular
    pool root: the pairs folded before the stabilizer-orbit reduction."""
    pool = _pool(rs, left, right)
    reps = {}
    for i in pool:
        reps.setdefault(rs.lengths[i], i)
    return [(i, j) for i in reps.values() for j in pool if rs.pairing(i, rs.roots[j]) == 0]


def test_class_representative_pairs_match_all_pairs(monkeypatch):
    # the full relation set is the oracle: one left root per length
    # class must span the same relation lattice and give the same form
    for fam, rk in sweep_types(7):
        rs = build(fam, rk)
        for left, right in SIDES:
            with monkeypatch.context() as m:
                m.setattr(lattice_algebra, "_perp_relation_pairs", _all_perp_pairs)
                oracle = BoxForm(rs, left, right)
            # relations are the Hermite normal form of the relation rows
            got = box_quotient(rs, left, right).relations
            assert got == oracle.fp.relations, (fam, rk, left, right)
            assert BoxForm(rs, left, right).gram == oracle.gram, (fam, rk, left, right)


def test_stabilizer_orbit_pairs_match_first_root_pairs(monkeypatch):
    # the enumerator the orbit reduction replaced is the oracle: every
    # type through rank 8 and B24 root,root keep their relations and form
    cases = [(t, pair) for t in sweep_types(8) for pair in SIDES]
    for (fam, rk), (left, right) in cases + [(("B", 24), ("root", "root"))]:
        rs = build(fam, rk)
        with monkeypatch.context() as m:
            m.setattr(lattice_algebra, "_perp_relation_pairs", _first_root_perp_pairs)
            oracle = BoxForm(rs, left, right)
        got = BoxForm(rs, left, right)
        assert got.fp.relations == oracle.fp.relations, (fam, rk, left, right)
        assert got.gram == oracle.gram, (fam, rk, left, right)


def _stabilizer_orbit_count(rs, theta, pool):
    """Orbits of the pool roots perpendicular to theta under the simple
    reflections that fix theta, found by reflecting whole root vectors."""
    fixing = [b for b in rs.basis if rs.pairing(b, rs.roots[theta]) == 0]
    left = {j for j in pool if rs.pairing(theta, rs.roots[j]) == 0}
    count = 0
    while left:
        count += 1
        orbit = [left.pop()]
        while orbit:
            x = rs.roots[orbit.pop()]
            for b in fixing:
                y = rs.index_of(rs.reflect(b, x))
                if y in left:
                    left.remove(y)
                    orbit.append(y)
    return count


def test_perp_relation_pairs_one_per_stabilizer_orbit():
    for fam, rk in sweep_types(8):
        rs = build(fam, rk)
        for pair in SIDES:
            pairs = list(lattice_algebra._perp_relation_pairs(rs, *pair))
            assert len(pairs) <= 10, (fam, rk, pair, len(pairs))
            if fam == "E":
                assert len(pairs) == 1, (fam, rk, pair, pairs)
            pool = _pool(rs, *pair)
            for i, j in pairs:
                assert j in pool and rs.pairing(i, rs.roots[j]) == 0, (fam, rk, pair, i, j)
            # each left root is dominant, and its right roots are one per orbit
            for theta in {i for i, _ in pairs}:
                assert all(rs.pairing(b, rs.roots[theta]) >= 0 for b in rs.basis)
                got = sum(1 for i, _ in pairs if i == theta)
                assert got == _stabilizer_orbit_count(rs, theta, pool), (fam, rk, pair)


def test_box_quotient_builds_no_pairing_table():
    # the perpendicular pairs are read for the class representatives only,
    # and the stabilizer orbits are walked by one-coordinate moves
    rs = FiniteRootSystem(RootSystemType("E", 7))
    for left, right in SIDES:
        assert box_quotient(rs, left, right).descriptor() == "Z"
    assert "pairing_table" not in rs.__dict__
    assert "reflection_table" not in rs.__dict__


def test_streamed_relations_know_their_count(monkeypatch):
    # the relation rows are made as they are folded in, yet len() gives
    # the number that iterating them yields
    counts = []

    def count(n, rels):
        counts.append((len(rels), sum(1 for _ in rels)))

    monkeypatch.setattr(lattice_algebra, "FPAbelianGroup", count)
    for fam, rk in sweep_types(4):
        rs = build(fam, rk)
        for pair in SIDES:
            coinvariants(rs, *pair)
            box_quotient(rs, *pair)
    assert len(counts) == 2 * 3 * len(sweep_types(4))
    assert all(made == told for told, made in counts)


def _dense_coinvariant_relations(rs, left, right):
    """The l^3 rows (v.e_i) (x) (v.e_j) - e_i (x) e_j, v a simple reflection,
    each made from the full matrices of weyl_generator, zero rows included."""
    l = rs.rank
    for base in rs.basis:
        w = rs.weyl_generator(base)
        matrices = {"root": w.matrix, "coroot": transpose(w.coroot_images)}
        a, b = matrices[left], matrices[right]
        for i in range(l):
            for j in range(l):
                row = [0] * (l * l)
                for p in range(l):
                    for q in range(l):
                        row[p * l + q] += a[p][i] * b[q][j]
                row[i * l + j] -= 1
                yield row


def test_coinvariant_relations_are_the_nonzero_dense_rows():
    # every type through rank 8, E6-E8, F4, G2 and BC1-BC8 included
    for fam, rk in sweep_types(8):
        rs = build(fam, rk)
        for pair in SIDES:
            rels = lattice_algebra._coinvariant_relations(rs, *pair)
            rows = list(rels)
            assert len(rels) == len(rows), (fam, rk, pair)
            want = [r for r in _dense_coinvariant_relations(rs, *pair) if any(r)]
            assert rows == want, (fam, rk, pair)


def test_streamed_relations_know_their_count_through_rank_8(monkeypatch):
    counts = []

    def count(n, rels):
        counts.append((len(rels), sum(1 for _ in rels)))

    monkeypatch.setattr(lattice_algebra, "FPAbelianGroup", count)
    for fam, rk in sweep_types(8):
        rs = build(fam, rk)
        for pair in SIDES:
            coinvariants(rs, *pair)
            box_quotient(rs, *pair)
    assert len(counts) == 2 * 3 * len(sweep_types(8))
    assert all(made == told for told, made in counts)


def test_sweep_types_lists_each_admissible_type_once():
    for cap in range(1, 9):
        got = sweep_types(cap)
        want = (
            {("A", l) for l in range(1, cap + 1)}
            | {("B", l) for l in range(2, cap + 1)}
            | {("C", l) for l in range(3, cap + 1)}
            | {("D", l) for l in range(4, cap + 1)}
            | {("E", l) for l in (6, 7, 8) if l <= cap}
            | {t for t in (("F", 4), ("G", 2)) if t[1] <= cap}
            | {("BC", l) for l in range(1, cap + 1)}
        )
        assert len(got) == len(set(got)) and set(got) == want, cap
    # the default sweep and the benchmark inputs built from it
    assert sweep_types(6) == [
        ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
        ("B", 2), ("B", 3), ("B", 4), ("B", 5), ("B", 6),
        ("C", 3), ("C", 4), ("C", 5), ("C", 6),
        ("D", 4), ("D", 5), ("D", 6),
        ("E", 6), ("F", 4), ("G", 2),
        ("BC", 1), ("BC", 2), ("BC", 3), ("BC", 4), ("BC", 5), ("BC", 6),
    ]


def test_box_form_invariance():
    for fam, rk in [("B", 2), ("G", 2), ("BC", 2)]:
        rs = build(fam, rk)
        f = boxtimes_form(rs)
        from extweyl.intlinalg import mat_mul

        for b in rs.basis:
            m = transpose(rs.weyl_generator(b).coroot_images)
            assert mat_mul(mat_mul(tuple(zip(*m)), f.gram), m) == f.gram


def test_box_form_symmetric_and_gcd_one():
    from math import gcd

    for fam, rk in [("A", 1), ("B", 2), ("C", 3), ("G", 2)]:
        f = boxtimes_form(build(fam, rk))
        g = 0
        for i, row in enumerate(f.gram):
            for j, x in enumerate(row):
                assert x == f.gram[j][i]
                g = gcd(g, x)
        assert g == 1


def test_a1_box_generator():
    rs = build("A", 1)
    f = root_box_form(rs)
    # single generator a x a with unit projection, positive by convention
    assert value_roots(f, rs.basis[0], rs.basis[0]) == 1


def test_box_anchor_sign():
    for fam, rk in [("B", 2), ("C", 3), ("F", 4), ("G", 2)]:
        rs = build(fam, rk)
        anchor = next(b for b in rs.basis if rs.lengths[b] == LONG)
        assert boxtimes_form(rs).value(rs.coroots[anchor], rs.coroots[anchor]) > 0


def test_lattice_embedding_chain():
    # k * (coroot lattice) <= image(phi) <= coroot lattice
    for fam, rk in [("B", 2), ("B", 3), ("C", 3), ("F", 4), ("G", 2)]:
        rs = build(fam, rk)
        k = k_delta(rs.rs_type)
        phi = lattice_embedding_matrix(rs)
        image = hermite_rows(list(zip(*phi)))
        l = rs.rank
        for j in range(l):
            scaled = tuple(k * int(i == j) for i in range(l))
            assert lattice_contains(image, scaled)
        # the image is the span of the short-root coroots
        shorts = hermite_rows(
            [rs.coroots[i] for i in range(len(rs.roots)) if rs.lengths[i] == SHORT]
        )
        assert image == shorts


def test_inclusion_indices_positive():
    for fam, rk in [("B", 2), ("B", 4), ("C", 3), ("F", 4), ("G", 2)]:
        phi, psi = inclusion_indices(build(fam, rk))
        assert phi > 0 and psi > 0


def test_inclusion_indices_reject_single_length():
    import pytest
    from extweyl.root_core import RootSystemError

    for fam, rk in [("A", 2), ("D", 4), ("BC", 2)]:
        with pytest.raises(RootSystemError):
            inclusion_indices(build(fam, rk))


def test_golden_tensor_types():
    data = json.loads(GOLDEN.read_text())
    for entry in data["entries"]:
        rs = build(entry["family"], entry["rank"])
        left, right = entry["pair"].split(",")
        fp = coinvariants(rs, left, right)
        assert fp.descriptor() == entry["descriptor"], entry
        assert fp.invariant_factors == entry["invariant_factors"], entry
    for entry in data["box_values"]:
        rs = build(entry["family"], entry["rank"])
        f = boxtimes_form(rs)
        anchor = next(
            (b for b in rs.basis if rs.lengths[b] == LONG), rs.basis[0]
        )
        assert f.value(rs.coroots[anchor], rs.coroots[anchor]) == entry["value"]
    for entry in data["inclusion_indices"]:
        assert list(inclusion_indices(build(entry["family"], entry["rank"]))) == entry["indices"]
