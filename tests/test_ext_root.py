import itertools
import json
import pathlib
import random
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from extweyl import ext_root, intlinalg, weyl
from extweyl.ext_root import (
    ExtRootError,
    ExtRootSystem,
    FreeAbelianGroup,
    SSet,
    TrimResult,
    check_twist,
    fully_extended,
    span_extended,
    trim,
    validate,
)
from extweyl.intlinalg import (
    QuotientTooLarge,
    Vector,
    coset_residues,
    dot,
    hermite_rows,
    identity,
    lattice_intersection,
    lattice_reduce,
    mat_vec,
    solve_integer,
    transpose,
    vec_scale,
)
from extweyl.refl_groups import ReflectionLabel
from extweyl.root_core import EXTRALONG, LONG, SHORT, RootSystemType, build, k_delta
from extweyl.verify import orbit_configurations, word_test_systems
from extweyl.weyl import w_generator
from support import (
    act_on_root,
    determinant,
    rebase_reducing,
    reflection_sym_system,
    represent_again,
    span_by_fold,
    terminal_group,
)


GOLDEN = pathlib.Path(__file__).parent / "golden"


def long_index(ers):
    return next(i for i, c in enumerate(ers.delta.lengths) if c == LONG)


def short_index(ers):
    return next(i for i, c in enumerate(ers.delta.lengths) if c == SHORT)


def same_set(a: SSet, b: SSet) -> bool:
    """Whether two S-sets hold the same elements, compared over the
    intersection of their moduli."""
    common = lattice_intersection(a.h_basis, b.h_basis)
    return set(a.rebase(common).cosets) == set(b.rebase(common).cosets)


def map_extended_root(tr: TrimResult, g_old, root_idx: int) -> tuple[Vector, int]:
    """The trimmed extended root that the source's (g_old, root_idx)
    lands on; a short root's shift is doubled with it."""
    g_old = tuple(g_old)
    if tr.source.delta.lengths[root_idx] == SHORT:
        g_old = vec_scale(2, g_old)
    sol = solve_integer(tr.g_matrix, g_old)
    if sol is None:
        raise ExtRootError(f"{g_old} is not in the trimmed group")
    return sol, tr.root_map[root_idx]


def test_sset_basics():
    s = SSet([[2, 0], [0, 2]], [(0, 0), (1, 1), (3, 3)])
    assert s.cosets == ((0, 0), (1, 1))
    assert s.contains((4, 2)) and s.contains((3, -1))
    assert not s.contains((1, 0))
    assert s.span == tuple(hermite_rows(2, [{0: 1, 1: 1}, {1: 2}]))
    assert same_set(s, SSet([[2, 0], [0, 2]], [(1, 1), (0, 0)]))
    d = s.scale(2)
    assert d.contains((2, 2)) and not d.contains((1, 1))


def test_sset_rebase_roundtrip():
    s = SSet([[2]], [(0,), (1,)])
    fine = s.rebase([[4]])
    assert set(fine.cosets) == {(0,), (1,), (2,), (3,)}
    assert same_set(fine, s)


def test_sset_rejects_bad_modulus():
    with pytest.raises(ExtRootError):
        SSet([[2, 0]], [(0, 0)])
    # rank 0 in Z^2, not a modulus of Z^0
    with pytest.raises(ExtRootError, match="full-rank"):
        SSet([[0, 0]], [(0, 0)])
    with pytest.raises(ExtRootError):
        SSet([[2]], [])
    # Z^n is read from the cosets: an empty H is no modulus of Z^1
    with pytest.raises(ExtRootError, match="full-rank"):
        SSet([], [(0,)])
    with pytest.raises(ExtRootError, match="one width"):
        SSet([[1, 0], [0, 1]], [(0, 0), (0,)])
    assert SSet([], [()]).rank == 0


def test_free_abelian_group_split():
    g = FreeAbelianGroup(3, (0, 2), (1,))
    assert g.g1 == (0, 2) and g.g2 == (1,)
    assert FreeAbelianGroup(2).g2 == (0, 1)
    with pytest.raises(ExtRootError):
        FreeAbelianGroup(2, (0,), (0, 1))


def test_validate_fully_extended_a2():
    rep = validate(fully_extended("A", 2, n=1))
    assert rep.ok


def test_validate_b2_span_example():
    ers = span_extended("B", 2, n=2, g1=(0,))
    assert same_set(ers.s_sets[LONG], SSet([[2, 0], [0, 1]], [(0, 0)]))
    assert validate(ers).ok
    assert check_twist(ers).ok


def test_validate_failure_witnesses():
    base = span_extended("B", 2, n=1)
    # drop zero from the long slice: R2' must fail with a witness
    bad = ExtRootSystem(
        base.delta,
        base.group,
        {SHORT: base.s_sets[SHORT], LONG: SSet([[2]], [(1,)])},
    )
    rep = validate(bad)
    assert not rep.ok
    names = [c.name for c in rep.failed()]
    assert any("R2'" in n for n in names)


def test_validate_r3_failure():
    # a long slice not closed under subtracting 2*S_sh
    bad = ExtRootSystem(
        build("B", 2),
        FreeAbelianGroup(1),
        {SHORT: SSet([[4]], [(0,), (1,), (2,), (3,)]), LONG: SSet([[4]], [(0,), (1,)])},
    )
    rep = validate(bad)
    assert not rep.ok
    r3 = [c for c in rep.checks if c.name.startswith("R3'")][0]
    assert not r3.passed and r3.witness


def test_membership():
    ers = span_extended("B", 2, n=2, g1=(0,))
    lg = long_index(ers)
    sh = short_index(ers)
    assert ers.membership((0, 0), lg)
    assert not ers.membership((1, 0), lg)
    assert ers.membership((2, 0), lg)
    assert ers.membership((1, 0), sh)
    a1 = fully_extended("A", 1, n=1)
    assert a1.membership((17,), 0)


def test_membership_depends_only_on_length_class():
    ers = span_extended("B", 3, n=2, g1=(0,))
    rng = random.Random(1)
    for _ in range(100):
        g = (rng.randint(-3, 3), rng.randint(-3, 3))
        vals = {ers.membership(g, i) for i in range(len(ers.delta.roots)) if ers.delta.lengths[i] == LONG}
        assert len(vals) == 1


def _swapped_b2():
    """B2 over Z^2 with G1 and G2 exchanged: valid, but not tame."""
    ers = span_extended("B", 2, n=2, g1=(0,))
    return ExtRootSystem(ers.delta, FreeAbelianGroup(2, (1,), (0,)), ers.s_sets)


def _untame_b2():
    """B2 over Z^2 with G1 = Z e_0, S_sh = Z^2 and S_lg = 2Z^2: valid, but
    not tame."""
    ers = span_extended("B", 2, n=2, g1=(0,))
    return ExtRootSystem(ers.delta, ers.group, {**ers.s_sets, LONG: SSet([[2, 0], [0, 2]], [(0, 0)])})


def test_twist_swapped_fails():
    rep = check_twist(_swapped_b2())
    assert not rep.ok
    assert rep.failed()


def test_twist_vacuous_simply_laced():
    rep = check_twist(fully_extended("A", 2, n=2))
    assert rep.ok
    assert "vacuous" in rep.checks[0].name


def test_twist_bc_needs_trim():
    with pytest.raises(ExtRootError):
        check_twist(fully_extended("BC", 2, n=1))


def test_twist_span_properties():
    # (v): <S_sh> = G1 + G2 and <S_lg> = k G1 + G2
    ers = span_extended("C", 3, n=3, g1=(0, 2))
    rep = check_twist(ers)
    assert rep.ok


def test_trim_bc1():
    ers = fully_extended("BC", 1, n=1)
    tr = trim(ers)
    assert tr.system.delta.rs_type == RootSystemType("A", 1)
    assert validate(tr.system).ok
    # the trimmed slice contains the doubled short part
    assert tr.system.s_sets[SHORT].contains((2,)) or tr.system.s_sets[SHORT].contains((1,))
    s = tr.system.s_sets[SHORT]
    assert all(s.contains((2 * k,)) for k in range(-3, 4))


def test_trim_types():
    assert trim(fully_extended("BC", 2, n=1)).system.delta.rs_type == RootSystemType("B", 2)
    assert trim(fully_extended("BC", 3, n=1)).system.delta.rs_type == RootSystemType("C", 3)
    with pytest.raises(ExtRootError):
        trim(fully_extended("B", 2, n=1))


def test_trim_reflection_preservation():
    # r_{trim(a)} = r_a: acting through the trimmed system matches the
    # source action under the coordinate identifications
    ers = fully_extended("BC", 2, n=2)
    tr = trim(ers)
    rng = random.Random(0)
    for _ in range(20):
        root = rng.randrange(len(ers.delta.roots))
        g = (rng.randint(-2, 2), rng.randint(-2, 2))
        h = (rng.randint(-2, 2), rng.randint(-2, 2))
        beta = rng.randrange(len(ers.delta.roots))
        t = ReflectionLabel.make(ers, g, root)
        a = w_generator(ers, t)
        h2, b2 = act_on_root(ers, a, h, beta)
        # same action computed in the trimmed system
        g_new, root_new = map_extended_root(tr, g, root)
        t_new = ReflectionLabel.make(tr.system, g_new, root_new)
        a_new = w_generator(tr.system, t_new)
        hh, bb = map_extended_root(tr, h, beta)
        h3, b3 = act_on_root(tr.system, a_new, hh, bb)
        assert (h3, b3) == map_extended_root(tr, h2, b2)


def test_trim_equivariance_on_basis_pairs():
    ers = fully_extended("BC", 2, n=1)
    tr = trim(ers)
    old = ers.delta
    new = tr.system.delta
    for a in old.basis:
        for b in range(len(old.roots)):
            lhs = tr.root_map[old.reflection_table[a][b]]
            rhs = new.reflection_table[tr.root_map[a]][tr.root_map[b]]
            assert lhs == rhs


def _root_map_by_closure(old, new):
    """The trim root map by closing the seeded simple roots under
    reflections; the oracle for the change of basis in trim."""
    l = old.rank
    trimmed = {
        i: (vec_scale(2, r) if old.lengths[i] == SHORT else r)
        for i, r in enumerate(old.roots)
    }
    buckets = {}
    for i, v in trimmed.items():
        buckets.setdefault(v, []).append(i)
    assert len(buckets) == len(new.roots)
    if l == 1:
        seed_old = [vec_scale(2, old.roots[old.basis[0]])]
        seed_new = [new.basis[0]]
    else:
        seed_old = [old.roots[old.basis[i]] for i in range(l - 1)]
        seed_old.append(vec_scale(2, old.roots[old.basis[l - 1]]))
        shorts = [b for b in new.basis if new.lengths[b] == SHORT]
        longs = [b for b in new.basis if new.lengths[b] == LONG]
        seed_new = shorts + longs
    refl_old = [old.basis[i] for i in range(l)]
    reps = {v: idxs[0] for v, idxs in buckets.items()}
    assignment = dict(zip(seed_old, seed_new))
    queue = list(seed_old)
    while queue:
        ov = queue.pop()
        oi = reps[ov]
        for pos in range(l):
            ov2 = trimmed[old.reflection_table[refl_old[pos]][oi]]
            ni2 = new.reflection_table[seed_new[pos]][assignment[ov]]
            if ov2 in assignment:
                assert assignment[ov2] == ni2
            else:
                assignment[ov2] = ni2
                queue.append(ov2)
    assert len(assignment) == len(buckets)
    return {i: assignment[v] for v, idxs in buckets.items() for i in idxs}


@pytest.mark.parametrize("l", range(1, 9))
def test_trim_root_map_matches_the_reflection_closure(l):
    tr = trim(fully_extended("BC", l, n=1))
    assert tr.root_map == _root_map_by_closure(tr.source.delta, tr.system.delta)


def test_span_extended_bc1_trims_to_a1():
    # BC1 has no long roots, so span_extended builds no long slice
    for n in range(1, 4):
        for g1 in ((), (0,), tuple(range(n))):
            ers = span_extended("BC", 1, n=n, g1=g1)
            assert sorted(ers.s_sets) == [EXTRALONG, SHORT]
            assert validate(ers).ok
            tr = trim(ers)
            assert tr.system.delta.rs_type == RootSystemType("A", 1)
            assert validate(tr.system).ok


def _skew_bc(rank):
    """BC over Z^2 whose extralong slice 2Z^2 + {0, (1,1)} makes the trimmed
    long span non-diagonal, so trim changes the basis of the group."""
    return ExtRootSystem(build("BC", rank), FreeAbelianGroup(2), {
        SHORT: SSet(identity(2), [(0, 0)]),
        LONG: SSet(identity(2), [(0, 0)]),
        EXTRALONG: SSet([[2, 0], [0, 2]], [(0, 0), (1, 1)]),
    })


def test_trim_results_match_golden():
    # generated before check_twist and trim were reworked
    cases = [
        (f"{fn.__name__} BC{rank} n={n} g1={list(g1)}", fn("BC", rank, n=n, g1=g1))
        for fn, lo in ((fully_extended, 1), (span_extended, 2))
        for rank in range(lo, 5)
        for n in range(1, 4)
        for g1 in ((), (0,))
    ] + [(f"skew BC{rank} n=2", _skew_bc(rank)) for rank in (2, 3)]
    got = {}
    for name, ers in cases:
        tr = trim(ers)
        got[name] = {
            "system": tr.system.to_json(),
            "g_matrix": [list(r) for r in tr.g_matrix],
            "root_map": [list(kv) for kv in sorted(tr.root_map.items())],
        }
    assert got == json.loads((GOLDEN / "trim_results.json").read_text())


def test_twist_reports_match_golden():
    # every check_twist record over the orbit and word systems and two
    # untame B2 systems, generated before check_twist was reworked
    systems = [
        *orbit_configurations(),
        *word_test_systems(),
        ("B2 n=2 swapped", _swapped_b2()),
        ("B2 n=2 S_lg=2Z^2", _untame_b2()),
    ]
    got = {
        name: [[c.name, c.passed, c.witness] for c in check_twist(ers).checks]
        for name, ers in systems
    }
    assert len(got) == len(systems)
    assert got == json.loads((GOLDEN / "twist_reports.json").read_text())


def test_trim_validates_and_is_tame():
    for l, n in [(1, 2), (2, 2), (3, 2)]:
        tr = trim(fully_extended("BC", l, n=n))
        assert validate(tr.system).ok
        assert check_twist(tr.system).ok


def test_membership_invariant_under_action():
    rng = random.Random(7)
    for ers in [span_extended("B", 2, n=2, g1=(0,)), fully_extended("A", 2, n=2)]:
        assert validate(ers).ok
        roots = len(ers.delta.roots)
        for _ in range(200):
            beta = rng.randrange(roots)
            s = ers.s_of_root(beta)
            h = list(s.cosets[rng.randrange(len(s.cosets))])
            for row in s.h_basis:
                f = rng.randint(-2, 2)
                for i in range(len(h)):
                    h[i] += f * row[i]
            alpha = rng.randrange(roots)
            sa = ers.s_of_root(alpha)
            g = sa.cosets[rng.randrange(len(sa.cosets))]
            t = ReflectionLabel.make(ers, g, alpha)
            a = w_generator(ers, t)
            h2, b2 = act_on_root(ers, a, tuple(h), beta)
            assert ers.membership(h2, b2)


def test_json_roundtrip(tmp_path):
    ers = span_extended("B", 2, n=2, g1=(0,))
    data = ers.to_json()
    assert data["schema"] == 1
    back = ExtRootSystem.from_json(json.loads(json.dumps(data)))
    assert back.delta.rs_type == ers.delta.rs_type
    assert back.group == ers.group
    for cls in ers.classes():
        assert same_set(back.s_sets[cls], ers.s_sets[cls])
    p = tmp_path / "sys.json"
    p.write_text(json.dumps(data))
    again = ExtRootSystem.load(str(p))
    assert again.group == ers.group


def test_class_mismatch_rejected():
    with pytest.raises(ExtRootError):
        ExtRootSystem(
            build("B", 2),
            FreeAbelianGroup(1),
            {SHORT: SSet(identity(1), [(0,)])},
        )


def test_trim_weyl_group_order_unchanged():
    ers = fully_extended("BC", 2, n=1)
    tr = trim(ers)
    # conjugation realization: the Weyl group modulo its center
    o1, _ = terminal_group(reflection_sym_system(ers.delta)[0])
    o2, _ = terminal_group(reflection_sym_system(tr.system.delta)[0])
    assert o1 == o2 == 4

    def group_order(rs):
        gens = [rs.weyl_generator(b) for b in rs.basis]
        seen = {gens[0] * gens[0].inv()}
        frontier = list(seen)
        while frontier:
            nxt = []
            for w in frontier:
                for g in gens:
                    x = w * g
                    if x not in seen:
                        seen.add(x)
                        nxt.append(x)
            frontier = nxt
        return len(seen)

    assert group_order(ers.delta) == group_order(tr.system.delta) == 8


def test_trim_consistent_on_divisible_pairs():
    # a short extended root and its double are one trimmed root, so the
    # trimmed orbit structure is well defined on the source
    ers = fully_extended("BC", 2, n=2)
    tr = trim(ers)
    old = ers.delta
    short = next(i for i, c in enumerate(old.lengths) if c == SHORT)
    double = old.index_of(tuple(2 * x for x in old.roots[short]))
    for g in [(0, 0), (1, 2), (-1, 3)]:
        img1 = map_extended_root(tr, g, short)
        img2 = map_extended_root(tr, tuple(2 * x for x in g), double)
        assert img1 == img2


def test_trim_orbits_well_defined_on_source():
    from extweyl.weyl import orbit_of

    ers = fully_extended("BC", 1, n=2)
    tr = trim(ers)
    old = ers.delta
    short = next(i for i, c in enumerate(old.lengths) if c == SHORT)
    a = orbit_of(tr.system, *map_extended_root(tr, (0, 0), short))
    b = orbit_of(tr.system, *map_extended_root(tr, (1, 0), short))
    # doubling the shift part lands every short root in one class
    assert a == b


def test_twist_failure_carries_witness():
    rep = check_twist(_swapped_b2())
    assert any(c.witness for c in rep.failed())


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2), min_size=1, max_size=3),
    st.sampled_from([2, 3, 4, 6]),
)
def test_sset_rebase_preserves_set(cosets, refine):
    s = SSet([[2, 0], [0, 2]], [tuple(c) for c in cosets])
    finer = s.rebase([[2 * refine, 0], [0, 2 * refine]])
    assert same_set(finer, s)
    for c in cosets:
        assert finer.contains(tuple(c)) == s.contains(tuple(c))


def _r3_exhaustive(ers):
    """Reference for validate's R3': scan every simple alpha, every root
    beta and every pair of cosets of S_beta and S_alpha."""
    delta, n = ers.delta, ers.n
    refined = ers.refined
    hstar = next(iter(refined.values())).h_basis
    coset_sets = {c: set(s.cosets) for c, s in refined.items()}
    pt = transpose(delta.pairing_matrix)
    for alpha in delta.basis:
        cls_a = delta.lengths[alpha]
        for beta in range(len(delta.roots)):
            cls_b = delta.lengths[beta]
            m = dot(mat_vec(pt, delta.coroots[alpha]), delta.roots[beta])
            for cb in coset_sets[cls_b]:
                for da in coset_sets[cls_a]:
                    img = lattice_reduce(
                        hstar, tuple(cb[i] - m * da[i] for i in range(n))
                    )
                    if img not in coset_sets[cls_b]:
                        return False, (
                            f"S_{cls_b} - ({m})*S_{cls_a} leaves S_{cls_b}: "
                            f"{cb} - {m}*{da} = {img}"
                        )
    return True, ""


def _refined_to_k_squared(ers):
    """The same slices written over k^2 * Z^n, the finest modulus validate accepts."""
    t = ers.delta.rs_type
    kk = 4 if t.is_single_length() else k_delta(t) ** 2
    fine = [[kk * (i == j) for j in range(ers.n)] for i in range(ers.n)]
    return ExtRootSystem(
        ers.delta, ers.group, {c: s.rebase(fine) for c, s in ers.s_sets.items()}
    )


def _broken_variants(ers):
    """Each slice with one coset dropped, and with one missing coset added;
    the slice moduli must be diagonal."""
    out = []
    for cls, s in ers.s_sets.items():
        if len(s.cosets) > 1:
            out.append((cls, s.cosets[:-1]))
        grid = itertools.product(*(range(row[i]) for i, row in enumerate(s.h_basis)))
        missing = sorted(set(grid) - set(s.cosets))
        if missing:
            out.append((cls, s.cosets + (missing[len(missing) // 2],)))
    return [
        ExtRootSystem(
            ers.delta,
            ers.group,
            {**ers.s_sets, cls: SSet(ers.s_sets[cls].h_basis, cosets)},
        )
        for cls, cosets in out
    ]


def test_r3_matches_exhaustive_scan():
    coarse = [ers for _, ers in orbit_configurations()]
    fine = [_refined_to_k_squared(ers) for ers in coarse]
    broken = [b for ers in fine for b in _broken_variants(ers)]
    failures = 0
    for ers in coarse + fine + broken:
        rep = validate(ers)
        r3 = [c for c in rep.checks if c.name.startswith("R3'")]
        assert len(r3) == 1
        assert (r3[0].passed, r3[0].witness) == _r3_exhaustive(ers)
        failures += not r3[0].passed
    assert all(validate(ers).ok for ers in coarse + fine)
    assert failures == len(broken) > 0


def _r3_triple_verdicts(ers):
    """Per triple (class of alpha, class of beta, m = <alpha^vee, beta>),
    alpha simple, whether S_beta - m * d <= S_beta for every residue d of
    S_alpha, checked on every pair of residues in G/H*."""
    refined = ers.refined
    hstar = next(iter(refined.values())).h_basis
    coset_sets = {c: set(s.cosets) for c, s in refined.items()}
    delta = ers.delta
    out = {}
    for alpha in delta.basis:
        for beta, m in enumerate(delta.pairing_table[alpha]):
            cls_a, cls_b = delta.lengths[alpha], delta.lengths[beta]
            if (cls_a, cls_b, m) not in out:
                out[cls_a, cls_b, m] = all(
                    lattice_reduce(hstar, [a - m * b for a, b in zip(cb, da)]) in coset_sets[cls_b]
                    for cb in coset_sets[cls_b]
                    for da in coset_sets[cls_a]
                )
    return out


def _r3_holds(ers, cls_a, cls_b, m):
    """R3' for one triple as validate decides it: S_beta keeps m*r for
    each row r of the span of S_alpha (SSet.keeps)."""
    s_b = ers.s_sets[cls_b]
    return m == 0 or all(s_b.keeps(vec_scale(m, r)) for r in ers.s_sets[cls_a].span)


def test_r3_class_pair_decision_matches_the_triples():
    # R3' decides each pair of length classes once, at the gcd of its
    # pairings: that must hold exactly when every triple of the pair
    # holds, and validate's verdict and witness stay those of the
    # per-triple scan
    coarse = [ers for _, ers in orbit_configurations()]
    fine = [_refined_to_k_squared(ers) for ers in coarse]
    broken = [b for ers in fine for b in _broken_variants(ers)]
    assert len(broken) == 37
    failed_pairs = 0
    for ers in coarse + fine + broken:
        verdicts = _r3_triple_verdicts(ers)
        for (cls_a, cls_b), g in ext_root._class_pair_gcds(ers.delta).items():
            want = all(ok for (a, b, _), ok in verdicts.items() if (a, b) == (cls_a, cls_b))
            assert _r3_holds(ers, cls_a, cls_b, g) == want, (ers, cls_a, cls_b, g)
            failed_pairs += not want
        r3 = [c for c in validate(ers).checks if c.name.startswith("R3'")]
        assert [(c.passed, c.witness) for c in r3] == [_r3_all_cosets(ers.delta, ers.refined)]
    assert failed_pairs > 0


def _r3_edge_systems():
    """Invalid systems for R3': B2 with the long slice 4G, a lattice that
    S_lg - 2*S_sh leaves, and two slices that are a coset of a lattice
    without 0 (so not the lattice they span)."""
    a1 = fully_extended("A", 1, n=2)
    b2 = span_extended("B", 2, n=2)
    b2_1 = span_extended("B", 2, n=1)
    return [
        ExtRootSystem(b2_1.delta, b2_1.group, {**b2_1.s_sets, LONG: SSet([[4]], [(0,)])}),
        ExtRootSystem(a1.delta, a1.group, {SHORT: SSet([[2, 0], [0, 1]], [(1, 0)])}),
        ExtRootSystem(b2.delta, b2.group, {**b2.s_sets, LONG: SSet([[2, 0], [0, 2]], [(1, 1)])}),
    ]


def test_r3_span_decision_matches_the_coset_scan(monkeypatch):
    # a slice that is the lattice it spans keeps a translation x by one
    # lattice_contains (SSet.keeps): each such decision must equal the
    # scan of x over the slice's cosets modulo H*; every other slice is
    # scanned over its own H, and each triple and class pair keeps its
    # verdict
    coarse = [ers for _, ers in orbit_configurations()]
    fine = [_refined_to_k_squared(ers) for ers in coarse]
    broken = [b for ers in fine for b in _broken_variants(ers)]
    real, met = ext_root.lattice_contains, []

    def recording(hnf, v):
        got = real(hnf, v)
        met.append((hnf, v, got))
        return got

    monkeypatch.setattr(ext_root, "lattice_contains", recording)
    decided, scanned = set(), 0
    for ers in coarse + fine + broken + _r3_edge_systems():
        refined = ers.refined
        hstar = next(iter(refined.values())).h_basis
        coset_sets = {c: set(s.cosets) for c, s in refined.items()}
        spans = {c: s.span for c, s in ers.s_sets.items()}
        # the slices that equal their span, found by enumerating it mod H*
        lattices = {
            c for c, sb in coset_sets.items()
            if coset_residues(hstar, [(0,) * ers.n], spans[c]) == sb
        }
        met.clear()
        for (cls_a, cls_b, m), ok in _r3_triple_verdicts(ers).items():
            assert _r3_holds(ers, cls_a, cls_b, m) == ok, (ers, cls_a, cls_b, m)
            scanned += bool(m) and cls_b not in lattices
        for (cls_a, cls_b), g in ext_root._class_pair_gcds(ers.delta).items():
            _r3_holds(ers, cls_a, cls_b, g)
        for hnf, x, got in met:
            cls_b = next(c for c, span in spans.items() if span is hnf)
            sb = coset_sets[cls_b]
            assert cls_b in lattices, (ers, cls_b)
            scan = all(lattice_reduce(hstar, [a - b for a, b in zip(cb, x)]) in sb for cb in sb)
            assert got == scan, (ers, cls_b, x)
            decided.add(got)
    assert decided == {True, False} and scanned > 0


def _r3_all_cosets(delta, refined):
    """Reference for validate's R3': each triple (class of alpha, class of
    beta, m) decided by subtracting m times every coset of S_alpha, each
    (class, x) once; the same failure scan as validate."""
    hstar = next(iter(refined.values())).h_basis
    coset_sets = {c: set(s.cosets) for c, s in refined.items()}
    lengths, table = delta.lengths, delta.pairing_table
    n = len(hstar)
    order = abs(prod(next(x for x in row if x) for row in hstar))  # |G/H*|

    def shifted(c, x):
        return lattice_reduce(hstar, tuple(c[i] - x[i] for i in range(n)))

    stable = {}

    def keeps(cls_b, x):
        if (cls_b, x) not in stable:
            sb = coset_sets[cls_b]
            stable[cls_b, x] = len(sb) == order or all(shifted(cb, x) in sb for cb in sb)
        return stable[cls_b, x]

    holds = {}
    for alpha in delta.basis:
        cls_a = lengths[alpha]
        for beta, m in enumerate(table[alpha]):
            cls_b = lengths[beta]
            triple = (cls_a, cls_b, m)
            if triple not in holds:
                holds[triple] = m == 0 or all(
                    keeps(cls_b, lattice_reduce(hstar, vec_scale(m, da)))
                    for da in coset_sets[cls_a]
                )
            if holds[triple]:
                continue
            for cb in coset_sets[cls_b]:
                for da in coset_sets[cls_a]:
                    img = shifted(cb, vec_scale(m, da))
                    if img not in coset_sets[cls_b]:
                        return False, (
                            f"S_{cls_b} - ({m})*S_{cls_a} leaves S_{cls_b}: "
                            f"{cb} - {m}*{da} = {img}"
                        )
    return True, ""


_R3_TYPES = [
    ("A", 1), ("A", 2), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("E", 6),
    ("F", 4), ("G", 2), ("BC", 1), ("BC", 2), ("BC", 3),
]


def _random_slices_over_k_squared(rng, family, rank, n):
    """A system whose slices are random unions of cosets of diagonal
    moduli between k^2 * Z^n and Z^n: either random residues over a
    random modulus per class, or one random subgroup and modulus shared
    by the classes with some of them grown by a further coset, so that
    R3' both holds and fails."""
    delta = build(family, rank)
    t = delta.rs_type
    kk = 4 if t.is_single_length() else k_delta(t) ** 2
    divisors = [d for d in range(1, kk + 1) if kk % d == 0]

    def modulus():
        return [[rng.choice(divisors) * (i == j) for j in range(n)] for i in range(n)]

    def vec():
        return tuple(rng.randrange(kk) for _ in range(n))

    classes = sorted(set(delta.lengths))
    if rng.random() < 0.5:
        s_sets = {c: SSet(modulus(), [vec() for _ in range(rng.randint(1, 5))]) for c in classes}
    else:
        h = modulus()
        group = coset_residues(h, [(0,) * n], [vec() for _ in range(rng.randint(0, 2))])
        s_sets = {}
        for cls in classes:
            x = vec() if rng.random() < 0.3 else (0,) * n
            grown = [tuple(a + b for a, b in zip(g, x)) for g in group]
            s_sets[cls] = SSet(h, [*group, *grown])
    return ExtRootSystem(delta, FreeAbelianGroup(n), s_sets)


def test_r3_from_span_rows_matches_all_cosets():
    # R3' tests m * r for the rows r of <S_alpha> only; the oracle tests
    # every coset of S_alpha
    rng = random.Random(18)
    systems = [ers for _, ers in orbit_configurations()]
    systems += [_refined_to_k_squared(ers) for ers in systems]
    for family, rank in _R3_TYPES:
        for n in (1, 2) if family == "G" else (1, 2, 3):
            systems += [_random_slices_over_k_squared(rng, family, rank, n) for _ in range(20)]
    verdicts = []
    for ers in systems:
        r3 = [c for c in validate(ers).checks if c.name.startswith("R3'")]
        assert len(r3) == 1
        assert (r3[0].passed, r3[0].witness) == _r3_all_cosets(ers.delta, ers.refined)
        verdicts.append(r3[0].passed)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100


def _chains_oracle(ers):
    """The chain check validate replaced: mult*S_lower written over mult*H*,
    then it and S_upper rebased onto the intersection of their moduli."""
    refined = ers.refined
    if ers.delta.rs_type.is_single_length():
        return []
    k = k_delta(ers.delta.rs_type)
    out = []
    for lower, upper, mult in ((SHORT, LONG, k), (LONG, EXTRALONG, k), (SHORT, EXTRALONG, k * k)):
        if lower not in refined or upper not in refined:
            continue
        up, lo = refined[upper], refined[lower]
        sub_ok = set(up.cosets) <= set(lo.cosets)
        scaled = lo.scale(mult)
        common = lattice_intersection(scaled.h_basis, up.h_basis)
        mult_ok = set(scaled.rebase(common).cosets) <= set(up.rebase(common).cosets)
        ok = sub_ok and mult_ok
        out.append((
            f"chain {mult}*S_{lower} <= S_{upper} <= S_{lower}",
            ok,
            "" if ok else f"containment fails ({upper},{lower})",
        ))
    return out


def test_chains_match_rebased_oracle():
    coarse = [ers for _, ers in orbit_configurations()]
    fine = [_refined_to_k_squared(ers) for ers in coarse]
    broken = [b for ers in fine for b in _broken_variants(ers)]
    failures = 0
    for ers in coarse + fine + broken:
        got = [
            (c.name, c.passed, c.witness)
            for c in validate(ers).checks
            if c.name.startswith("chain")
        ]
        assert got == _chains_oracle(ers)
        failures += sum(not ok for _, ok, _ in got)
    assert failures > 0


def test_twist_cache_matches_a_fresh_check():
    coarse = [ers for _, ers in orbit_configurations()]
    fine = [_refined_to_k_squared(ers) for ers in coarse]
    broken = [b for ers in fine for b in _broken_variants(ers)]
    untame = 0
    for ers in coarse + fine + broken + [_swapped_b2()]:
        cached = ers.twist
        fresh = check_twist(ers)
        assert [(c.name, c.passed, c.witness) for c in cached.checks] == [
            (c.name, c.passed, c.witness) for c in fresh.checks
        ]
        assert ers.twist is cached
        untame += not fresh.ok
    assert untame > 1


def _presented_systems(copies=3, seed=29):
    """Every orbit_configurations() system and its k^2 Z^n form, each
    followed by `copies` seeded re-presentations of it (represent_again)."""
    rng = random.Random(seed)
    for name, ers in orbit_configurations():
        for key, system in ((name, ers), (f"{name} over k^2 Z^n", _refined_to_k_squared(ers))):
            data = system.to_json()
            yield key, system
            for copy in range(copies):
                yield f"{key} #{copy}", ExtRootSystem.from_json(represent_again(data, rng))


def _rebase_targets(ers):
    """Moduli every slice of a valid system refines onto: the common one,
    written again under a unimodular row operation, k^2 Z^n and twice
    the common one."""
    common = next(iter(ers.refined.values())).h_basis
    t = ers.delta.rs_type
    kk = 4 if t.is_single_length() else k_delta(t) ** 2
    n = ers.n
    sheared = [list(r) for r in common]
    if n > 1:
        sheared[0] = [x - 3 * y for x, y in zip(sheared[0], sheared[-1])]
    return [
        common,
        sheared,
        [[kk * (i == j) for j in range(n)] for i in range(n)],
        [vec_scale(2, r) for r in common],
    ]


def test_rebase_matches_the_reducing_oracle():
    # onto H itself rebase is the set; onto a finer modulus, such as H
    # with its last row doubled, it stores the residues of coset_residues
    # without reducing them again
    cases = 0
    for name, ers in _presented_systems():
        for cls, s in ers.s_sets.items():
            assert s.rebase(s.h_basis) is s
            assert s.rebase([list(r) for r in reversed(s.h_basis)]) is s
            doubled = [*s.h_basis[:-1], vec_scale(2, s.h_basis[-1])]
            for target in [s.h_basis, doubled, *_rebase_targets(ers)]:
                got, want = s.rebase(target), rebase_reducing(s, target)
                assert (got.h_basis, got.cosets) == (want.h_basis, want.cosets), (name, cls)
                assert all(got.contains(c) for c in want.cosets)
                cases += 1
        refined = ers.refined
        common = next(iter(refined.values())).h_basis
        for cls, s in ers.s_sets.items():
            want = rebase_reducing(s, common)
            assert (refined[cls].h_basis, refined[cls].cosets) == (want.h_basis, want.cosets)
            if s.h_basis == common:
                assert refined[cls] is s
    assert cases > 1000


def test_rebase_onto_a_finer_modulus_reduces_it_alone(monkeypatch):
    # the set holds the Hermite basis of H, so the one Hermite reduction
    # is that of the new modulus, and H's residues are enumerated against
    # the held basis; the quotient cap still holds on this path
    calls = []
    real = intlinalg.hermite_rows
    for module in (ext_root, intlinalg):
        monkeypatch.setattr(module, "hermite_rows", lambda *a: calls.append(a) or real(*a))
    s = SSet([[2, 0], [0, 2]], [(0, 0), (1, 0)])
    calls.clear()
    assert s.rebase([[4, 0], [0, 2]]).cosets == ((0, 0), (1, 0), (2, 0), (3, 0))
    assert len(calls) == 1
    with pytest.raises(QuotientTooLarge):
        s.rebase([[2 * 4096, 0], [0, 2]])


def test_rebase_onto_a_coarser_modulus_is_refused():
    s = SSet([[2, 0], [0, 2]], [(0, 0), (1, 0)])
    with pytest.raises(ExtRootError, match="must refine"):
        s.rebase([[1, 0], [0, 2]])


def test_rebase_onto_the_held_basis_reduces_nothing(monkeypatch):
    # refined passes a Hermite basis; a slice already over it is returned
    # without a Hermite reduction
    s = SSet([[2, 1], [0, 4]], [(0, 0), (1, 2)])
    calls = []
    real = intlinalg.hermite_rows
    monkeypatch.setattr(ext_root, "hermite_rows", lambda *a: calls.append(a) or real(*a))
    assert s.rebase(s.h_basis) is s
    assert s.rebase([list(r) for r in s.h_basis]) is s
    assert calls == []
    assert s.rebase([[2, -3], [0, 4]]) is s and len(calls) == 1


def _closed_under_addition(s):
    """Whether S + S <= S, decided on every pair of residues modulo H: a
    nonempty finite union of cosets closed under addition is a group."""
    residues = set(s.cosets)
    return all(
        lattice_reduce(s.h_basis, [x + y for x, y in zip(a, b)]) in residues
        for a in residues
        for b in residues
    )


def _slices_of_the_orbit_configurations():
    coarse = [ers for _, ers in orbit_configurations()]
    fine = [_refined_to_k_squared(ers) for ers in coarse]
    broken = [b for ers in coarse + fine for b in _broken_variants(ers)]
    return [s for ers in coarse + fine + broken for s in ers.s_sets.values()]


def test_is_lattice_is_closure_under_addition_on_the_orbit_configurations():
    slices = _slices_of_the_orbit_configurations()
    verdicts = [s.is_lattice for s in slices]
    assert verdicts == [_closed_under_addition(s) for s in slices]
    assert verdicts.count(True) > 50 and verdicts.count(False) > 20


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(1, 4), min_size=n, max_size=n),
            st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n),
            st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=2),
            st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=2),
        )
    )
)
def test_is_lattice_is_closure_under_addition(case):
    # S = starts + <gens> over an upper triangular H: a lattice when the
    # starts are 0 alone, and otherwise sometimes
    diag, above, gens, starts = case
    n = len(diag)
    h = [[diag[i] if i == j else above[i * n + j] * (j > i) for j in range(n)] for i in range(n)]
    hnf = hermite_rows(n, intlinalg.sparse_rows(h))
    s = SSet(h, coset_residues(hnf, [(0,) * n, *map(tuple, starts)], gens))
    assert s.is_lattice == _closed_under_addition(s), s
    if not starts:
        assert s.is_lattice


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 3).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(1, 4), min_size=n, max_size=n),
            st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n),
            st.sampled_from(["every", "subset", "sublattice"]),
            st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=2),
            st.booleans(),
            st.randoms(use_true_random=False),
        )
    )
)
def test_span_and_is_lattice_equal_the_fold(case):
    # every residue of H, a proper subset of them or a sublattice's,
    # listed through shifted representatives, some twice: span and
    # is_lattice equal the fold of H and every coset, and a set that
    # holds every coset of H is Z^n with no Hermite reduction
    diag, above, kind, gens, twice, rng = case
    n = len(diag)
    h = [[diag[i] if i == j else above[i * n + j] * (j > i) for j in range(n)] for i in range(n)]
    hnf = hermite_rows(n, intlinalg.sparse_rows(h))
    residues = sorted(coset_residues(hnf, [(0,) * n], identity(n)))
    if kind == "subset":
        residues = rng.sample(residues, max(1, len(residues) - 1 - rng.randrange(len(residues))))
    elif kind == "sublattice":
        residues = sorted(coset_residues(hnf, [(0,) * n], gens))
    listed = residues + (rng.choices(residues, k=2) if twice else [])
    cosets = [
        tuple(x + sum(rng.randint(-2, 2) * r[j] for r in h) for j, x in enumerate(c))
        for c in listed
    ]
    s = SSet(h, cosets)
    calls = []
    with pytest.MonkeyPatch.context() as patched:
        real = ext_root.hermite_rows
        patched.setattr(ext_root, "hermite_rows", lambda *a: calls.append(a) or real(*a))
        span, is_lattice = s.span, s.is_lattice
    fold = span_by_fold(s)
    assert span == fold
    assert is_lattice == (len(s.cosets) * abs(determinant(fold)) == abs(determinant(h)))
    assert (calls == []) == (len(s.cosets) == abs(determinant(h)))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(1, 3), min_size=n, max_size=n),
            st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n),
            st.sampled_from(["every", "subset", "sublattice", "coset"]),
            st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=2),
            st.randoms(use_true_random=False),
        )
    )
)
def test_keeps_equals_the_coset_scan(case):
    # S - x = S for x over every residue of H, each moved by a random
    # vector of H: SSet.keeps equals subtracting x from each coset and
    # reducing each difference alone, on lattices (Z^n among them) and on
    # other unions of cosets; H is always kept, and a slice that is not
    # Z^n (SSet.is_whole) rejects some x
    diag, above, kind, gens, rng = case
    n = len(diag)
    h = [[diag[i] if i == j else above[i * n + j] * (j > i) for j in range(n)] for i in range(n)]
    hnf = hermite_rows(n, intlinalg.sparse_rows(h))
    residues = sorted(coset_residues(hnf, [(0,) * n], identity(n)))
    if kind == "every":
        cosets = residues
    elif kind == "subset":
        cosets = rng.sample(residues, rng.randint(1, len(residues)))
    else:
        start = (0,) * n if kind == "sublattice" else tuple(rng.randint(-4, 4) for _ in range(n))
        cosets = coset_residues(hnf, [start], gens)
    s = SSet(h, cosets)
    held = set(s.cosets)
    verdicts = set()
    for r in residues:
        coeffs = [rng.randint(-2, 2) for _ in h]
        x = tuple(v + sum(k * row[j] for k, row in zip(coeffs, h)) for j, v in enumerate(r))
        want = all(lattice_reduce(hnf, [a - b for a, b in zip(c, x)]) in held for c in held)
        assert s.keeps(x) == want, (s, x)
        verdicts.add(want)
    assert verdicts == ({True} if len(held) == len(residues) else {True, False}), s
    assert s.is_whole == (len(held) == len(residues)), s


def test_span_of_a_slice_holding_every_coset_makes_no_hermite_reduction(monkeypatch):
    # all 64 cosets of 4*Z^3, as listed by a 4*Z^3 form of a standard system
    s = SSet([[4 * (i == j) for j in range(3)] for i in range(3)], itertools.product(range(4), repeat=3))
    calls = []
    real = ext_root.hermite_rows
    monkeypatch.setattr(ext_root, "hermite_rows", lambda *a: calls.append(a) or real(*a))
    assert s.span == identity(3) and s.is_lattice
    assert calls == []


def test_r1_holds_when_the_slices_span_index_one():
    # R1' reads the Hermite basis of the spans, which has full rank: it
    # holds at index 1, the identity; its witness is the index of the sum
    a1 = fully_extended("A", 1, n=2)
    b2 = span_extended("B", 2, n=2, g1=(0,))

    def a1_over(h, cosets):
        return ExtRootSystem(a1.delta, a1.group, {SHORT: SSet(h, cosets)})

    two = [[2, 0], [0, 2]]
    cases = [
        (a1, True),
        (a1_over([[2, 0], [0, 1]], [(0, 0)]), False),
        (a1_over(two, [(0, 0), (1, 1)]), False),
        (a1_over(two, [(0, 0), (1, 0), (0, 1)]), True),
        (b2, True),
        (ExtRootSystem(b2.delta, b2.group, {**b2.s_sets, SHORT: SSet([[4, 0], [0, 1]], [(0, 0)])}), False),
    ]
    for ers, want in cases:
        r1 = [c for c in validate(ers).checks if c.name.startswith("R1'")]
        assert [(c.passed, c.witness) for c in r1] == [(want, "" if want else "span index 2")]


def test_slices_that_are_z_n_settle_validate_and_orbit_classes_with_no_reduction(monkeypatch):
    # A2 over Z^3 with its one slice written as H = Z^3 and as all 64
    # cosets of 4*Z^3: after load's Hermite basis of H, validate and
    # orbit_classes make no Hermite reduction and no membership test
    one = fully_extended("A", 2, n=3).to_json()
    many = json.loads(json.dumps(one))
    many["s_sets"]["sh"] = {
        "H": [[4 * (i == j) for j in range(3)] for i in range(3)],
        "cosets": [list(c) for c in itertools.product(range(4), repeat=3)],
    }
    calls = {"hermite_rows": 0, "lattice_contains": 0, "lattice_subset": 0}
    for name in calls:
        real = getattr(intlinalg, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        for module in (intlinalg, ext_root, weyl):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    for data in (one, many):
        ers = ExtRootSystem.from_json(data)
        assert calls == {"hermite_rows": 1, "lattice_contains": 0, "lattice_subset": 0}
        assert validate(ers).ok
        classes, agree = weyl.orbit_classes(ers)
        assert agree and len(classes) == 1
        assert calls == {"hermite_rows": 1, "lattice_contains": 0, "lattice_subset": 0}
        calls.update(dict.fromkeys(calls, 0))
