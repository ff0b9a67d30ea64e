"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with pytest -v plus
the printed summary under -s or on failure).  Expected values marked as
derived in the module tests were computed by the independent oracles
that live here or in the goldens, never copied from the implementation.

The pairing-table criterion carries a documented caveat: three cells of
the published reference table are strict supersets of the enumeration
(the zero value would require perpendicular reflection pairs that do
not exist there).  The authoritative oracle is the independent ambient
enumeration below; the divergent reference cells are pinned, asserted,
and reported loudly rather than silently accepted.
"""

import random
import time
from fractions import Fraction

from extweyl.ext_root import check_twist, fully_extended, span_extended, validate
from extweyl.lattice_algebra import (
    box_quotient,
    coinvariants,
    inclusion_indices,
)
from extweyl.root_core import (
    LONG,
    SHORT,
    build,
    l_eff_quotient,
    pairing_value_sets,
)
from extweyl.verify import (
    PAIRING_CHECK_TYPES,
    REFERENCE_SET_ERRATA,
    orbit_configurations,
    reference_row,
    suite_cocycle,
    sweep_types,
    word_test_systems,
)
from extweyl.weyl import (
    ab_a_properness,
    build_uab_kernel_word,
    conjugated_relator_product,
    decide_word,
    evaluate_word_in_w,
    orbit_classes,
    uab_of_word,
)
from support import pairing, reflect


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# --- criterion 1: rank-2 table ------------------------------------------------


def test_c01_rank2_table():
    t0 = time.monotonic()
    ok = True
    for fam, pair_ab, mult in [("A", -1, 1), ("B", -2, 2), ("G", -3, 3)]:
        rs = build(fam, 2)
        i, j = rs.basis
        a, b = (i, j) if rs.lengths[i] == SHORT else (j, i)
        ok &= pairing(rs, a, rs.roots[b]) == pair_ab
        ok &= pairing(rs, b, rs.roots[a]) == -1
        ok &= reflect(rs, a, rs.roots[b]) == tuple(
            x + mult * y for x, y in zip(rs.roots[b], rs.roots[a])
        )
        ok &= reflect(rs, b, rs.roots[a]) == tuple(
            x + y for x, y in zip(rs.roots[a], rs.roots[b])
        )
    elapsed = time.monotonic() - t0
    report("criterion 1 (rank-2 pairing table)", ok and elapsed < 1.0, f"{elapsed:.3f}s")


# --- criterion 2: pairing value sets -------------------------------------------

# Independent oracle: the classical ambient realizations over exact
# rationals (E7 and E8 in doubled integer coordinates), nothing shared
# with the basis-coordinate implementation.


def _ambient_roots(fam: str, l: int):
    def e(i, dim):
        return tuple(Fraction(int(k == i)) for k in range(dim))

    def add(u, v, s=1):
        return tuple(x + s * y for x, y in zip(u, v))

    roots = []
    if fam == "A":
        dim = l + 1
        for i in range(dim):
            for j in range(dim):
                if i != j:
                    roots.append(add(e(i, dim), e(j, dim), -1))
    elif fam in ("B", "C", "D"):
        dim = l
        for i in range(l):
            for j in range(i + 1, l):
                for si in (1, -1):
                    for sj in (1, -1):
                        roots.append(add(tuple(si * x for x in e(i, dim)), e(j, dim), sj))
        if fam == "B":
            for i in range(l):
                roots += [e(i, dim), tuple(-x for x in e(i, dim))]
        if fam == "C":
            for i in range(l):
                roots += [tuple(2 * x for x in e(i, dim)), tuple(-2 * x for x in e(i, dim))]
    elif fam == "G":
        dim = 3
        base = [(1, -1, 0), (0, 1, -1), (1, 0, -1), (2, -1, -1), (-1, 2, -1), (-1, -1, 2)]
        for v in base:
            roots.append(tuple(Fraction(x) for x in v))
            roots.append(tuple(Fraction(-x) for x in v))
    elif fam == "F":
        dim = 4
        for i in range(4):
            roots += [e(i, dim), tuple(-x for x in e(i, dim))]
        for i in range(4):
            for j in range(i + 1, 4):
                for si in (1, -1):
                    for sj in (1, -1):
                        roots.append(add(tuple(si * x for x in e(i, dim)), e(j, dim), sj))
        for signs in range(16):
            roots.append(
                tuple(
                    Fraction((1 if (signs >> k) & 1 else -1), 2) for k in range(4)
                )
            )
    elif fam == "E" and l == 6:
        dim = 8
        for i in range(5):
            for j in range(i + 1, 5):
                for si in (1, -1):
                    for sj in (1, -1):
                        roots.append(add(tuple(si * x for x in e(i, dim)), e(j, dim), sj))
        for signs in range(32):
            if bin(signs).count("1") % 2 == 0:
                v = [Fraction((-1 if (signs >> k) & 1 else 1), 2) for k in range(5)]
                tail = [-Fraction(1, 2), -Fraction(1, 2), Fraction(1, 2)]
                w = tuple(v + tail)
                roots.append(w)
                roots.append(tuple(-x for x in w))
    elif fam == "E" and l in (7, 8):
        # doubled coordinates: D8 roots, then (+-1/2)^8 with an even
        # number of minus signs; E7 is orthogonal to the E8 root e7 + e8
        for i in range(8):
            for j in range(i + 1, 8):
                for si in (2, -2):
                    for sj in (2, -2):
                        roots.append(tuple(si * (k == i) + sj * (k == j) for k in range(8)))
        for signs in range(256):
            if bin(signs).count("1") % 2 == 0:
                roots.append(tuple(-1 if (signs >> k) & 1 else 1 for k in range(8)))
        if l == 7:
            roots = [r for r in roots if r[6] + r[7] == 0]
    else:
        raise AssertionError(fam)
    return roots


def _oracle_value_sets(fam: str, l: int):
    roots = _ambient_roots(fam, l)
    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    norms = sorted({dot(r, r) for r in roots})
    out: dict = {}
    for b in roots:
        nb = dot(b, b)
        if len(norms) == 1:
            cx = SHORT
        else:
            cx = SHORT if nb == norms[-1] else LONG
        for g in roots:
            ng = dot(g, g)
            cy = SHORT if (len(norms) == 1 or ng == norms[0]) else LONG
            val = Fraction(2 * dot(b, g), nb)
            assert val.denominator == 1
            out.setdefault((cx, cy), set()).add(int(val))
    return {k: frozenset(v) for k, v in out.items()}


def test_c02_pairing_table_vs_enumeration():
    t0 = time.monotonic()
    mismatch_cells = set()
    for fam, rank in PAIRING_CHECK_TYPES:
        rs = build(fam, rank)
        computed = pairing_value_sets(rs)
        computed = {k: v for k, v in computed.items() if v}
        oracle = _oracle_value_sets(fam, rank)
        assert computed == oracle, f"{fam}{rank}: library disagrees with ambient oracle"
        _, row = reference_row(fam, rank)
        for key, ref in row.items():
            got = computed.get(key, frozenset())
            if got != ref:
                mismatch_cells.add((f"{fam}{rank}", key))
                print(
                    f"TABLE MISMATCH REPORT {fam}{rank} <{key[0]},{key[1]}>: "
                    f"enumerated {sorted(got)} vs published {sorted(ref)}"
                )
    elapsed = time.monotonic() - t0
    # the published table differs from the enumeration in exactly the
    # three pinned cells; anything else is an implementation failure
    assert mismatch_cells == set(REFERENCE_SET_ERRATA), mismatch_cells
    report(
        "criterion 2 (pairing value sets)",
        elapsed < 5.0,
        f"{elapsed:.2f}s; {len(mismatch_cells)} pinned reference mismatches reported",
    )


# --- criteria 3-5: coinvariants and boxes --------------------------------------


def test_c03_coinvariants_root_root():
    t0 = time.monotonic()
    ok = True
    for fam, rank in sweep_types(6):
        rs = build(fam, rank)
        got = coinvariants(rs, "root", "root").descriptor()
        want = "Z x Z2" if fam in ("B", "BC") and rank >= 2 else "Z"
        if got != want:
            ok = False
            print(f"  {fam}{rank}: {got} != {want}")
    elapsed = time.monotonic() - t0
    report(
        "criterion 3 (L (x)_V L invariant factors)",
        ok and elapsed < 30.0,
        f"{elapsed:.2f}s",
    )


def test_c04_coinvariants_root_coroot():
    ok = True
    for fam, rank in sweep_types(6):
        rs = build(fam, rank)
        got = coinvariants(rs, "root", "coroot").descriptor()
        want = "Z x Z2" if fam == "BC" and rank >= 2 else "Z"
        if got != want:
            ok = False
            print(f"  {fam}{rank}: {got} != {want}")
    report("criterion 4 (L (x)_V Lv invariant factors)", ok)


def test_c05_box_quotients_and_indices():
    ok = True
    for fam, rank in sweep_types(6):
        rs = build(fam, rank)
        for pair in (("root", "root"), ("root", "coroot"), ("coroot", "coroot")):
            got = box_quotient(rs, *pair).descriptor()
            if got != "Z":
                ok = False
                print(f"  {fam}{rank} {pair}: {got} != Z")
        if not rs.rs_type.is_single_length() and rs.rs_type.is_reduced():
            phi, psi = inclusion_indices(rs)
            if phi <= 0 or psi <= 0:
                ok = False
                print(f"  {fam}{rank}: indices {phi},{psi} not positive")
    report("criterion 5 (box quotients infinite cyclic, indices positive)", ok)


def test_c06_l_eff():
    ok = True
    for fam, rank in sweep_types(6):
        rs = build(fam, rank)
        fp, images = l_eff_quotient(rs)
        two = (fam == "A" and rank == 1) or (fam == "B" and rank >= 2) or fam == "BC"
        want = "Z2" if two else "0"
        if fp.descriptor() != want:
            ok = False
            print(f"  {fam}{rank}: {fp.descriptor()} != {want}")
            continue
        if two:
            for i in range(len(rs.roots)):
                expect = (1,) if rs.lengths[i] == SHORT else (0,)
                if images[i] != expect:
                    ok = False
                    print(f"  {fam}{rank}: image of root {i} is {images[i]}")
                    break
    report("criterion 6 (L/L_eff with root images)", ok)


# --- criterion 7: orbits --------------------------------------------------------


def test_c07_orbits_vs_bruteforce():
    t0 = time.monotonic()
    configs = orbit_configurations()
    assert len(configs) >= 12
    ok = True
    for name, ers in configs:
        if not validate(ers).ok:
            ok = False
            print(f"  {name}: invalid system")
            continue
        if not orbit_classes(ers)[1]:
            ok = False
            print(f"  {name}: closed form disagrees with closure")
    elapsed = time.monotonic() - t0
    report(
        "criterion 7 (orbit classification vs brute force)",
        ok and elapsed < 60.0,
        f"{len(configs)} configurations, {elapsed:.2f}s",
    )


# --- criterion 8: cocycle property suite ----------------------------------------


def test_c08_cocycle_suite():
    rep = suite_cocycle(seed=0, cases=10000)
    for c in rep.checks:
        print(f"  {'pass' if c.passed else 'FAIL'} {c.name} {c.witness}")
    report("criterion 8 (cocycle property suite, 5 x 10^4 cases)", rep.ok)


# --- criterion 9: presentation soundness ----------------------------------------


def test_c09_presentation_soundness():
    rng = random.Random(0)
    systems = word_test_systems()
    fails = 0
    for i in range(10000):
        _, ers = systems[i % len(systems)]
        word = conjugated_relator_product(ers, rng)
        w = evaluate_word_in_w(ers, word)
        if not w.is_identity() or not uab_of_word(ers, word).is_zero():
            fails += 1
        elif not decide_word(ers, word).trivial:
            fails += 1
    report(
        "criterion 9 (10^4 conjugated relator products trivial)",
        fails == 0,
        f"{fails} failures",
    )


# --- criterion 10: injectivity and kernel witnesses ------------------------------


def test_c10_injectivity_and_witnesses():
    rng = random.Random(1)
    ok = True
    injective_types = [("A", 2), ("A", 3), ("D", 4), ("F", 4), ("G", 2)]
    for fam, rank in injective_types:
        for n in (1, 2):
            ers = fully_extended(fam, rank, n=n)
            assert check_twist(ers).ok
            for _ in range(100):
                word = conjugated_relator_product(ers, rng)
                assert evaluate_word_in_w(ers, word).is_identity()
                if not decide_word(ers, word).trivial:
                    ok = False
                    print(f"  {fam}{rank} n={n}: trivial word decided nontrivial")
    # the obstruction machinery: words trivial in the extended Weyl
    # group but caught by the parity layer
    for name, ers in [
        ("A1 n=3", fully_extended("A", 1, n=3)),
        ("B2 n=3", span_extended("B", 2, n=3, g1=(0, 1, 2))),
    ]:
        word = build_uab_kernel_word(ers)
        if word is None:
            ok = False
            print(f"  {name}: no kernel witness found")
            continue
        d = decide_word(ers, word)
        if d.trivial or d.failing_layer != "Uab":
            ok = False
            print(f"  {name}: witness not distinguished by the parity layer")
        if not evaluate_word_in_w(ers, word).is_identity():
            ok = False
            print(f"  {name}: witness is not trivial upstairs")
    report("criterion 10 (injectivity + parity witnesses)", ok)


# --- criterion 11: properness of the abelianized terminal group ------------------


def test_c11_ab_properness():
    ok = True
    rows = [
        ("A1", [fully_extended("A", 1, n=k) for k in (1, 2, 3)]),
        (
            "B2",
            [
                span_extended("B", 2, n=2, g1=(0,)),
                span_extended("B", 2, n=3, g1=(0, 1)),
                span_extended("B", 2, n=3, g1=(0,)),
            ],
        ),
        (
            "B>=3",
            [
                span_extended("B", 3, n=2, g1=(0,)),
                span_extended("B", 3, n=3, g1=(0, 1)),
            ],
        ),
        (
            "C>=3",
            [
                span_extended("C", 3, n=2, g1=(0,)),
                span_extended("C", 3, n=3, g1=(0, 2)),
            ],
        ),
        (
            "single class",
            [
                fully_extended("A", 2, n=1),
                span_extended("G", 2, n=2, g1=(0,)),
                span_extended("F", 4, n=2, g1=(0,)),
                fully_extended("D", 4, n=2),
            ],
        ),
    ]
    for row, systems in rows:
        for ers in systems:
            if not ab_a_properness(ers):
                ok = False
                print(f"  row {row}: properness fails for {ers}")
    report("criterion 11 (abelianized terminal group proper)", ok)
