import contextlib
import copy
import gc
import io
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import extweyl
from extweyl import ext_root
from extweyl.cli import main
from extweyl.ext_root import ExtRootSystem, FreeAbelianGroup, SSet, fully_extended, span_extended
from extweyl.root_core import EXTRALONG, LONG, SHORT, FiniteRootSystem, _build_cached, k_delta
from extweyl.verify import (
    _random_weyl,
    orbit_configurations,
    suite_cocycle,
    suite_words,
    word_test_systems,
)

from extweyl.weyl import closure_letters, default_brute_modulus
from support import (
    chain_over_refined,
    chain_through_spans,
    modulus_by_basis_vectors,
    orbit_rows_by_fold,
    r1_by_fold,
    r2_by_contains,
    reflection_stability_over_refined,
    represent_again,
    slices_mod_by_walk,
    slices_mod_per_coset,
)
from test_ext_root import _broken_variants, _refined_to_k_squared, _untame_b2
from test_weyl import _d4_as_cosets

GOLDEN = pathlib.Path(__file__).parent / "golden" / "verify_small.json"
ORBITS_B2_Z8 = pathlib.Path(__file__).parent / "golden" / "orbits_b2_z8.json"
ORBITS_CONFIGURATIONS = pathlib.Path(__file__).parent / "golden" / "orbits_configurations.json"
RANDOM_WEYL = pathlib.Path(__file__).parent / "golden" / "random_weyl_seed0.json"
VERIFY_WORDS = pathlib.Path(__file__).parent / "golden" / "verify_words_small.json"
WORD_DECISIONS = pathlib.Path(__file__).parent / "golden" / "word_decisions.json"


@pytest.fixture
def b2_file(tmp_path):
    p = tmp_path / "b2.json"
    p.write_text(json.dumps(span_extended("B", 2, n=2, g1=(0,)).to_json()))
    return str(p)


@pytest.fixture
def a1_file(tmp_path):
    p = tmp_path / "a1.json"
    p.write_text(json.dumps(fully_extended("A", 1, n=1).to_json()))
    return str(p)


def test_info_text(capsys):
    assert main(["info", "A", "2"]) == 0
    out = capsys.readouterr().out
    assert "6 roots" in out


def test_info_json(capsys):
    assert main(["info", "G", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == 1
    assert data["k_delta"] == 3
    assert len(data["roots"]) == 12
    assert data["rank"] == 2


def test_info_bc_flags_divisible(capsys):
    assert main(["info", "BC", "1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["roots"]) == 4
    assert len(data["divisible_roots"]) == 2


def test_info_bad_rank(capsys):
    assert main(["info", "B", "1"]) == 2


def test_rank_above_cap_rejected_before_building(capsys, monkeypatch, tmp_path):
    big = fully_extended("A", 1, n=1).to_json()
    big["delta"]["rank"] = 1000000
    sys_p = tmp_path / "big.json"
    sys_p.write_text(json.dumps(big))
    word_p = tmp_path / "w.json"
    word_p.write_text(json.dumps([{"g": [0], "alpha": 0}]))

    def no_build(*args):
        raise AssertionError("a root system was built")

    monkeypatch.setattr(FiniteRootSystem, "__init__", no_build)
    for argv in (
        ["info", "A", "100000"],
        ["tensor-type", "A", "100000", "root,root"],
        ["orbits", str(sys_p)],
        ["word", str(sys_p), str(word_p)],
    ):
        start = time.perf_counter()
        assert main(argv) == 2, argv
        assert time.perf_counter() - start < 2, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "is above the cap of 24" in err, argv


@pytest.mark.parametrize(
    "s_sets, line",
    [
        ({}, "s_sets.sh must be an object, got NoneType"),
        ({"sh": {"H": [], "cosets": []}}, "s_sets.sh.cosets must list at least one coset"),
        ({"sh": {"H": [], "cosets": [[0]]}}, "s_sets.sh.cosets[0] must be a list of 1000000 integers"),
    ],
)
@pytest.mark.parametrize("command", ["orbits", "word"])
def test_group_rank_bounded_by_the_file(capsys, monkeypatch, tmp_path, command, s_sets, line):
    # a slice must hold a coset row of g.rank integers, so a short file
    # cannot name a large group rank; checked before the group is built
    sys_p = tmp_path / "big.json"
    sys_p.write_text(json.dumps(
        {"delta": {"family": "A", "rank": 1}, "g": {"rank": 1000000}, "s_sets": s_sets}
    ))
    word_p = tmp_path / "w.json"
    word_p.write_text(json.dumps([{"g": [0], "alpha": 0}]))

    def no_group(cls, *args, **kwargs):
        raise AssertionError("a group was built")

    monkeypatch.setattr(FreeAbelianGroup, "__new__", no_group)
    argv = ["orbits", str(sys_p)] if command == "orbits" else ["word", str(sys_p), str(word_p)]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().err == f"error: {line}\n"


def test_tensor_type(capsys):
    assert main(["tensor-type", "B", "2", "root,root", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["descriptor"] == "Z x Z2"
    assert data["box_descriptor"] == "Z"
    assert main(["tensor-type", "E", "6", "root,root"]) == 0
    assert "Z" in capsys.readouterr().out
    assert main(["tensor-type", "BC", "2", "root,coroot", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["descriptor"] == "Z x Z2"


def test_tensor_type_at_the_rank_cap(capsys):
    # two Smith forms on 576 x 576 relation matrices and 576 generator
    # images; the full-scan reduction with one projection per generator
    # took about 38 s here
    start = time.perf_counter()
    assert main(["tensor-type", "B", "24", "root,root", "--format", "json"]) == 0
    assert time.perf_counter() - start < 10
    want = {
        "box_descriptor": "Z",
        "descriptor": "Z x Z2",
        "expected": "Z x Z2",
        "generator_witness": {"basis_pair": [0, 1], "projection": [-1, 1]},
        "invariant_factors": [2, 0],
        "pair": "root,root",
        "rank": 24,
        "schema": 1,
        "type": "B24",
    }
    assert capsys.readouterr().out == json.dumps(want, sort_keys=True, indent=2) + "\n"


def test_tensor_type_bad_pair(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tensor-type", "B", "2", "root,root,root"])
    assert exc.value.code == 2


def test_orbits_command(capsys, b2_file):
    assert main(["orbits", b2_file, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["bruteforce_agrees"] is True
    assert len(data["classes"]) == 4


def test_orbits_exact_on_an_untame_system(capsys, tmp_path):
    # the short roots fall into the four cosets of 2Z^2
    p = tmp_path / "untame.json"
    p.write_text(json.dumps(_untame_b2().to_json()))
    assert main(["orbits", str(p), "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["bruteforce_agrees"] is True
    assert [(c["length_class"], c["coset"]) for c in got["classes"]] == [
        ("long", [0, 0]),
        ("short", [0, 0]),
        ("short", [0, 1]),
        ("short", [1, 0]),
        ("short", [1, 1]),
    ]


def test_orbits_detects_an_incomplete_closure(capsys, monkeypatch, b2_file):
    # the letters with d = 0 generate only the finite Weyl group: each
    # closure stays inside its class but misses part of it
    full = extweyl.weyl.closure_letters
    monkeypatch.setattr(
        "extweyl.weyl.closure_letters",
        lambda ers, m: [letter for letter in full(ers, m) if not any(letter[2])],
    )
    assert main(["orbits", b2_file, "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["bruteforce_agrees"] is False


def test_orbits_invalid_system(capsys, tmp_path):
    p = tmp_path / "bad.json"
    sys_data = span_extended("B", 2, n=1, g1=(0,)).to_json()
    sys_data["s_sets"]["lg"]["cosets"] = [[1]]  # drops 0: violates R2'
    p.write_text(json.dumps(sys_data))
    assert main(["orbits", str(p)]) == 2


def test_orbits_over_coarse_modulus_fails_fast(capsys, tmp_path):
    # 1000*Z^2 and 999*Z^2 violate k^2*G <= H; their common refinement
    # has index 999000^2 and must never be enumerated
    p = tmp_path / "coarse.json"
    sys_data = span_extended("B", 2, n=2).to_json()
    sys_data["s_sets"]["sh"]["H"] = [[1000, 0], [0, 1000]]
    sys_data["s_sets"]["lg"]["H"] = [[999, 0], [0, 999]]
    p.write_text(json.dumps(sys_data))
    start = time.perf_counter()
    assert main(["orbits", str(p)]) == 2
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "modulus constraint" in err


@pytest.mark.parametrize("n", [13, 20])
def test_orbits_quotient_index_cap(capsys, tmp_path, n):
    # a valid B2 system whose slice moduli meet in 2*Z^n: G/2G has index
    # 2^n, past MAX_QUOTIENT_INDEX = 2^12, and must never be enumerated
    p = tmp_path / "big.json"
    p.write_text(json.dumps(span_extended("B", 2, n=n, g1=tuple(range(n))).to_json()))
    start = time.perf_counter()
    assert main(["orbits", str(p)]) == 2
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert err == f"error: finite quotient of index {2 ** n} exceeds the cap 4096\n"


def _b2_over(n, tmp_path):
    p = tmp_path / f"b2-z{n}.json"
    p.write_text(json.dumps(span_extended("B", 2, n=n, g1=tuple(range(n))).to_json()))
    return str(p)


def test_orbits_at_quotient_cap_is_fast(capsys, tmp_path):
    # G/2G has index 2^12 = MAX_QUOTIENT_INDEX: 4097 orbit classes, each
    # closed under 14 letters
    path = _b2_over(12, tmp_path)
    start = time.perf_counter()
    assert main(["orbits", path, "--format", "json"]) == 0
    assert time.perf_counter() - start < 2
    data = json.loads(capsys.readouterr().out)
    assert data["bruteforce_agrees"] is True
    assert len(data["classes"]) == 4097


@pytest.mark.parametrize(
    "make",
    [
        lambda: fully_extended("D", 24, n=1),
        lambda: span_extended("B", 24, n=1, g1=(0,)),
    ],
    ids=["D24", "B24"],
)
def test_orbits_and_word_at_rank_cap_are_fast(capsys, tmp_path, make):
    # the commands read a few rows of the root tables; building the
    # tables whole took 4-9 s a command at rank 24
    ers = make()
    sys_p = tmp_path / "system.json"
    sys_p.write_text(json.dumps(ers.to_json()))
    b = ers.delta.basis[0]
    g = next(g for g in (1, 2) if ers.membership((g,), b))
    word_p = tmp_path / "word.json"
    word_p.write_text(json.dumps([{"g": [0], "alpha": b}, {"g": [g], "alpha": b}]))
    for argv, key, want in (
        (["orbits", str(sys_p), "--format", "json"], "bruteforce_agrees", True),
        (["word", str(sys_p), str(word_p), "--format", "json"], "failing_layer", "K"),
    ):
        _build_cached.cache_clear()  # each command builds its system cold
        start = time.perf_counter()
        assert main(argv) == 0, argv
        assert time.perf_counter() - start < 2, argv
        assert json.loads(capsys.readouterr().out)[key] == want, argv


def test_word_outside_the_system_at_rank_cap_exits_2_fast(capsys, tmp_path):
    ers = span_extended("B", 24, n=1, g1=(0,))
    long_root = ers.delta.lengths.index(LONG)
    assert not ers.membership((1,), long_root)
    sys_p = tmp_path / "system.json"
    sys_p.write_text(json.dumps(ers.to_json()))
    word_p = tmp_path / "word.json"
    word_p.write_text(json.dumps([{"g": [0], "alpha": 0}, {"g": [1], "alpha": long_root}]))
    _build_cached.cache_clear()
    start = time.perf_counter()
    assert main(["word", str(sys_p), str(word_p)]) == 2
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert err == f"error: word[1] (g [1], alpha {long_root}) is not an extended root\n"


def test_orbits_b2_z8_matches_golden(capsys, tmp_path):
    # generated by the all-residue closure, before closure_letters
    golden = json.loads(ORBITS_B2_Z8.read_text())
    assert main(["orbits", _b2_over(8, tmp_path), "--format", "json"]) == 0
    assert capsys.readouterr().out == json.dumps(golden, sort_keys=True, indent=2) + "\n"


def test_orbits_configurations_match_golden(capsys, tmp_path):
    # every orbit_configurations() system and its k^2 Z^n form, generated
    # before the grid check moved from cmd_orbits into weyl.orbit_classes
    golden = json.loads(ORBITS_CONFIGURATIONS.read_text())
    seen = []
    for name, ers in orbit_configurations():
        for key, system in ((name, ers), (f"{name} over k^2 Z^n", _refined_to_k_squared(ers))):
            p = tmp_path / "system.json"
            p.write_text(json.dumps(system.to_json()))
            assert main(["orbits", str(p), "--format", "json"]) == 0, key
            want = json.dumps(golden[key], sort_keys=True, indent=2) + "\n"
            assert capsys.readouterr().out == want, key
            seen.append(key)
    assert sorted(seen) == sorted(golden)


def test_orbits_output_does_not_depend_on_the_presentation(capsys, tmp_path):
    # each system, its k^2 Z^n form and three seeded re-presentations of
    # either (another basis of each H, shifted and shuffled cosets) print
    # the same bytes, and the golden where there is one
    golden = json.loads(ORBITS_CONFIGURATIONS.read_text())
    systems = orbit_configurations() + [
        ("B2 n=3", span_extended("B", 2, n=3, g1=(0,))),
        ("C3 n=3", span_extended("C", 3, n=3, g1=(0,))),
        ("A2 n=3", fully_extended("A", 2, n=3)),
    ]
    rng = random.Random(29)
    p = tmp_path / "system.json"
    checked = 0
    for name, ers in systems:
        for key, system in ((name, ers), (f"{name} over k^2 Z^n", _refined_to_k_squared(ers))):
            data = system.to_json()
            outs = set()
            for shown in [data] + [represent_again(data, rng) for _ in range(3)]:
                p.write_text(json.dumps(shown))
                assert main(["orbits", str(p), "--format", "json"]) == 0, key
                outs.add(capsys.readouterr().out)
            assert len(outs) == 1, key
            if key in golden:
                assert outs == {json.dumps(golden[key], sort_keys=True, indent=2) + "\n"}, key
                checked += 1
    assert checked == len(golden)
    # D4 over Z^12 written as all 4,096 cosets of 2*Z^12 prints what its
    # one-coset form H = Z^12 prints, within 2 s
    one = fully_extended("D", 4, n=12).to_json()
    many = copy.deepcopy(one)
    many["s_sets"]["sh"] = {
        "H": [[2 * (i == j) for j in range(12)] for i in range(12)],
        "cosets": [list(c) for c in itertools.product(range(2), repeat=12)],
    }
    outs = []
    for data in (one, many):
        p.write_text(json.dumps(data))
        start = time.perf_counter()
        assert main(["orbits", str(p), "--format", "json"]) == 0
        elapsed = time.perf_counter() - start
        outs.append(capsys.readouterr().out)
    assert elapsed < 2
    assert outs[0] == outs[1]


def _slice_reading_systems():
    """The orbit_configurations() systems, their k^2 Z^n forms, D4 over
    Z^10 and Z^12 as all cosets of 2*Z^n, and the 49 broken variants of
    the first two."""
    coarse = orbit_configurations()
    fine = [(f"{name} over k^2 Z^n", _refined_to_k_squared(ers)) for name, ers in coarse]
    broken = [
        (f"{name} broken #{i}", b)
        for name, ers in coarse + fine
        for i, b in enumerate(_broken_variants(ers))
    ]
    assert len(broken) == 49
    d4 = [(f"D4 over Z^{n} as cosets", _d4_as_cosets(n)) for n in (10, 12)]
    return coarse + fine + d4 + broken


def test_lattice_slices_read_through_their_span_match_the_coset_oracles(
    capsys, monkeypatch, tmp_path
):
    # a slice that is the lattice it spans is read as the coset 0 over its
    # span: the mod-m pass, the closure letters, R3' and the chains equal
    # the coset-by-coset oracles, and orbits prints the same bytes with
    # the same exit code, witnesses included, as with the oracles
    p = tmp_path / "system.json"
    exits = []
    for name, ers in _slice_reading_systems():
        data = ers.to_json()
        fresh, oracle = ExtRootSystem.from_json(data), ExtRootSystem.from_json(data)
        m = default_brute_modulus(fresh)
        assert fresh.slices_mod(m) == slices_mod_per_coset(oracle, m), name
        assert ext_root._reflection_stability(fresh) == reflection_stability_over_refined(
            oracle
        ), name
        if not fresh.delta.rs_type.is_single_length():
            k = k_delta(fresh.delta.rs_type)
            chains = ((SHORT, LONG, k), (LONG, EXTRALONG, k), (SHORT, EXTRALONG, k * k))
            for lower, upper, mult in chains:
                if lower in fresh.s_sets and upper in fresh.s_sets:
                    got = ext_root._chain_holds(fresh, lower, upper, mult)
                    assert got == chain_over_refined(oracle, lower, upper, mult), (name, lower)
        p.write_text(json.dumps(data))
        runs = []
        for coset_reading in (False, True):
            with monkeypatch.context() as patched:
                if coset_reading:
                    r3 = reflection_stability_over_refined
                    patched.setattr(ExtRootSystem, "slices_mod", slices_mod_per_coset)
                    patched.setattr(ext_root, "_reflection_stability", r3)
                    patched.setattr(ext_root, "_chain_holds", chain_over_refined)
                runs.append(closure_letters(ExtRootSystem.from_json(data), m))
                runs.append((main(["orbits", str(p), "--format", "json"]), *capsys.readouterr()))
        assert runs[:2] == runs[2:], name
        exits.append(runs[1][0])
    assert exits.count(2) == 40 and exits.count(0) == len(exits) - 40


def _reshaped_systems():
    """Per orbit_configurations() system: every slice with its first
    coordinate doubled, so no span is Z^n and R1' fails; that with the
    short slice moved off 0 (R2' fails on a slice that is no lattice);
    and, with two lengths, the short and long slices swapped, so a slice
    of index 2 must reject a translation in R3' and the chains, and the
    long slice with its first coordinate times k^2, so k*S_sh leaves it."""

    def stretched(s, f):
        return SSet(*([(f * v[0], *v[1:]) for v in part] for part in (s.h_basis, s.cosets)))

    out = []
    for name, ers in orbit_configurations():
        doubled = {c: stretched(s, 2) for c, s in ers.s_sets.items()}
        sh = doubled[SHORT]
        moved = SSet(sh.h_basis, [(c[0] + 1, *c[1:]) for c in sh.cosets])
        out.append((f"{name} doubled", ExtRootSystem(ers.delta, ers.group, doubled)))
        out.append((f"{name} doubled and moved", ExtRootSystem(
            ers.delta, ers.group, {**doubled, SHORT: moved}
        )))
        if LONG in ers.s_sets:
            s_sets = ers.s_sets
            swapped = {**s_sets, SHORT: s_sets[LONG], LONG: s_sets[SHORT]}
            kk = k_delta(ers.delta.rs_type) ** 2
            thinned = {**s_sets, LONG: stretched(s_sets[LONG], kk)}
            out.append((f"{name} swapped", ExtRootSystem(ers.delta, ers.group, swapped)))
            out.append((f"{name} long thinned", ExtRootSystem(ers.delta, ers.group, thinned)))
    return out


def test_span_shortcuts_match_the_fold_and_contains_oracles(monkeypatch):
    # R1' with no fold when a span is Z^n, R2' true for a lattice slice,
    # the batched modulus check, R3' asked of each slice by SSet.keeps
    # (a slice that is Z^n keeping everything) against the coset scan
    # over H*, the chains with a slice that is Z^n containing everything,
    # orbit_rows with no fold and slices_mod with no walk when a span is
    # Z^n: each equals the computation it replaced, witnesses included
    failing = set()
    for name, ers in _slice_reading_systems() + _reshaped_systems():
        data = ers.to_json()
        fresh, oracle = ExtRootSystem.from_json(data), ExtRootSystem.from_json(data)
        checks = ext_root.validate(fresh).checks
        with monkeypatch.context() as patched:
            patched.setattr(ext_root, "_reflection_stability", reflection_stability_over_refined)
            patched.setattr(ext_root, "_chain_holds", chain_through_spans)
            assert checks == ext_root.validate(oracle).checks, name
        got = {c.name: (c.passed, c.witness) for c in checks}
        assert got["R1' (slices generate G)"] == r1_by_fold(oracle), name
        for cls, ok in r2_by_contains(oracle).items():
            assert got[f"R2' (0 in S_{cls})"] == (ok, "" if ok else f"0 not in S_{cls}"), name
        for cls, ok in modulus_by_basis_vectors(oracle).items():
            assert got[f"modulus constraint k^2*G <= H ({cls})"][0] == ok, name
        failing |= {c.name.split(" ")[0] for c in checks if not c.passed}
        assert fresh.orbit_rows == orbit_rows_by_fold(oracle), name
        m = default_brute_modulus(fresh)
        assert fresh.slices_mod(m) == slices_mod_by_walk(oracle, m), name
    # every shortcut is met by a system on which its check fails
    assert {"R1'", "R2'", "R3'", "chain", "modulus"} <= failing


def test_orbits_builds_the_common_refinement_only_for_a_coset_scan(
    capsys, monkeypatch, tmp_path
):
    # an orbits call on a valid system never builds ExtRootSystem.refined:
    # R3' asks each slice SSet.keeps and the chains SSet.includes, over its
    # own modulus, even where the slice is a proper union of cosets (the A1
    # semilattice, and the twisted trimmed BC2 in both forms)
    loaded = []
    real = ExtRootSystem.load
    def load(path):
        loaded.append(real(path))
        return loaded[-1]

    monkeypatch.setattr(ExtRootSystem, "load", staticmethod(load))
    p = tmp_path / "system.json"
    for name, ers in orbit_configurations():
        for system in (ers, _refined_to_k_squared(ers)):
            p.write_text(json.dumps(system.to_json()))
            assert main(["orbits", str(p), "--format", "json"]) == 0, name
            capsys.readouterr()
            assert "refined" not in loaded[-1].__dict__, name


def test_orbits_reads_lattice_slices_past_the_cap_of_their_refinement(capsys, tmp_path):
    # G2 over Z^4 with S_lg = 3G written as its 81 cosets of 9*Z^4: the
    # common refinement 9*Z^4 has index 6561, past the cap, but both
    # slices are lattices, so orbits never builds it and prints what the
    # one-coset form prints
    one = span_extended("G", 2, n=4, g1=tuple(range(4))).to_json()
    many = copy.deepcopy(one)
    many["s_sets"]["lg"] = {
        "H": [[9 * (i == j) for j in range(4)] for i in range(4)],
        "cosets": [[3 * x for x in c] for c in itertools.product(range(3), repeat=4)],
    }
    p = tmp_path / "system.json"
    outs = []
    for data in (one, many):
        p.write_text(json.dumps(data))
        assert main(["orbits", str(p), "--format", "json"]) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1]


def test_schema_other_than_one_rejected(capsys, tmp_path, a1_file):
    data = fully_extended("A", 1, n=1).to_json()
    w = tmp_path / "w.json"
    w.write_text(json.dumps([{"g": [0], "alpha": 0}]))
    for schema, rc in ((2, 2), ("1", 2), (None, 0)):
        p = tmp_path / f"s{schema}.json"
        if schema is None:
            data.pop("schema")
        else:
            data["schema"] = schema
        p.write_text(json.dumps(data))
        for argv in (["orbits", str(p)], ["word", str(p), str(w)]):
            assert main(argv) == rc, (schema, argv)
            err = capsys.readouterr().err
            assert err.count("\n") == (rc == 2) and ("schema" in err) == (rc == 2)


def test_orbits_untrimmed_bc_system(capsys, tmp_path):
    p = tmp_path / "bc1.json"
    p.write_text(json.dumps(fully_extended("BC", 1, n=1).to_json()))
    assert main(["orbits", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "trim first" in err


def test_word_invalid_system(capsys, tmp_path):
    p = tmp_path / "bad.json"
    sys_data = span_extended("B", 2, n=1, g1=(0,)).to_json()
    sys_data["s_sets"]["lg"]["cosets"] = [[1]]  # drops 0: violates R2'
    p.write_text(json.dumps(sys_data))
    w = tmp_path / "w.json"
    w.write_text(json.dumps([{"g": [0], "alpha": 0}]))
    assert main(["word", str(p), str(w)]) == 2
    err = capsys.readouterr().err
    assert err == "error: system invalid: R2' (0 in S_long) 0 not in S_long\n"


def test_failing_r1_names_the_index_of_the_slices_span(capsys, tmp_path):
    # A1 over Z^3 with S = 2Z x 2Z x Z: the one slice spans a sublattice
    # of index 4, and orbits and word each print one line naming it
    p = tmp_path / "bad.json"
    sys_data = fully_extended("A", 1, n=3).to_json()
    sys_data["s_sets"]["sh"] = {"H": [[2, 0, 0], [0, 2, 0], [0, 0, 1]], "cosets": [[0, 0, 0]]}
    p.write_text(json.dumps(sys_data))
    w = tmp_path / "w.json"
    w.write_text(json.dumps([{"g": [0, 0, 0], "alpha": 0}]))
    for argv in (["orbits", str(p)], ["word", str(p), str(w)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: system invalid: R1' (slices generate G) span index 4\n", argv


def test_word_alpha_out_of_range(capsys, a1_file, tmp_path):
    for alpha in (-1, 2):
        w = tmp_path / f"w{alpha}.json"
        w.write_text(json.dumps([{"g": [0], "alpha": alpha}]))
        assert main(["word", a1_file, str(w)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "alpha" in err


def test_word_trivial_and_nontrivial(capsys, a1_file, tmp_path):
    w = tmp_path / "w.json"
    w.write_text(json.dumps({"schema": 1, "word": [
        {"g": [0], "alpha": 0}, {"g": [0], "alpha": 0}]}))
    assert main(["word", a1_file, str(w), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["trivial"] is True and data["failing_layer"] is None

    w2 = tmp_path / "w2.json"
    w2.write_text(json.dumps([
        {"g": [0], "alpha": 0}, {"g": [1], "alpha": 0},
        {"g": [0], "alpha": 0}, {"g": [1], "alpha": 0}]))
    assert main(["word", a1_file, str(w2), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["trivial"] is False and data["failing_layer"] == "K"


def test_word_malformed(capsys, a1_file, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["word", a1_file, str(bad)]) == 2
    badw = tmp_path / "badw.json"
    badw.write_text(json.dumps([{"g": [0, 0], "alpha": 0}]))  # wrong rank
    assert main(["word", a1_file, str(badw)]) == 2


@pytest.mark.parametrize("command", ["orbits", "word"])
@pytest.mark.parametrize(
    "text, line",
    [
        ("[1,2]", "the system must be an object, got list"),
        ('"x"', "the system must be an object, got str"),
        ('{"delta": 5, "g": {"rank": 1}, "s_sets": {}}', "delta must be an object, got int"),
    ],
    ids=["[1,2]", '"x"', '{"delta": 5, "g": {"rank": 1}, "s_sets": {}}'],
)
def test_malformed_system_file_exits_2(capsys, tmp_path, command, text, line):
    p = tmp_path / "system.json"
    p.write_text(text)
    w = tmp_path / "w.json"
    w.write_text(json.dumps([{"g": [0], "alpha": 0}]))
    argv = ["orbits", str(p)] if command == "orbits" else ["word", str(p), str(w)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {line}\n"


_A1_Z2_SLICE = {"H": [[1, 0], [0, 1]], "cosets": [[0, 0]]}


@pytest.mark.parametrize("command", ["orbits", "word"])
@pytest.mark.parametrize(
    "s_sets, path",
    [
        ([_A1_Z2_SLICE], "s_sets must be an object"),
        ("sh", "s_sets must be an object"),
        (None, "s_sets must be an object"),
        ({"sh": {**_A1_Z2_SLICE, "cosets": [[0]]}}, "s_sets.sh.cosets[0] "),
        ({"sh": {**_A1_Z2_SLICE, "cosets": [[0, 0], [0, 0, 0]]}}, "s_sets.sh.cosets[1] "),
        ({"sh": {**_A1_Z2_SLICE, "H": [[1, 0], [1]]}}, "s_sets.sh.H[1] "),
        ({"sh": {**_A1_Z2_SLICE, "H": [[1, 0], [0, "1"]]}}, "s_sets.sh.H[1] "),
        ({"sh": [_A1_Z2_SLICE]}, "s_sets.sh must be an object"),
        ({"sh": {"H": [[1, 0], [0, 1]]}}, "s_sets.sh.cosets must be a list"),
        ({"xx": _A1_Z2_SLICE}, "s_sets.xx: unknown length class"),
        ({"sh": {**_A1_Z2_SLICE, "H": [[0, 0]]}}, "s_sets.sh.H must span"),
        ({"sh": {**_A1_Z2_SLICE, "H": []}}, "s_sets.sh.H must span"),
        ({"sh": {**_A1_Z2_SLICE, "H": [[1, 0], [1, 0]]}}, "s_sets.sh.H must span"),
    ],
)
def test_malformed_slices_exit_2(capsys, tmp_path, command, s_sets, path):
    data = fully_extended("A", 1, n=2).to_json()
    data["s_sets"] = s_sets
    p = tmp_path / "system.json"
    p.write_text(json.dumps(data))
    w = tmp_path / "w.json"
    w.write_text(json.dumps([{"g": [0, 0], "alpha": 0}]))
    argv = ["orbits", str(p)] if command == "orbits" else ["word", str(p), str(w)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and path in err and "Traceback" not in err


@pytest.mark.parametrize("row", [[1, True], [1.0, 0], [1], "x"], ids=["bool", "float", "short", "str"])
@pytest.mark.parametrize("part, index", [("cosets", 40), ("H", 2)])
def test_malformed_row_deep_in_a_64_coset_slice_exits_2(capsys, tmp_path, part, index, row):
    # one bad row among all 64 cosets of 8*Z^2, or after the two rows of
    # H: a one-line message that names that row and no other
    data = fully_extended("A", 1, n=2).to_json()
    rows = {"H": [[8, 0], [0, 8]], "cosets": [list(c) for c in itertools.product(range(8), repeat=2)]}
    rows[part][index:index + 1] = [row]
    data["s_sets"] = {"sh": rows}
    p = tmp_path / "system.json"
    p.write_text(json.dumps(data))
    assert main(["orbits", str(p)]) == 2
    assert capsys.readouterr() == ("", f"error: s_sets.sh.{part}[{index}] must be a list of 2 integers\n")


@pytest.mark.parametrize("command", ["orbits", "word"])
def test_rank_0_group_runs(capsys, tmp_path, command):
    # an empty H is the full-rank modulus of Z^0
    data = fully_extended("A", 1, n=2).to_json()
    data["g"] = {"rank": 0}
    data["s_sets"] = {"sh": {"H": [], "cosets": [[]]}}
    p = tmp_path / "system.json"
    p.write_text(json.dumps(data))
    w = tmp_path / "w.json"
    w.write_text(json.dumps([{"g": [], "alpha": 0}]))
    argv = ["orbits", str(p)] if command == "orbits" else ["word", str(p), str(w)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_rank_0_twisted_group_decides_words(capsys, tmp_path):
    # two root lengths: the decider runs the twist check over Z^0
    data = fully_extended("B", 2, n=2).to_json()
    data["g"] = {"rank": 0}
    data["s_sets"] = {k: {"H": [], "cosets": [[]]} for k in ("sh", "lg")}
    p = tmp_path / "system.json"
    p.write_text(json.dumps(data))
    w = tmp_path / "w.json"
    w.write_text(json.dumps([{"g": [], "alpha": 0}, {"g": [], "alpha": 0}]))
    assert main(["word", str(p), str(w), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["trivial"] is True


@pytest.mark.parametrize("command", ["orbits", "word"])
@pytest.mark.parametrize(
    "field, value, message",
    [
        ("delta", [], "delta must be an object, got list"),
        ("delta", {"family": "A", "rank": 1.0}, "rank must be an integer, got 1.0"),
        ("delta", {"family": "A", "rank": True}, "rank must be an integer, got True"),
        ("g", "Z2", "g must be an object, got str"),
        ("g", {"rank": 2, "g1": [0.0], "g2": [1]}, "g1 must list integer basis indices"),
        ("g", {"rank": 2, "g2": [0.0, 1]}, "g2 must list integer basis indices"),
        ("g", {"rank": 2, "g1": {}}, "g.g1 must be a list, got dict"),
        ("g", {"rank": 2, "g2": 1}, "g.g2 must be a list, got int"),
    ],
)
def test_malformed_delta_or_g_exits_2(capsys, tmp_path, command, field, value, message):
    data = fully_extended("A", 1, n=2).to_json()
    data[field] = value
    p = tmp_path / "system.json"
    p.write_text(json.dumps(data))
    w = tmp_path / "w.json"
    w.write_text(json.dumps([{"g": [0, 0], "alpha": 0}]))
    argv = ["orbits", str(p)] if command == "orbits" else ["word", str(p), str(w)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err
    assert "Traceback" not in captured.err


def _a1_word_run(capsys, tmp_path, word):
    sys_p = tmp_path / "a1.json"
    sys_p.write_text(json.dumps(fully_extended("A", 1, n=1).to_json()))
    word_p = tmp_path / "w.json"
    word_p.write_text(json.dumps(word))
    rc = main(["word", str(sys_p), str(word_p)])
    captured = capsys.readouterr()
    assert captured.out == ""
    return rc, captured.err


@pytest.mark.parametrize(
    "word, line",
    [
        ([{"g": [0], "alpha": 0.5}], "word[0].alpha must be an integer, got 0.5"),
        ([{"g": [0], "alpha": True}], "word[0].alpha must be a root index in 0..1, got True"),
        ([{"g": [0], "alpha": "0"}], "word[0].alpha must be an integer, got str"),
        ([{"g": [0], "alpha": 0}, {"g": [0.0], "alpha": 0}], "word[1].g must be a list of 1 integers"),
        ([{"g": [True], "alpha": 0}], "word[0].g must be a list of 1 integers"),
        ({"word": {"g": [0]}}, "word must be a list, got dict"),
        ({"letters": []}, "word must be a list, got NoneType"),
        ("word", "word must be a list, got str"),
        ([{"g": [1, 5], "alpha": 0}], "word[0].g must be a list of 1 integers"),
        ([{"g": [], "alpha": 0}], "word[0].g must be a list of 1 integers"),
        ([{"g": [0]}], "word[0].alpha must be an integer, got NoneType"),
        ([{"alpha": 0}], "word[0].g must be a list of 1 integers"),
        ([{"g": [0], "alpha": 0}, [0, 0]], "word[1] must be an object, got list"),
    ],
)
def test_malformed_word_exits_2_naming_the_field(capsys, tmp_path, word, line):
    assert _a1_word_run(capsys, tmp_path, word) == (2, f"error: {line}\n")


def test_word_letter_outside_the_system_exits_2(capsys, tmp_path):
    data = span_extended("B", 2, n=1, g1=(0,)).to_json()  # S_long = 2Z
    sys_p = tmp_path / "b2.json"
    sys_p.write_text(json.dumps(data))
    ers = ExtRootSystem.from_json(data)
    alpha = ers.delta.lengths.index("long")
    word_p = tmp_path / "w.json"
    word_p.write_text(json.dumps([{"g": [0], "alpha": alpha}, {"g": [1], "alpha": alpha}]))
    assert main(["word", str(sys_p), str(word_p)]) == 2
    assert capsys.readouterr().err == (
        f"error: word[1] (g [1], alpha {alpha}) is not an extended root\n"
    )


@pytest.mark.parametrize(
    "path, line",
    [
        (("delta",), "delta must be an object, got NoneType"),
        (("delta", "family"), "delta.family must be a string, got NoneType"),
        (("delta", "rank"), "delta.rank must be an integer, got NoneType"),
        (("g",), "g must be an object, got NoneType"),
        (("g", "rank"), "g.rank must be an integer, got NoneType"),
        (("s_sets",), "s_sets must be an object, got NoneType"),
        (("s_sets", "sh", "H"), "s_sets.sh.H must be a list, got NoneType"),
        (("s_sets", "sh", "cosets"), "s_sets.sh.cosets must be a list, got NoneType"),
    ],
)
@pytest.mark.parametrize("command", ["orbits", "word"])
def test_missing_system_key_exits_2_naming_it(capsys, tmp_path, command, path, line):
    data = fully_extended("A", 1, n=1).to_json()
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    sys_p = tmp_path / "system.json"
    sys_p.write_text(json.dumps(data))
    word_p = tmp_path / "w.json"
    word_p.write_text(json.dumps([{"g": [0], "alpha": 0}]))
    argv = ["orbits", str(sys_p)] if command == "orbits" else ["word", str(sys_p), str(word_p)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {line}\n"


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe{}", "codec can't decode byte 0xff in position 0"),
        (b"{not json", "Expecting property name enclosed in double quotes"),
        (b"[" + b"1" * 5000 + b"]", "Exceeds the limit (4300 digits)"),
        (b"[" * 100000 + b"]" * 100000, "maximum recursion depth exceeded"),
    ],
    ids=["not-utf8", "not-json", "long-integer", "deep-nesting"],
)
@pytest.mark.parametrize("which", ["system", "word"])
def test_unreadable_json_exits_2_naming_the_file(capsys, tmp_path, which, content, message):
    files = {"system": tmp_path / "system.json", "word": tmp_path / "w.json"}
    files["system"].write_text(json.dumps(fully_extended("A", 1, n=1).to_json()))
    files["word"].write_text(json.dumps([{"g": [0], "alpha": 0}]))
    files[which].write_bytes(content)
    assert main(["word", str(files["system"]), str(files["word"])]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {files[which]}: ") and message in err


@pytest.mark.parametrize("which", ["system", "word"])
def test_directory_path_exits_2(capsys, a1_file, tmp_path, which):
    argv = ["word", str(tmp_path), a1_file] if which == "system" else ["word", a1_file, str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_errors_outside_the_input_contract_propagate(monkeypatch, a1_file):
    # main maps only the package's typed errors and file errors to exit 2;
    # a builtin error from inside the program is a fault and must surface
    def broken(data):
        raise KeyError("delta")

    monkeypatch.setattr(ExtRootSystem, "from_json", staticmethod(broken))
    with pytest.raises(KeyError):
        main(["orbits", a1_file])


# Systems and words that the fuzz test mutates: A1 over Z, B2 over Z^2 with a
# split group, C3 over Z^2; each word is a valid product of letters.
_FUZZ_CASES = [
    (fully_extended("A", 1, n=1), [{"g": [0], "alpha": 0}, {"g": [1], "alpha": 1}]),
    (span_extended("B", 2, n=2, g1=(0,)), [{"g": [0, 1], "alpha": 0}, {"g": [2, 0], "alpha": 3}]),
    (span_extended("C", 3, n=2, g1=(0,)), [{"g": [1, 0], "alpha": 1}, {"g": [2, 0], "alpha": 5}]),
]
# replacement values: small, so that no mutated input allocates without bound
_FUZZ_VALUES = st.one_of(
    st.integers(-3, 8),
    st.sampled_from([0.5, 1.0, True, False, None, "", "sh", "A", [], {}, [0], [[0]], [1, 0]]),
)


def _mutate(data, draw):
    """data with one to three JSON nodes deleted, replaced or duplicated."""
    data = copy.deepcopy(data)
    for _ in range(draw(st.integers(1, 3))):
        nodes = []
        stack = [(None, None, data)]
        while stack:
            parent, key, node = stack.pop()
            nodes.append((parent, key))
            if isinstance(node, dict):
                stack.extend((node, k, v) for k, v in node.items())
            elif isinstance(node, list):
                stack.extend((node, i, v) for i, v in enumerate(node))
        parent, key = draw(st.sampled_from(nodes))
        if parent is None:
            data = copy.deepcopy(draw(_FUZZ_VALUES))
            continue
        op = draw(st.sampled_from(["delete", "replace", "duplicate"]))
        if op == "delete":
            del parent[key]
        elif op == "replace":
            parent[key] = copy.deepcopy(draw(_FUZZ_VALUES))
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
    return data


@settings(max_examples=150, deadline=5000)
@given(st.data())
def test_mutated_inputs_exit_0_1_or_2_in_one_line(tmp_path_factory, data):
    ers, word = data.draw(st.sampled_from(_FUZZ_CASES))
    system = ers.to_json()
    target = data.draw(st.sampled_from(["system", "word", "both"]))
    if target != "word":
        system = _mutate(system, data.draw)
    if target != "system":
        word = _mutate(word, data.draw)
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "system.json").write_text(json.dumps(system))
    (tmp / "w.json").write_text(json.dumps(word))
    command = data.draw(st.sampled_from(["orbits", "word"]))
    argv = [command, str(tmp / "system.json")] + ([str(tmp / "w.json")] if command == "word" else [])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)  # any exception escaping main fails the test
    # 1 means a genuine mismatch; orbits is exact on every valid system
    assert rc in ((0, 2) if command == "orbits" else (0, 1, 2))
    if rc == 2:
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")


def test_boolean_group_rank_exits_2(capsys, tmp_path):
    data = fully_extended("A", 1, n=1).to_json()
    data["g"]["rank"] = True
    p = tmp_path / "system.json"
    p.write_text(json.dumps(data))
    assert main(["orbits", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "rank must be a nonnegative integer" in err


def test_verify_words_small_matches_golden():
    # generated while the relator loop still evaluated each word three
    # times; the harness counts after that loop pin its random draws
    rep = suite_words(seed=0, cases=200)
    got = {
        "cases": [{"name": c.name, "ok": c.passed, "detail": c.witness} for c in rep.checks],
        "reports": rep.reports,
    }
    assert got == json.loads(VERIFY_WORDS.read_text())


def test_verify_small_matches_golden(capsys):
    # the suites that run through Weyl elements, reflection matrices and
    # coxeter_evaluate, pinned so that reworking those paths cannot move them
    golden = json.loads(GOLDEN.read_text())
    for suite in ("tables", "tensor", "orbits"):
        assert main(["verify", suite, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == golden[f"verify {suite}"]
    cases = [
        {"name": c.name, "ok": c.passed, "detail": c.witness}
        for c in suite_cocycle(seed=0, cases=200).checks
    ]
    assert cases == golden["suite_cocycle(seed=0, cases=200)"]


def test_failing_suite_names_its_first_witness(capsys, monkeypatch):
    # with every closure disagreeing, every orbits case fails: the text
    # ends on the first failed case and the replay command, exit 1
    monkeypatch.setattr("extweyl.verify.orbit_classes", lambda ers: ({}, False))
    assert main(["verify", "orbits", "--seed", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    first = "orbits A1 n=1 full"
    assert lines[:3] == ["seed 3", "[orbits] FAIL", f"  FAIL {first} (valid=True agree=False)"]
    assert lines[-2:] == [
        f"  first witness: {first}: valid=True agree=False",
        "  replay: extweyl verify orbits --seed 3",
    ]
    assert main(["verify", "orbits", "--format", "json"]) == 1
    suite = json.loads(capsys.readouterr().out)["suites"][0]
    assert suite["ok"] is False
    assert suite["cases"][0] == {"name": first, "ok": False, "detail": "valid=True agree=False"}


def test_random_weyl_draws_match_golden():
    # every suite_cocycle case reads "0 failures" whatever it draws, so the
    # golden above cannot see the draw order; pin the draws themselves
    systems = [
        span_extended("B", 2, n=2, g1=(0,)),
        fully_extended("D", 4, n=2),
        span_extended("G", 2, n=2, g1=(0,)),
    ]
    golden = json.loads(RANDOM_WEYL.read_text())
    rng = random.Random(0)
    got = [[list(row) for row in _random_weyl(systems[i % 3], rng).matrix] for i in range(30)]
    assert got == golden["matrices"]
    assert rng.random() == golden["next_random"]


def test_verify_tables(capsys):
    assert main(["verify", "tables"]) == 0
    out = capsys.readouterr().out
    assert "[tables] PASS" in out
    assert "reference mismatch" in out  # the pinned cells are reported


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nope"]) == 2


def test_verify_json_deterministic(capsys):
    assert main(["verify", "orbits", "--seed", "0", "--format", "json"]) == 0
    out1 = capsys.readouterr().out
    assert main(["verify", "orbits", "--seed", "0", "--format", "json"]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    data = json.loads(out1)
    assert data["schema"] == 1 and data["seed"] == 0


def test_out_flag(tmp_path, capsys):
    dest = tmp_path / "out.json"
    assert main(["tensor-type", "G", "2", "root,root", "--format", "json", "--out", str(dest)]) == 0
    data = json.loads(dest.read_text())
    assert data["type"] == "G2"
    assert data["generator_witness"] is not None


def test_word_uab_kernel_witness(capsys, tmp_path):
    from extweyl.weyl import build_uab_kernel_word

    ers = fully_extended("A", 1, n=3)
    word = build_uab_kernel_word(ers)
    assert word is not None
    sys_p = tmp_path / "a1n3.json"
    sys_p.write_text(json.dumps(ers.to_json()))
    word_p = tmp_path / "kernel.json"
    word_p.write_text(
        json.dumps({"schema": 1, "word": [{"g": list(t.g), "alpha": t.root} for t in word]})
    )
    # the decision is output, not a failure: exit 0
    assert main(["word", str(sys_p), str(word_p), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["trivial"] is False
    assert data["failing_layer"] == "Uab"


def test_word_decisions_match_golden(capsys, tmp_path):
    # the systems of the `words` benchmark; per system: three random words
    # rejected at V, a relator product, two letters on one root (K), a
    # translation commutator (Z) where H has two rows, and the kernel
    # witnesses over Z^3 (Uab); the stdout was recorded while V was still
    # read off the evaluated matrix
    cases = json.loads(WORD_DECISIONS.read_text())["cases"]
    systems = dict(
        word_test_systems()
        + [
            ("A1 n=3", fully_extended("A", 1, n=3)),
            ("B2 n=3", span_extended("B", 2, n=3, g1=(0, 1, 2))),
        ]
    )
    assert sorted({c["system"] for c in cases}) == sorted(systems)
    sys_p, word_p = tmp_path / "system.json", tmp_path / "word.json"
    for case in cases:
        sys_p.write_text(json.dumps(systems[case["system"]].to_json()))
        word_p.write_text(json.dumps([{"g": g, "alpha": a} for a, g in case["word"]]))
        assert main(["word", str(sys_p), str(word_p), "--format", "json"]) == 0
        assert capsys.readouterr().out == case["stdout"], (case["system"], case["kind"])


def test_bad_cap_rank_rejected(capsys):
    for cap in ("-1", "0", "25"):
        assert main(["verify", "tables", "--cap-rank", cap]) == 2
        assert capsys.readouterr().err == "error: rank cap must be between 1 and 24\n"


def _fresh_process(argv):
    src = os.path.dirname(os.path.dirname(extweyl.__file__))
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    proc = subprocess.run(
        [sys.executable, "-m", "extweyl", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _closed_stdout_process(argv):
    """Exit code and stderr of a fresh run whose stdout reader is gone
    before the run writes anything."""
    src = os.path.dirname(os.path.dirname(extweyl.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "extweyl", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=120), err


@pytest.mark.parametrize("command", ["info", "orbits"])
def test_closed_stdout_keeps_the_exit_code(b2_file, command):
    # like `| head -1`: a closed stdout is neither an input error nor a
    # traceback, and the interpreter's last flush stays quiet
    argv = {
        "info": ["info", "B", "24", "--format", "json"],
        "orbits": ["orbits", b2_file, "--format", "json"],
    }[command]
    assert _closed_stdout_process(argv) == (0, b"")


def test_closed_stdout_keeps_a_mismatch_exit(monkeypatch, b2_file, capsys):
    # the handler's own code survives the closed pipe, here 1 from an
    # incomplete closure; stdout then points at os.devnull
    full = extweyl.weyl.closure_letters
    monkeypatch.setattr(
        "extweyl.weyl.closure_letters",
        lambda ers, m: [letter for letter in full(ers, m) if not any(letter[2])],
    )
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "w") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        assert main(["orbits", b2_file, "--format", "json"]) == 1
        print("after the run", file=closed, flush=True)
        monkeypatch.undo()
    assert capsys.readouterr().err == ""


def test_unwritable_out_path_exits_2(capsys, b2_file, tmp_path):
    dest = tmp_path / "missing" / "out.json"
    assert main(["orbits", b2_file, "--format", "json", "--out", str(dest)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: [Errno 2] No such file or directory")


def test_parser_reuse_matches_fresh_processes(capsys, monkeypatch, b2_file):
    # usage lines wrap at the terminal width; pin it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["verify", "tables", "--seed", "5", "--format", "json"],
        ["verify", "tables", "--format", "json"],  # seed back to 0
        ["verify", "tables", "--cap-rank", "-1"],
        ["verify", "tables"],
        ["orbits", b2_file, "--format", "json"],
        ["tensor-type", "B", "2", "root,root", "--seed", "3"],
        ["tensor-type", "B", "2", "nope"],
        ["--format", "json", "info", "G", "2"],
        ["info", "A", "2"],
    ]
    for argv in calls:
        assert _in_process(argv, capsys) == _fresh_process(argv), argv


def test_orbits_leaves_little_cyclic_garbage(capsys, b2_file):
    argv = ["orbits", b2_file, "--format", "json"]
    assert main(argv) == 0  # builds the parser and the root tables
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            assert main(argv) == 0
        garbage = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    assert garbage <= 1000
