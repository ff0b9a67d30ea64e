"""Command-line interface.

Subcommands: info, tensor-type, orbits, word, verify.  Exit codes:
0 the command ran to completion, 1 a verification found a mismatch,
2 a usage or input error.  A reader that closes stdout early ends the
output, not the run: the exit code stays the command's own.  All JSON
output carries "schema": 1 and is byte-stable for a fixed input and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from extweyl.ext_root import ExtRootError, ExtRootSystem, read_json, validate
from extweyl.intlinalg import QuotientTooLarge
from extweyl.lattice_algebra import (
    _unit_combination,
    box_quotient,
    coinvariants,
    expected_tensor_descriptor,
)
from extweyl.refl_groups import word_from_json
from extweyl.root_core import MAX_RANK, RootSystemError, build, k_delta
from extweyl.verify import SUITES, run_suites
from extweyl.weyl import decide_word, default_brute_modulus, orbit_classes

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

# what a run raises on an unreadable or malformed input, each exit 2 in
# one line; anything else is a fault of the program and propagates
INPUT_ERRORS = (OSError, ExtRootError, RootSystemError, QuotientTooLarge)

PAIRS = {
    "root,root": ("root", "root"),
    "root,coroot": ("root", "coroot"),
    "coroot,coroot": ("coroot", "coroot"),
}


def _emit(payload: dict, text_lines: list[str], fmt: str, out_path: str | None):
    if fmt == "json":
        blob = json.dumps(payload, sort_keys=True, indent=2)
    else:
        blob = "\n".join(text_lines)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(blob + "\n")
        return
    try:
        print(blob)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): the output ends there
        # and the run keeps its exit code; stdout goes to os.devnull so the
        # interpreter's final flush does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_info(args) -> int:
    rs = build(args.family, args.rank)
    counts = {}
    for cls in rs.lengths:
        counts[cls] = counts.get(cls, 0) + 1
    payload = {
        "schema": 1,
        "type": rs.rs_type.family,
        "rank": rs.rank,
        "roots": [list(r) for r in rs.roots],
        "coroots": [list(c) for c in rs.coroots],
        "basis": list(rs.basis),
        "lengths": list(rs.lengths),
        "counts": counts,
        "cartan": [list(r) for r in rs.cartan],
        "divisible_roots": list(rs.divisible_root_indices()),
    }
    lines = [
        f"type {rs.rs_type}: {len(rs.roots)} roots",
        "counts: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())),
        "cartan: " + "; ".join(" ".join(f"{x:3d}" for x in r) for r in rs.cartan),
    ]
    if not rs.rs_type.is_single_length():
        payload["k_delta"] = k_delta(rs.rs_type)
        lines.append(f"lacing number k = {k_delta(rs.rs_type)}")
    if rs.divisible_root_indices():
        lines.append(
            f"divisible roots (doubled short): {len(rs.divisible_root_indices())}"
        )
    _emit(payload, lines, args.format, args.out)
    return EXIT_OK


def cmd_tensor_type(args) -> int:
    rs = build(args.family, args.rank)
    left, right = PAIRS[args.pair]
    fp = coinvariants(rs, left, right)
    got = fp.descriptor()
    want = expected_tensor_descriptor(rs.rs_type, left, right)
    box = box_quotient(rs, left, right).descriptor()
    # generator witness: a basis tensor with unit projection if one
    # exists, else an integer combination projecting onto a generator
    l = rs.rank
    witness = None
    for k, (free, tors) in enumerate(fp.generator_images()):
        if any(x in (1, -1) for x in free):
            witness = {"basis_pair": [k // l, k % l], "projection": list(free) + list(tors)}
            break
    if witness is None and fp.free_rank:
        images = list(fp.generator_images())
        gram = tuple(
            tuple(images[i * l + j][0][0] for j in range(l)) for i in range(l)
        )
        combo = _unit_combination(gram)
        witness = {
            "combination": sorted(
                [i, j, c] for (i, j), c in combo.items() if c
            )
        }
    payload = {
        "schema": 1,
        "type": str(rs.rs_type),
        "rank": rs.rank,
        "pair": args.pair,
        "invariant_factors": fp.invariant_factors,
        "descriptor": got,
        "expected": want,
        "box_descriptor": box,
        "generator_witness": witness,
    }
    lines = [
        f"{rs.rs_type} {args.pair}: {got} (expected {want}); box quotient {box}"
    ]
    _emit(payload, lines, args.format, args.out)
    if got != want:
        print("verification mismatch against the expected table", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _require_valid(ers: ExtRootSystem) -> None:
    """Raise an ExtRootError naming the first failed axiom, if any."""
    rep = validate(ers)
    if not rep.ok:
        first = rep.failed()[0]
        raise ExtRootError(f"system invalid: {first.name} {first.witness}")


def cmd_orbits(args) -> int:
    """Orbit classes of a reduced system, each checked by a closure in
    G/mG (weyl.orbit_classes)."""
    ers = ExtRootSystem.load(args.system)
    if not ers.delta.rs_type.is_reduced():
        raise ExtRootError(
            f"orbits needs a reduced type, got {ers.delta.rs_type}; trim first"
        )
    _require_valid(ers)
    classes, agree = orbit_classes(ers)
    rows = [(k, [list(d), beta]) for k, (d, beta) in sorted(classes.items())]
    payload = {
        "schema": 1,
        "classes": [
            {"length_class": k[0], "coset": list(k[1]), "representative": v}
            for k, v in rows
        ],
        "bruteforce_agrees": agree,
        "modulus": default_brute_modulus(ers),
    }
    lines = [f"{len(classes)} orbit classes (brute-force agreement: {agree})"]
    for k, v in rows:
        lines.append(f"  {k[0]} coset {list(k[1])} rep {v}")
    _emit(payload, lines, args.format, args.out)
    return EXIT_OK if agree else EXIT_MISMATCH


def cmd_word(args) -> int:
    ers = ExtRootSystem.load(args.system)
    _require_valid(ers)
    word = word_from_json(ers, read_json(args.word))
    decision = decide_word(ers, word)
    payload = decision.to_json()
    lines = [
        f"trivial: {decision.trivial}"
        + ("" if decision.trivial else f" (failing layer {decision.failing_layer})")
    ]
    _emit(payload, lines, args.format, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite not in list(SUITES) + ["all"]:
        print(
            f"error: unknown suite {args.suite!r}; choose from "
            f"{', '.join(list(SUITES) + ['all'])}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    reports = run_suites(args.suite, seed=args.seed, cap_rank=args.cap_rank)
    payload = {"schema": 1, "seed": args.seed, "suites": []}
    lines = [f"seed {args.seed}"]
    any_fail = False
    for rep in reports:
        payload["suites"].append(
            {
                "suite": rep.suite,
                "ok": rep.ok,
                "cases": [
                    {"name": c.name, "ok": c.passed, "detail": c.witness}
                    for c in rep.checks
                ],
                "reports": rep.reports,
            }
        )
        lines.append(f"[{rep.suite}] {'PASS' if rep.ok else 'FAIL'}")
        for c in rep.checks:
            lines.append(f"  {'pass' if c.passed else 'FAIL'} {c.name}"
                         + (f" ({c.witness})" if c.witness else ""))
        for r in rep.reports:
            lines.append(f"  report: {r}")
        if not rep.ok:
            any_fail = True
            first = rep.failed()[0]
            lines.append(f"  first witness: {first.name}: {first.witness}")
            lines.append(
                f"  replay: extweyl verify {rep.suite} --seed {args.seed}"
            )
    _emit(payload, lines, args.format, args.out)
    return EXIT_MISMATCH if any_fail else EXIT_OK


def _common_flags(defaults: bool) -> argparse.ArgumentParser:
    c = argparse.ArgumentParser(add_help=False)
    d = (lambda v: v) if defaults else (lambda v: argparse.SUPPRESS)
    c.add_argument("--format", choices=["text", "json"], default=d("text"))
    c.add_argument("--seed", type=int, default=d(0), help="seed for randomized suites")
    c.add_argument("--cap-rank", type=int, default=d(6), help="rank cap for sweeps")
    c.add_argument("--out", default=d(None), help="write output to a file")
    return c


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args keeps no state."""
    p = argparse.ArgumentParser(
        prog="extweyl",
        description="Exact computations with root systems extended by free abelian groups",
        parents=[_common_flags(defaults=True)],
    )
    sub = p.add_subparsers(dest="command", required=True)
    flags = [_common_flags(defaults=False)]

    q = sub.add_parser("info", help="summary of a finite root system", parents=flags)
    q.add_argument("family", choices=["A", "B", "C", "D", "E", "F", "G", "BC"])
    q.add_argument("rank", type=int)

    q = sub.add_parser(
        "tensor-type", help="coinvariant invariant factors", parents=flags
    )
    q.add_argument("family", choices=["A", "B", "C", "D", "E", "F", "G", "BC"])
    q.add_argument("rank", type=int)
    q.add_argument("pair", choices=sorted(PAIRS))

    q = sub.add_parser(
        "orbits", help="orbit classes of an extended system", parents=flags
    )
    q.add_argument("system", help="path to an extended-system JSON file")

    q = sub.add_parser("word", help="decide a word in the presentation", parents=flags)
    q.add_argument("system", help="path to an extended-system JSON file")
    q.add_argument("word", help="path to a word JSON file")

    q = sub.add_parser("verify", help="run a verification suite", parents=flags)
    q.add_argument("suite", help="tables | tensor | orbits | cocycle | words | all")
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    if not 1 <= args.cap_rank <= MAX_RANK:
        print(f"error: rank cap must be between 1 and {MAX_RANK}", file=sys.stderr)
        return EXIT_USAGE
    handler = {
        "info": cmd_info,
        "tensor-type": cmd_tensor_type,
        "orbits": cmd_orbits,
        "word": cmd_word,
        "verify": cmd_verify,
    }[args.command]
    try:
        return handler(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
