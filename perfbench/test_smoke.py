"""Smoke tests of the benchmark itself, at a tiny input size.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("words", "orbits", "lattice")

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def tiny_traced_run(workload: str, seed: int) -> dict:
    """A traced tiny run in a fresh interpreter, so that its set-up is cold."""
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import run; "
        "out = run.run(sys.argv[2], int(sys.argv[3]), 0, True, tiny=True); "
        "print(json.dumps(out['result']))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, HERE, workload, str(seed)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def one_pass(workload: str, corrupt) -> run.Stats:
    """One pass over tiny inputs after `corrupt(items)` has edited them."""
    run.import_package()
    workdir = tempfile.mkdtemp(dir=os.path.join(run.ROOT, ".perfbench"))
    try:
        wl = run.make_workload(workload, workdir)
        ctx = wl.setup()
        items = wl.inputs(ctx, seed=5, tiny=True)
        corrupt(items)
        stats = run.Stats(len(items))
        run.run_pass(wl, ctx, items, stats)
        return stats
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def first(items, **match):
    return next(i for i in items if all(i[k] == v for k, v in match.items()))


class EveryMetric(unittest.TestCase):
    def test_untraced_run_emits_every_end_to_end_metric(self):
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                res = run.run(workload, seed=1, seconds=0, trace=False, tiny=True)["result"]
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, want)
                self.assertTrue(all(v["value"] > 0 for v in res["metrics"].values()))

    def test_traced_run_emits_every_per_layer_metric_and_repeats_counts(self):
        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a, b = tiny_traced_run(workload, 2), tiny_traced_run(workload, 2)
                self.assertTrue(a["correct"] and b["correct"])
                self.assertEqual({k: v["unit"] for k, v in a["metrics"].items()}, want)
                counts = [k for k, u in want.items() if u in ("count", "calls/system")]
                self.assertEqual(
                    {k: a["metrics"][k]["value"] for k in counts},
                    {k: b["metrics"][k]["value"] for k in counts},
                )
                self.assertGreater(sum(a["metrics"][k]["value"] for k in counts), 0)

    def test_inputs_follow_the_seed(self):
        run.import_package()
        wl = run.make_workload("lattice", "")
        ctx = wl.setup()
        a, b, c = (run.digest(wl.inputs(ctx, s, tiny=True)) for s in (7, 7, 8))
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)


class ChecksRejectWrongAnswers(unittest.TestCase):
    def test_untouched_inputs_pass(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(one_pass(workload, lambda items: None).failed, 0)

    def test_words(self):
        for cls, expect, wrong in (("full", "trivial", "V"), ("early", "V", "K"), ("full", "Uab", "trivial")):
            with self.subTest(expect=expect):
                def corrupt(items):
                    first(items, **{"class": cls, "expect": expect})["expect"] = wrong

                self.assertEqual(one_pass("words", corrupt).failed, 1)

    def test_orbits(self):
        def corrupt(items):
            # claim the fine description belongs with another system's coarse one
            other = first(items, **{"class": "coarse"})["system"]
            next(i for i in items if i["class"] == "fine" and i["system"] != other)["system"] = other

        self.assertGreater(one_pass("orbits", corrupt).failed, 0)
        classes = frozenset({("short", (0,)), ("short", (1,))})
        self.assertTrue(workloads.check_descriptions_agree([classes, frozenset(classes)]))
        self.assertFalse(
            workloads.check_descriptions_agree([classes, frozenset({("short", (0,))})])
        )
        self.assertFalse(workloads.check_orbit_run(1, {"bruteforce_agrees": True}))
        self.assertFalse(workloads.check_orbit_run(0, {"bruteforce_agrees": False}))

    def test_lattice(self):
        def corrupt(items):
            first(items, fn="box_quotient")["expect"] = [2, 0]

        self.assertEqual(one_pass("lattice", corrupt).failed, 1)


class Refusal(unittest.TestCase):
    def test_fails_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "words", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
