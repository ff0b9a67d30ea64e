"""The extweyl benchmark.

    python3 perfbench/run.py --workload {words,orbits,lattice} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
`src/` of that checkout.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: with
`--trace 0` the end-to-end metrics, with `--trace 1` the per-layer
metrics of a traced run.  A detail line before it gives the sample
counts, the class names and the SHA-256 of the inputs; the same detail
(and, with `--trace 1`, every span) is written under `.perfbench/`.
The exit code is 0 only if every output was correct.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
GOLDEN = os.path.join(ROOT, "tests", "golden", "tensor_types.json")

sys.path.insert(0, HERE)

import clock  # noqa: E402
from tracing import Tracer, metric_units  # noqa: E402
from workloads import Lattice, Orbits, Words  # noqa: E402

# fresh processes whose set-up time is measured; the median is reported
SETUP_PROBES = 7
# each input's latency is its median over at least this many passes
MIN_PASSES = 3
# operation time between two calibration samples
CALIBRATE_EVERY_S = 0.05

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "peak_rss_mib": "MiB",
    "light_p50_ms": "ms",
    "heavy_p50_ms": "ms",
    "light_s": "s",
    "heavy_s": "s",
}


class UsageError(Exception):
    pass


def import_package():
    """Import extweyl from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "extweyl", "__init__.py")):
        raise UsageError(f"no extweyl package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import extweyl
    import extweyl.cli
    import extweyl.verify  # noqa: F401

    if os.path.dirname(os.path.dirname(os.path.abspath(extweyl.__file__))) != SRC:
        raise UsageError(f"extweyl was imported from {extweyl.__file__}, not {SRC}")


def make_workload(name: str, workdir: str):
    if name == "words":
        return Words()
    if name == "orbits":
        return Orbits(workdir)
    if name == "lattice":
        return Lattice(GOLDEN)
    raise UsageError(f"unknown workload {name!r}")


def digest(items) -> str:
    blob = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


class Stats:
    """Operation latencies of a run, per input, scaled to the reference
    speed of clock.py."""

    def __init__(self, n_inputs: int):
        self.per_input: list[list[float]] = [[] for _ in range(n_inputs)]
        self.raw: list[float] = []
        self.factors: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.first_failure = None

    def medians(self) -> list[float]:
        """Each input's median latency over the passes."""
        return [statistics.median(v) for v in self.per_input]


def run_pass(wl, ctx, items, stats: Stats, tracer: Tracer | None = None) -> None:
    """One closed-loop pass over the inputs.  Checks and calibration
    samples run between operations, outside the timed region; each
    operation is scaled by the calibration samples that bracket it."""
    n = len(items)
    raw = [0.0] * n
    factor = [0.0] * n
    kept = [None] * n
    ok = [False] * n
    op_id = tracer.name_of(f"op.{wl.name}") if tracer else None
    before = clock.sample()
    segment, since = 0, 0.0
    for i, item in enumerate(items):
        span = tracer.open(op_id) if tracer else None
        t0 = time.perf_counter()
        try:
            result = wl.run(ctx, item)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, exc
        raw[i] = time.perf_counter() - t0
        if tracer:
            tracer.close(span)
        if error is None:
            try:
                ok[i], kept[i] = wl.check(item, result)
            except Exception as exc:  # e.g. an output file that was never written
                error = exc
        if error is not None and stats.first_failure is None:
            stats.first_failure = f"{item}: {error!r}"
        since += raw[i]
        if since >= CALIBRATE_EVERY_S or i == n - 1:
            after = clock.sample()
            factor[segment : i + 1] = [clock.scale(before, after)] * (i + 1 - segment)
            before, segment, since = after, i + 1, 0.0
    for i in wl.check_pass(items, kept):
        ok[i] = False

    for i in range(n):
        stats.per_input[i].append(raw[i] * factor[i])
    stats.raw += raw
    stats.factors += factor
    bad = [item for item, good in zip(items, ok) if not good]
    if bad and stats.first_failure is None:
        stats.first_failure = f"wrong answer for {bad[0]}"
    stats.attempted += n
    stats.failed += len(bad)
    stats.passes += 1


def measure(wl, ctx, items, seconds: float) -> Stats:
    """Whole passes until `seconds` have elapsed and MIN_PASSES passes ran."""
    stats = Stats(len(items))
    gc.collect()
    t_begin = time.perf_counter()
    while True:
        run_pass(wl, ctx, items, stats)
        if time.perf_counter() - t_begin >= seconds and stats.passes >= MIN_PASSES:
            return stats


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile, its beta weights taken as normal.

    A weighted mean of the order statistics near rank p*n.  The inputs of
    a workload have discrete costs with gaps between them, where a plain
    order statistic jumps from one side to the other on small noise.
    """
    xs = sorted(values)
    n = len(xs)
    sd = math.sqrt(p * (1 - p) / (n + 2))

    def cdf(q: float) -> float:
        return 0.5 * (1 + math.erf((q - p) / (sd * math.sqrt(2))))

    weights = [cdf(i / n) - cdf((i - 1) / n) for i in range(1, n + 1)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(wl, items, stats: Stats, setup_s: list[float]) -> dict[str, float]:
    """Every timing comes from the per-input medians over the passes."""
    med = stats.medians()
    light = [m for m, item in zip(med, items) if wl.classes.get(item["class"]) == "light"]
    heavy = [m for m, item in zip(med, items) if wl.classes.get(item["class"]) == "heavy"]
    return {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": len(med) / sum(med),
        "p50_ms": 1e3 * quantile(med, 0.5),
        "p90_ms": 1e3 * quantile(med, 0.9),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "light_p50_ms": 1e3 * quantile(light, 0.5),
        "heavy_p50_ms": 1e3 * quantile(heavy, 0.5),
        "light_s": sum(light),
        "heavy_s": sum(heavy),
    }


def probe_setup(workload: str, probes: int) -> list[float]:
    """Set-up time of the workload, each in a fresh interpreter."""
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), workload],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return the result and detail records."""
    import_package()
    workdir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    wl = make_workload(workload, workdir)
    try:
        return _run(wl, seed, seconds, trace, tiny)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(wl, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    tracer = Tracer() if trace else None
    if tracer:
        # a cold set-up, recorded: build and box-form cache misses show here
        with tracer.active():
            ctx = wl.setup()
    else:
        ctx = wl.setup()
    items = wl.inputs(ctx, seed, tiny)
    detail = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs": len(items),
        "inputs_sha256": digest(items),
        "classes": wl.classes,
        "python": sys.version.split()[0],
    }

    # no warm-up pass: the per-input median over the passes drops the
    # first, cache-filling one
    stats = measure(wl, ctx, items, seconds)
    attempted, failed = stats.attempted, stats.failed

    if tracer:
        traced = Stats(len(items))
        with tracer.active():
            run_pass(wl, ctx, items, traced, tracer)
        attempted += traced.attempted
        failed += traced.failed
        stats.first_failure = stats.first_failure or traced.first_failure
        metrics = tracer.metrics()
        traced_rate = len(items) / sum(traced.medians())
        untraced_rate = len(items) / sum(stats.medians())
        metrics["trace.ops_per_s"] = traced_rate
        metrics["trace.untraced_ops_per_s"] = untraced_rate
        metrics["trace.overhead_x"] = untraced_rate / traced_rate
        units = metric_units()
        detail["spans"] = len(tracer.name)
        detail["missing_targets"] = tracer.missing
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{wl.name}.json.gz"))
    else:
        setup = probe_setup(wl.name, 1 if tiny else SETUP_PROBES)
        metrics = end_to_end(wl, items, stats, setup)
        units = END_TO_END
        detail["speed_factor_p50"] = statistics.median(stats.factors)
        detail["raw_p50_ms"] = 1e3 * statistics.median(stats.raw)
        detail["samples"] = {
            "setup_s": len(setup),
            "inputs": len(items),
            "passes": stats.passes,
            "ops": stats.attempted,
        }
    detail["fail_frac"] = failed / attempted
    if stats.first_failure:
        detail["first_failure"] = stats.first_failure
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return {"result": result, "detail": detail}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["words", "orbits", "lattice"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except UsageError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    print("detail " + json.dumps(out["detail"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
