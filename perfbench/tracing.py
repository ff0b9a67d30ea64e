"""Per-layer tracing from outside the package.

`Tracer.install` wraps the public callables of each `extweyl` module at
every binding site: the module attribute, every other `extweyl` module
that imported the same object, and class attributes for methods.  Each
call made while recording becomes one span (name, start, end, parent,
value), kept in flat arrays in memory and written out at the end.
Self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import array
import contextlib
import functools
import gzip
import importlib
import json
import sys
import time

CALLS_AND_SELF = ("calls", "self_s")
CALLS = ("calls",)

# metric prefix, module, attribute path, metrics reported
TARGETS = (
    ("weyl.WElement.mul", "extweyl.weyl", "WElement.__mul__", CALLS_AND_SELF),
    ("weyl.cocycle", "extweyl.weyl", "cocycle", CALLS_AND_SELF),
    ("weyl.evaluate_word_in_w", "extweyl.weyl", "evaluate_word_in_w", CALLS_AND_SELF),
    ("weyl.decide_word", "extweyl.weyl", "decide_word", CALLS_AND_SELF),
    ("weyl.uab_of_word", "extweyl.weyl", "uab_of_word", CALLS_AND_SELF),
    ("weyl.orbit_of", "extweyl.weyl", "orbit_of", CALLS_AND_SELF),
    ("weyl.orbit_bruteforce", "extweyl.weyl", "orbit_bruteforce", CALLS_AND_SELF),
    ("weyl.slice_residues_mod", "extweyl.weyl", "slice_residues_mod", CALLS_AND_SELF),
    ("ext_root.validate", "extweyl.ext_root", "validate", CALLS_AND_SELF),
    ("ext_root.check_twist", "extweyl.ext_root", "check_twist", CALLS_AND_SELF),
    ("ext_root.SSet.rebase", "extweyl.ext_root", "SSet.rebase", CALLS_AND_SELF),
    ("ext_root.SSet.contains", "extweyl.ext_root", "SSet.contains", CALLS),
    ("ext_root.from_json", "extweyl.ext_root", "ExtRootSystem.from_json", CALLS_AND_SELF),
    ("refl_groups.ReflectionLabel.make", "extweyl.refl_groups", "ReflectionLabel.make", CALLS_AND_SELF),
    ("refl_groups.label_k_part", "extweyl.refl_groups", "label_k_part", CALLS_AND_SELF),
    ("root_core.pairing", "extweyl.root_core", "FiniteRootSystem.pairing", CALLS_AND_SELF),
    ("root_core.perpendicular", "extweyl.root_core", "FiniteRootSystem.perpendicular", CALLS_AND_SELF),
    ("root_core.same_reflection", "extweyl.root_core", "FiniteRootSystem.same_reflection", CALLS),
    ("root_core.reflect_root_index", "extweyl.root_core", "FiniteRootSystem.reflect_root_index", CALLS_AND_SELF),
    ("root_core.WeylElement.mul", "extweyl.root_core", "WeylElement.__mul__", CALLS_AND_SELF),
    ("root_core.build", "extweyl.root_core", "build", CALLS),
    ("root_core.FiniteRootSystem.init", "extweyl.root_core", "FiniteRootSystem.__init__", CALLS),
    ("lattice_algebra.box_quotient", "extweyl.lattice_algebra", "box_quotient", CALLS_AND_SELF),
    ("lattice_algebra.coinvariants", "extweyl.lattice_algebra", "coinvariants", CALLS_AND_SELF),
    ("lattice_algebra.boxtimes_form", "extweyl.lattice_algebra", "boxtimes_form", CALLS),
    ("lattice_algebra.BoxForm.init", "extweyl.lattice_algebra", "BoxForm.__init__", CALLS),
    ("intlinalg.hermite_rows", "extweyl.intlinalg", "hermite_rows", CALLS_AND_SELF),
    ("intlinalg.smith_normal_form", "extweyl.intlinalg", "smith_normal_form", CALLS_AND_SELF),
    ("intlinalg.FPAbelianGroup", "extweyl.intlinalg", "FPAbelianGroup.__init__", CALLS_AND_SELF),
    ("intlinalg.lattice_reduce", "extweyl.intlinalg", "lattice_reduce", CALLS_AND_SELF),
    ("intlinalg.mat_mul", "extweyl.intlinalg", "mat_mul", CALLS_AND_SELF),
    ("intlinalg.solve_integer", "extweyl.intlinalg", "solve_integer", CALLS_AND_SELF),
    ("cli.cmd_orbits", "extweyl.cli", "cmd_orbits", CALLS_AND_SELF),
)

LAYERS = ("V", "K", "Z", "Uab", None)


def _relation_rows(args, kwargs, result):
    return len(kwargs["relations"] if "relations" in kwargs else args[2])


def _decision_layer(args, kwargs, result):
    return LAYERS.index(result.failing_layer)


def _states(args, kwargs, result):
    return len(result)


def _system(args, kwargs, result):
    return id(args[0])


# span value recorded per call, by metric prefix
VALUES = {
    "intlinalg.FPAbelianGroup": _relation_rows,
    "weyl.decide_word": _decision_layer,
    "weyl.orbit_bruteforce": _states,
    "ext_root.check_twist": _system,
}

# counters derived from the span values, by metric prefix
EXTRA = {
    "weyl.decide_word": {f"layer_{layer or 'none'}": "count" for layer in LAYERS},
    "weyl.orbit_bruteforce": {"states": "count"},
    "ext_root.check_twist": {"calls_per_system": "calls/system"},
    "lattice_algebra.box_quotient": {"relation_rows": "count"},
    "intlinalg.FPAbelianGroup": {"relation_rows": "count"},
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for prefix, _, _, kinds in TARGETS:
        for kind in kinds:
            units[f"{prefix}.{kind}"] = "count" if kind == "calls" else "s"
        for name, unit in EXTRA.get(prefix, {}).items():
            units[f"{prefix}.{name}"] = unit
    units["trace.ops_per_s"] = "1/s"
    units["trace.untraced_ops_per_s"] = "1/s"
    units["trace.overhead_x"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.names: list[str] = [prefix for prefix, _, _, _ in TARGETS]
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.name = array.array("H")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.value = array.array("q")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans ---------------------------------------------------------------

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.value.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def name_of(self, label: str) -> int:
        """Id of a span name that is not a wrapped callable, e.g. one operation."""
        if label not in self.name_id:
            self.name_id[label] = len(self.names)
            self.names.append(label)
        return self.name_id[label]

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, prefix: str):
        nid = self.name_id[prefix]
        value = VALUES.get(prefix)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if value is not None:
                self.value[i] = value(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def active(self):
        """Record spans inside the block; every wrapper is gone after it."""
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def install(self) -> None:
        package = [m for name, m in sys.modules.items() if name.split(".")[0] == "extweyl"]
        for prefix, modname, path, _ in TARGETS:
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(attr)
            if raw is None:
                self.missing.append(prefix)
                continue
            if outer:
                static = isinstance(raw, staticmethod)
                traced = self._wrap(raw.__func__ if static else raw, prefix)
                setattr(owner, attr, staticmethod(traced) if static else traced)
                self._restore.append((owner, attr, raw))
                continue
            traced = self._wrap(raw, prefix)
            for mod in package:
                for key, val in list(vars(mod).items()):
                    if val is raw:
                        setattr(mod, key, traced)
                        self._restore.append((mod, key, raw))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        n_names = len(self.names)
        calls = [0] * n_names
        self_s = [0.0] * n_names
        child_s = [0.0] * len(self.name)
        for i in range(len(self.name)):
            p = self.parent[i]
            if p >= 0:
                child_s[p] += self.end[i] - self.start[i]
        for i in range(len(self.name)):
            nid = self.name[i]
            calls[nid] += 1
            self_s[nid] += self.end[i] - self.start[i] - child_s[i]

        out: dict[str, float] = {}
        nid = self.name_id
        for prefix, _, _, kinds in TARGETS:
            out[f"{prefix}.calls"] = calls[nid[prefix]]
            if "self_s" in kinds:
                out[f"{prefix}.self_s"] = self_s[nid[prefix]]
        layers = [0] * len(LAYERS)
        states = rows = box_rows = 0
        systems = set()
        fp, dw, ob, ct, bq = (
            nid[p]
            for p in (
                "intlinalg.FPAbelianGroup",
                "weyl.decide_word",
                "weyl.orbit_bruteforce",
                "ext_root.check_twist",
                "lattice_algebra.box_quotient",
            )
        )
        for i in range(len(self.name)):
            name, v = self.name[i], self.value[i]
            if name == dw:
                layers[v] += 1
            elif name == ob:
                states += v
            elif name == ct:
                systems.add(v)
            elif name == fp:
                rows += v
                p = self.parent[i]
                if p >= 0 and self.name[p] == bq:
                    box_rows += v
        for layer, count in zip(LAYERS, layers):
            out[f"weyl.decide_word.layer_{layer or 'none'}"] = count
        out["weyl.orbit_bruteforce.states"] = states
        out["ext_root.check_twist.calls_per_system"] = (
            calls[ct] / len(systems) if systems else 0.0
        )
        out["lattice_algebra.box_quotient.relation_rows"] = box_rows
        out["intlinalg.FPAbelianGroup.relation_rows"] = rows
        return out

    def write(self, path: str) -> None:
        """All spans as gzipped JSON columns; `parent` indexes into the same columns.

        Columns are written in chunks so that no second copy of them is
        held as Python objects.
        """
        chunk = 1 << 16
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write('{"names":' + json.dumps(self.names))
            for key in ("name", "parent", "start", "end", "value"):
                column = getattr(self, key)
                fh.write(f',"{key}":[')
                for i in range(0, len(column), chunk):
                    fh.write(("," if i else "") + json.dumps(column[i : i + chunk].tolist())[1:-1])
                fh.write("]")
            fh.write("}")
