"""The three benchmark workloads: set-up, seeded inputs, operations and checks.

Each workload is a closed loop with one client over a fixed list of
inputs (one *pass*).  The inputs are plain data generated from the seed
by this file; the expected answers come from construction or from an
oracle written here, never from the code under test.  Every input
belongs to one of two classes, the workload's light and heavy class.

Nothing here imports `extweyl` at module level, so that the set-up probe
can time the import itself.
"""

from __future__ import annotations

import json
import os
import random


class _Workload:
    def check_pass(self, items, kept) -> set[int]:
        """Indices of inputs whose answers disagree with others of the pass."""
        return set()

# ---------------------------------------------------------------------------
# words: ReflectionLabel.make per letter, then decide_word
# ---------------------------------------------------------------------------

FULL_PER_SYSTEM = 32
EARLY_PER_SYSTEM = 32
KERNEL_PER_SYSTEM = 16
TINY_WORDS = ("A2 n=1", "B2 n=2", "A1 n=3")
# the systems over Z^3 that carry a kernel witness of the presentation
KERNEL_SYSTEMS = ("A1 n=3", "B2 n=3")


class _Geometry:
    """Root data of one extended system, read once during input generation.

    The pairing and the reflection table are computed here from the root
    and coroot vectors, so the finite image of a word is known without
    calling the code under test.
    """

    def __init__(self, ers):
        rs = ers.delta
        self.roots = [tuple(r) for r in rs.roots]
        pm = rs.pairing_matrix
        l = len(pm)
        index = {r: i for i, r in enumerate(self.roots)}
        self.pairing = [
            [
                sum(cv[a] * pm[a][b] * r[b] for a in range(l) for b in range(l))
                for r in self.roots
            ]
            for cv in rs.coroots
        ]
        self.reflect = [
            [
                index[tuple(x - self.pairing[i][j] * y for x, y in zip(self.roots[j], a))]
                for j in range(len(self.roots))
            ]
            for i, a in enumerate(self.roots)
        ]
        self.simple = list(rs.basis)
        self.slices = [
            (
                [tuple(c) for c in ers.s_of_root(i).cosets],
                [tuple(h) for h in ers.s_of_root(i).h_basis],
            )
            for i in range(len(self.roots))
        ]

    def random_letter(self, rng):
        root = rng.randrange(len(self.roots))
        cosets, h_basis = self.slices[root]
        g = list(cosets[rng.randrange(len(cosets))])
        for h in h_basis:
            f = rng.randint(-2, 2)
            g = [x + f * y for x, y in zip(g, h)]
        return (tuple(g), root)

    def conjugate(self, t1, t2):
        """t1.t2: the extended root t2 reflected by t1."""
        (g1, r1), (g2, r2) = t1, t2
        m = self.pairing[r1][r2]
        return (tuple(h - m * g for h, g in zip(g2, g1)), self.reflect[r1][r2])

    def relator_product(self, rng):
        """Conjugated defining relators t1 t2 t1 (t1.t2): trivial by construction."""
        word = []
        for _ in range(rng.randint(1, 4)):
            t1, t2 = self.random_letter(rng), self.random_letter(rng)
            conj = [self.random_letter(rng) for _ in range(rng.randint(0, 3))]
            word += conj + [t1, t2, t1, self.conjugate(t1, t2)] + conj[::-1]
        return word

    def finite_image_is_identity(self, word) -> bool:
        """Whether the product of the word's reflections fixes every simple root."""
        for b in self.simple:
            j = b
            for _, root in reversed(word):
                j = self.reflect[root][j]
            if j != b:
                return False
        return True


class Words(_Workload):
    name = "words"
    classes = {"early": "light", "full": "heavy"}

    def setup(self):
        from extweyl.ext_root import fully_extended, span_extended
        from extweyl.lattice_algebra import boxtimes_form
        from extweyl.verify import word_test_systems

        systems = word_test_systems() + [
            ("A1 n=3", fully_extended("A", 1, n=3)),
            ("B2 n=3", span_extended("B", 2, n=3, g1=(0, 1, 2))),
        ]
        for _, ers in systems:
            boxtimes_form(ers.delta)
        return dict(systems)

    def inputs(self, ctx, seed: int, tiny: bool = False) -> list[dict]:
        from extweyl.weyl import build_uab_kernel_word

        rng = random.Random(seed)
        names = [n for n in ctx if not tiny or n in TINY_WORDS]
        scale = 8 if tiny else 1
        items = []
        for name in names:
            ers = ctx[name]
            geo = _Geometry(ers)
            for _ in range(FULL_PER_SYSTEM // scale):
                items.append(self._item(name, "full", geo.relator_product(rng), "trivial"))
            for _ in range(EARLY_PER_SYSTEM // scale):
                while True:
                    word = [geo.random_letter(rng) for _ in range(rng.randint(1, 12))]
                    if not geo.finite_image_is_identity(word):
                        break
                items.append(self._item(name, "early", word, "V"))
            if name in KERNEL_SYSTEMS:
                # trivial in the extended Weyl group, nonzero orbit parity;
                # conjugating keeps both properties
                kernel = [(t.g, t.root) for t in build_uab_kernel_word(ers)]
                for _ in range(KERNEL_PER_SYSTEM // scale):
                    conj = [geo.random_letter(rng) for _ in range(rng.randint(0, 3))]
                    items.append(self._item(name, "full", conj + kernel + conj[::-1], "Uab"))
        rng.shuffle(items)
        return items

    @staticmethod
    def _item(system, cls, word, expect):
        return {"system": system, "class": cls, "letters": word, "expect": expect}

    def run(self, ctx, item):
        from extweyl import ReflectionLabel, decide_word

        ers = ctx[item["system"]]
        return decide_word(ers, [ReflectionLabel.make(ers, g, r) for g, r in item["letters"]])

    def check(self, item, decision):
        return check_decision(decision, item["expect"]), None


def check_decision(decision, expect: str) -> bool:
    """`expect` is "trivial" or the layer that must reject the word."""
    if expect == "trivial":
        return decision.trivial and decision.failing_layer is None
    return not decision.trivial and decision.failing_layer == expect


# ---------------------------------------------------------------------------
# orbits: `extweyl orbits FILE --format json --out TMP`, in process
# ---------------------------------------------------------------------------

TINY_ORBITS = ("A1 n=2 full", "B2 n=2 twist(0|1)")
# presentations of each description per pass, so a pass has over 100 inputs
PRESENTATIONS = 3
# lacing number squared; single-length types use 4 (see validate)
_FINE_MODULUS = {"A": 4, "D": 4, "E": 4, "B": 4, "C": 4, "F": 4, "G": 9}


class Orbits(_Workload):
    name = "orbits"
    classes = {"coarse": "light", "fine": "heavy"}

    def __init__(self, workdir: str):
        self.workdir = workdir

    def setup(self):
        import extweyl.cli  # noqa: F401  (the operation's entry point)
        from extweyl.ext_root import fully_extended, span_extended
        from extweyl.verify import orbit_configurations

        systems = orbit_configurations() + [
            ("B2 n=3", span_extended("B", 2, n=3, g1=(0,))),
            ("C3 n=3", span_extended("C", 3, n=3, g1=(0,))),
            ("A2 n=3", fully_extended("A", 2, n=3)),
        ]
        return dict(systems)

    def inputs(self, ctx, seed: int, tiny: bool = False) -> list[dict]:
        rng = random.Random(seed)
        os.makedirs(self.workdir, exist_ok=True)
        items = []
        for i, name in enumerate(n for n in ctx if not tiny or n in TINY_ORBITS):
            coarse = ctx[name].to_json()
            for desc, data in (("coarse", coarse), ("fine", refine(coarse))):
                for copy in range(PRESENTATIONS):
                    shown = rerepresent(data, rng)
                    path = os.path.join(self.workdir, f"system-{i:02d}-{desc}-{copy}.json")
                    with open(path, "w") as fh:
                        json.dump(shown, fh)
                    items.append(
                        {"system": name, "class": desc, "file": os.path.basename(path), "json": shown}
                    )
        rng.shuffle(items)
        return items

    def run(self, ctx, item):
        from extweyl.cli import main

        out = os.path.join(self.workdir, "orbits-out.json")
        return main(
            ["orbits", os.path.join(self.workdir, item["file"]), "--format", "json", "--out", out]
        ), out

    def check(self, item, result):
        rc, out = result
        with open(out) as fh:
            payload = json.load(fh)
        os.remove(out)
        return check_orbit_run(rc, payload), orbit_classes(payload)

    def check_pass(self, items, kept) -> set[int]:
        """Every presentation of both descriptions of one system must give
        the same classes."""
        by_system: dict[str, list[int]] = {}
        for i, item in enumerate(items):
            by_system.setdefault(item["system"], []).append(i)
        bad = set()
        for idx in by_system.values():
            if not check_descriptions_agree([kept[i] for i in idx]):
                bad.update(idx)
        return bad


def check_orbit_run(rc: int, payload: dict) -> bool:
    return rc == 0 and payload.get("bruteforce_agrees") is True


def orbit_classes(payload: dict) -> frozenset:
    return frozenset((c["length_class"], tuple(c["coset"])) for c in payload["classes"])


def check_descriptions_agree(class_sets) -> bool:
    return None not in class_sets and len(set(class_sets)) == 1


def refine(data: dict) -> dict:
    """The same slices written over k^2 * Z^n, the finest modulus validate accepts."""
    kk = _FINE_MODULUS[data["delta"]["family"]]
    n = data["g"]["rank"]
    out = json.loads(json.dumps(data))
    for s in out["s_sets"].values():
        residues = {tuple(x % kk for x in c) for c in s["cosets"]}
        frontier = list(residues)
        while frontier:
            nxt = []
            for v in frontier:
                for h in s["H"]:
                    for sign in (1, -1):
                        w = tuple((x + sign * y) % kk for x, y in zip(v, h))
                        if w not in residues:
                            residues.add(w)
                            nxt.append(w)
            frontier = nxt
        s["H"] = [[kk * (i == j) for j in range(n)] for i in range(n)]
        s["cosets"] = sorted(list(c) for c in residues)
    return out


def rerepresent(data: dict, rng) -> dict:
    """Another presentation of the same system: a random basis of each H,
    coset representatives shifted by random elements of H, in random order."""
    out = json.loads(json.dumps(data))
    for s in out["s_sets"].values():
        rows = [list(r) for r in s["H"]]
        for _ in range(2 * len(rows)):
            if len(rows) < 2:
                break
            a, b = rng.sample(range(len(rows)), 2)
            f = rng.choice((-1, 1))
            rows[a] = [x + f * y for x, y in zip(rows[a], rows[b])]
        cosets = []
        for c in s["cosets"]:
            for r in rows:
                f = rng.randint(-1, 1)
                c = [x + f * y for x, y in zip(c, r)]
            cosets.append(c)
        rng.shuffle(cosets)
        s["H"], s["cosets"] = rows, cosets
    return out


# ---------------------------------------------------------------------------
# lattice: coinvariants / box_quotient on one side pair, then .descriptor()
# ---------------------------------------------------------------------------

SIDES = (("root", "root"), ("root", "coroot"), ("coroot", "coroot"))
TINY_LATTICE = (("A", 1), ("B", 2), ("BC", 2), ("A", 6))


class Lattice(_Workload):
    name = "lattice"
    classes = {"small": "light", "large": "heavy"}

    def __init__(self, golden_path: str):
        self.golden_path = golden_path

    def setup(self):
        import extweyl.lattice_algebra  # noqa: F401
        from extweyl.root_core import build
        from extweyl.verify import sweep_types

        return {(f, r): build(f, r) for f, r in sweep_types(6) + [("E", 7)]}

    def inputs(self, ctx, seed: int, tiny: bool = False) -> list[dict]:
        from extweyl.lattice_algebra import expected_tensor_descriptor

        with open(self.golden_path) as fh:
            golden = {
                (e["family"], e["rank"], e["pair"]): e["invariant_factors"]
                for e in json.load(fh)["entries"]
            }
        items = []
        for (fam, rank), rs in ctx.items():
            if tiny and (fam, rank) not in TINY_LATTICE:
                continue
            cls = "small" if rank <= 4 else "large" if rank >= 6 else "mid"
            for left, right in SIDES:
                pair = f"{left},{right}"
                want = golden.get((fam, rank, pair))
                if want is None:
                    want = factors_of(expected_tensor_descriptor(rs.rs_type, left, right))
                for fn, expect in (("coinvariants", want), ("box_quotient", [0])):
                    items.append(
                        {"family": fam, "rank": rank, "fn": fn, "left": left,
                         "right": right, "class": cls, "expect": expect}
                    )
        random.Random(seed).shuffle(items)
        return items

    def run(self, ctx, item):
        from extweyl import lattice_algebra

        fn = getattr(lattice_algebra, item["fn"])
        group = fn(ctx[(item["family"], item["rank"])], item["left"], item["right"])
        return group.invariant_factors, group.descriptor()

    def check(self, item, result):
        return check_quotient(result, item["expect"]), None


def factors_of(descriptor: str) -> list[int]:
    """Invariant factors (torsion first, then 0 per free summand) of "Z x Z2"."""
    parts = descriptor.split(" x ")
    return [int(p[1:]) for p in parts if p != "Z"] + [0] * parts.count("Z")


def check_quotient(result, expect: list[int]) -> bool:
    factors, descriptor = result
    want = " x ".join(
        ["Z"] * expect.count(0) + [f"Z{d}" for d in expect if d]
    ) or "0"
    return list(factors) == list(expect) and descriptor == want
