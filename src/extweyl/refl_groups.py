"""Symmetric systems and their reflection groups.

Covers three layers: the axioms for an abstract symmetric system and
for a group acting on it by reflections; generic permutation-closure
machinery for small finite systems (the terminal group); and the
canonical labels of the reflections of an extended root system, with
their translation parts and conjugation.  Group elements, of the
extended Weyl group and of its quotient by the centre alike, are
`weyl.WElement`s.
"""

from __future__ import annotations

from dataclasses import dataclass

from extweyl.ext_root import (
    ExtRootError,
    ExtRootSystem,
    ValidationReport,
    _require,
    _require_row,
)
from extweyl.intlinalg import Matrix, Vector, outer
from extweyl.root_core import FiniteRootSystem


# the largest symmetric system terminal_group closes, and the largest
# group order any closure here enumerates
MAX_SYSTEM_SIZE = 64
MAX_GROUP_ORDER = 10**6


class ClosureCapError(RuntimeError):
    pass


class SymSystem:
    """A finite set with a multiplication table (s, t) -> s.t."""

    def __init__(self, size: int, table):
        self.size = size
        self.table = tuple(tuple(row) for row in table)
        if len(self.table) != size or any(len(r) != size for r in self.table):
            raise ValueError("table must be size x size")
        for row in self.table:
            for x in row:
                if not (0 <= x < size):
                    raise ValueError("table entries must be element indices")

    def mul(self, s: int, t: int) -> int:
        return self.table[s][t]


def check_sym_axioms(s: SymSystem) -> ValidationReport:
    """Exhaustive check of s.(s.t) = t and r.(s.t) = (r.s).(r.t)."""
    rep = ValidationReport()
    w1 = ""
    ok1 = True
    for a in range(s.size):
        for b in range(s.size):
            if s.mul(a, s.mul(a, b)) != b:
                ok1, w1 = False, f"S1 fails at (s,t)=({a},{b})"
                break
        if not ok1:
            break
    rep.add("S1: s.(s.t) = t", ok1, w1)
    ok2, w2 = True, ""
    for r in range(s.size):
        for a in range(s.size):
            for b in range(s.size):
                if s.mul(r, s.mul(a, b)) != s.mul(s.mul(r, a), s.mul(r, b)):
                    ok2, w2 = False, f"S2 fails at (r,s,t)=({r},{a},{b})"
                    break
            if not ok2:
                break
        if not ok2:
            break
    rep.add("S2: r.(s.t) = (r.s).(r.t)", ok2, w2)
    return rep


def reflection_sym_system(rs: FiniteRootSystem) -> tuple[SymSystem, list[int]]:
    """The conjugation system of the reflections of a finite root system.

    Returns the system together with one representative root index per
    reflection (proportional roots share a reflection).
    """
    ids = rs.reflection_ids
    reps = sorted(set(ids))
    index = {r: k for k, r in enumerate(reps)}
    table = [
        [index[ids[rs.reflection_table[a][b]]] for b in reps] for a in reps
    ]
    return SymSystem(len(reps), table), reps


def terminal_group(s: SymSystem) -> tuple[int, list[list[int]]]:
    """Order and orbit partition of the group generated by t -> s.t.

    The generators are the left multiplications; the closure is taken
    inside the symmetric group on the elements of s.
    """
    if s.size > MAX_SYSTEM_SIZE:
        raise ClosureCapError(f"symmetric system too large ({s.size} > {MAX_SYSTEM_SIZE})")
    gens = {tuple(s.mul(a, t) for t in range(s.size)) for a in range(s.size)}
    order = _closure_size(gens, lambda p, g: tuple(g[i] for i in p), tuple(range(s.size)))
    parent = list(range(s.size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens:
        for t in range(s.size):
            a, b = find(t), find(g[t])
            if a != b:
                parent[a] = b
    orbits: dict[int, list[int]] = {}
    for t in range(s.size):
        orbits.setdefault(find(t), []).append(t)
    return order, sorted(orbits.values())


def check_reflection_group(
    s: SymSystem,
    images: list,
    mul,
    identity_elt,
    act,
) -> ValidationReport:
    """Check the reflection-group axioms for given generator images.

    `images[t]` is the image of element t, `mul` the group law,
    `act(x, t)` the action of a group element on the system.  The
    generation axiom is reported as the closure size when it is finite
    within the cap, since the group under scrutiny is the one the
    images generate.
    """
    rep = ValidationReport()
    ok4, w4 = True, ""
    for t in range(s.size):
        if mul(images[t], images[t]) != identity_elt:
            ok4, w4 = False, f"square of image {t} is not the identity"
            break
    rep.add("G4: involutions", ok4, w4)
    ok2, w2 = True, ""
    for t in range(s.size):
        for a in range(s.size):
            if act(images[t], a) != s.mul(t, a):
                ok2, w2 = False, f"G2 fails at (t,s)=({t},{a})"
                break
        if not ok2:
            break
    rep.add("G2: image action matches the multiplication", ok2, w2)
    ok3, w3 = True, ""
    for t in range(s.size):
        for a in range(s.size):
            lhs = mul(mul(images[t], images[a]), images[t])
            if lhs != images[s.mul(t, a)]:
                ok3, w3 = False, f"G3 fails at (t,s)=({t},{a})"
                break
        if not ok3:
            break
    rep.add("G3: conjugation", ok3, w3)
    try:
        size = _closure_size(images, mul, identity_elt)
        detail = f"order {size}"
    except ClosureCapError:
        detail = "closure larger than the cap"
    # generation holds by construction: the group under scrutiny is the
    # one the images generate; the closure size is informational
    rep.add("G1: images generate", True, detail)
    separates = len(set(images)) == s.size
    rep.add("separates reflections", separates)
    rep.add("proper", separates and identity_elt not in images)
    return rep


def _closure_size(gens, mul, identity_elt) -> int:
    """Order of the group that `gens` generate under `mul`, closed breadth-first."""
    elements = {identity_elt}
    frontier = [identity_elt]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in elements:
                    elements.add(y)
                    nxt.append(y)
                    if len(elements) > MAX_GROUP_ORDER:
                        raise ClosureCapError("group closure exceeded the size cap")
        frontier = nxt
    return len(elements)


# ---------------------------------------------------------------------------
# Reflections of an extended root system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReflectionLabel:
    """The reflection r_(g, alpha) of an extended system, canonicalized.

    (g, alpha) and (-g, -alpha) name the same reflection, as do a short
    root with shift g and its double with shift 2g; canonicalization
    prefers the indivisible root and the lexicographically positive
    root vector, so equal reflections get equal labels; `make` reads
    both choices from `FiniteRootSystem.label_table`.
    """

    g: Vector
    root: int

    @staticmethod
    def make(ers: ExtRootSystem, g, root: int) -> "ReflectionLabel":
        g = tuple(map(int, g))
        table = ers.delta.label_table
        if not 0 <= root < len(table):
            raise ExtRootError(f"root must be a root index in 0..{len(table) - 1}, got {root}")
        (root, sign), half = table[root]
        if half is not None and all(x % 2 == 0 for x in g):
            (root, sign), g = half, tuple(x // 2 for x in g)
        if sign < 0:
            g = tuple(-x for x in g)
        return ReflectionLabel(g, root)


def word_from_json(ers: ExtRootSystem, data) -> list[ReflectionLabel]:
    """The letters of a word file, checked in one pass.

    The word is a list, bare or under "word", of objects {"alpha": a root
    index, "g": ers.n integers} with (g, alpha) an extended root; JSON
    booleans and floats are not integers.  Otherwise an ExtRootError names
    the letter or field: word[i], word[i].alpha or word[i].g.
    """
    letters = data.get("word") if isinstance(data, dict) else data
    n_roots = len(ers.delta.roots)
    word = []
    for i, item in enumerate(_require(letters, list, "word")):
        item = _require(item, dict, f"word[{i}]")
        alpha = _require(item.get("alpha"), int, f"word[{i}].alpha")
        if type(alpha) is bool or not 0 <= alpha < n_roots:
            raise ExtRootError(
                f"word[{i}].alpha must be a root index in 0..{n_roots - 1}, got {alpha}"
            )
        g = _require_row(item.get("g"), ers.n, f"word[{i}].g")
        if not ers.membership(g, alpha):
            raise ExtRootError(f"word[{i}] (g {g}, alpha {alpha}) is not an extended root")
        word.append(ReflectionLabel.make(ers, g, alpha))
    return word


def label_k_part(ers: ExtRootSystem, t: ReflectionLabel) -> Matrix:
    """t^K = g (x) alpha^vee as an n x l integer matrix."""
    return outer(t.g, ers.delta.coroots[t.root])


def conj_reflect(
    ers: ExtRootSystem, t1: ReflectionLabel, t2: ReflectionLabel
) -> ReflectionLabel:
    """t1.t2 = r_(h - <alpha^vee, beta> g, r_alpha(beta)), canonicalized."""
    rs = ers.delta
    m = rs.pairing_table[t1.root][t2.root]
    new_root = rs.reflection_table[t1.root][t2.root]
    new_g = tuple(h - m * g for h, g in zip(t2.g, t1.g))
    return ReflectionLabel.make(ers, new_g, new_root)
