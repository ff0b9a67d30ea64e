"""Reference implementations that more than one test module compares against.

The package never calls these: the determinant, the reflection id of a
root, the action on extended roots, and the paper's symmetric systems with
their reflection-group axioms and permutation closures for small finite
systems (the terminal group).
"""

from __future__ import annotations

from typing import Sequence

from extweyl.ext_root import ExtRootSystem, ValidationReport
from extweyl.intlinalg import Vector, mat_vec
from extweyl.root_core import FiniteRootSystem
from extweyl.weyl import WElement


def determinant(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(r) for r in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def reflection_ids(rs: FiniteRootSystem) -> tuple[int, ...]:
    """One id per reflection: the canonical index of the indivisible root
    on the line, read from `label_table`.

    Proportional roots (alpha, -alpha and, for BC, +-2 alpha) share their
    reflection and nothing else does.
    """
    return tuple((half or entry)[0] for entry, half in rs.label_table)


def act_on_root(ers: ExtRootSystem, w: WElement, h, root_idx: int) -> tuple[Vector, int]:
    """The action (h, beta) -> (h + k(v.beta), v.beta); z acts trivially."""
    rs = ers.delta
    new_idx = w.v.perm[root_idx]
    shift = mat_vec(w.k, mat_vec(rs.pairing_matrix, rs.roots[new_idx]))
    return tuple(x + y for x, y in zip(h, shift)), new_idx


# ---------------------------------------------------------------------------
# Symmetric systems and their reflection groups
# ---------------------------------------------------------------------------

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
    ids = reflection_ids(rs)
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
