"""The reflections of an extended root system.

Their canonical labels, the word files that list them, their
translation parts and their conjugation.  Group elements, of the
extended Weyl group and of its quotient by the centre alike, are
`weyl.WElement`s.
"""

from __future__ import annotations

from typing import NamedTuple

from extweyl.ext_root import ExtRootError, ExtRootSystem, _require, _require_row
from extweyl.intlinalg import Matrix, Vector, outer


class ReflectionLabel(NamedTuple):
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
