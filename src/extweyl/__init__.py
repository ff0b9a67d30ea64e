"""Exact computation with root systems extended by free abelian groups.

The package constructs the irreducible finite root systems over the
integers, extends them by a free abelian group, realizes the resulting
Weyl group as an explicit cocycle extension, and decides the word
problem for the presentation by conjugation.  Everything is exact: no
floats, no real vector spaces, only arbitrary-precision integers.
"""

from extweyl.root_core import RootSystemType, FiniteRootSystem, WeylElement, build
from extweyl.ext_root import FreeAbelianGroup, SSet, ExtRootSystem
from extweyl.refl_groups import ReflectionLabel
from extweyl.weyl import WElement, decide_word

__all__ = [
    "RootSystemType",
    "FiniteRootSystem",
    "WeylElement",
    "build",
    "FreeAbelianGroup",
    "SSet",
    "ExtRootSystem",
    "ReflectionLabel",
    "WElement",
    "decide_word",
]

__version__ = "0.1.0"
