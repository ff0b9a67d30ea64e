"""Irreducible finite root systems over the integers.

Roots are stored as coordinate vectors over the simple-root basis and
coroots as coordinate vectors over a fixed basis of the coroot lattice,
so every number in sight is an integer (the usual ambient realizations
of F4 and the E series need half-integers, the basis coordinates never
do).  For the non-reduced BC types the coroot lattice is strictly larger
than the span of the simple coroots; its basis replaces the short simple
coroot by the coroot of the divisible root, which keeps all coordinates
integral.

Conventions:
  * cartan[i][j] = <alpha_i^vee, alpha_j> (rows indexed by the coroot).
  * r_alpha(lam) = lam - <alpha^vee, lam> alpha.
  * simply laced systems have a single length class, called "short".
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd
from typing import NamedTuple

from extweyl.intlinalg import (
    FPAbelianGroup,
    Matrix,
    Vector,
    dot,
    freeze,
    sparse_rows,
    transpose,
    vec_mat,
)

SHORT = "short"
LONG = "long"
EXTRALONG = "extralong"

FAMILIES = ("A", "B", "C", "D", "E", "F", "G", "BC")

# the largest rank any type may have: building a rank-24 system takes
# about 0.02 s on a 2-vCPU x86-64 host, `tensor-type` at rank 24 at most
# about 0.7 s as a fresh process, and the root count grows as rank^2 and
# each table row as rank^2
MAX_RANK = 24

_RANK_OK = {
    "A": lambda l: l >= 1,
    "B": lambda l: l >= 2,
    "C": lambda l: l >= 3,
    "D": lambda l: l >= 4,
    "E": lambda l: l in (6, 7, 8),
    "F": lambda l: l == 4,
    "G": lambda l: l == 2,
    "BC": lambda l: l >= 1,
}


class RootSystemError(ValueError):
    pass


class _RootSystemTypeFields(NamedTuple):
    family: str
    rank: int


class RootSystemType(_RootSystemTypeFields):
    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        if family not in FAMILIES:
            raise RootSystemError(f"unknown family {family!r}")
        if type(rank) is not int:
            raise RootSystemError(f"rank must be an integer, got {rank!r}")
        if rank > MAX_RANK:
            raise RootSystemError(f"rank {rank} is above the cap of {MAX_RANK}")
        if not _RANK_OK[family](rank):
            raise RootSystemError(f"rank {rank} is not admissible for family {family}")
        return super().__new__(cls, family, rank)

    def is_simply_laced(self) -> bool:
        """A(rank >= 2), D and E only; A1 is handled separately."""
        f, l = self.family, self.rank
        return (f == "A" and l >= 2) or f == "D" or f == "E"

    def is_single_length(self) -> bool:
        """One root length: the simply laced types together with A1."""
        return self.is_simply_laced() or (self.family == "A" and self.rank == 1)

    def is_reduced(self) -> bool:
        return self.family != "BC"

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def k_delta(rs_type: RootSystemType) -> int:
    """Lacing number: 2 for B, C, F4 and BC, 3 for G2."""
    if rs_type.family in ("B", "C", "F", "BC"):
        return 2
    if rs_type.family == "G":
        return 3
    raise RootSystemError(f"k_delta is undefined for {rs_type} (single root length)")


# Cartan matrices cartan[i][j] = <alpha_i^vee, alpha_j>, Bourbaki numbering,
# together with the symmetrizers d (integer, (alpha_i|alpha_i) = 2 d_i up to
# one global scale).


def _chain(l: int) -> list[list[int]]:
    a = [[0] * l for _ in range(l)]
    for i in range(l):
        a[i][i] = 2
        if i + 1 < l:
            a[i][i + 1] = -1
            a[i + 1][i] = -1
    return a


def _cartan_and_symmetrizer(family: str, rank: int) -> tuple[Matrix, Vector]:
    l = rank
    if family == "A":
        return freeze(_chain(l)), (1,) * l
    if family in ("B", "BC"):
        if l == 1:
            return freeze([[2]]), (1,)
        a = _chain(l)
        a[l - 1][l - 2] = -2  # short simple root pairs doubly against the chain
        return freeze(a), (2,) * (l - 1) + (1,)
    if family == "C":
        a = _chain(l)
        a[l - 2][l - 1] = -2
        return freeze(a), (1,) * (l - 1) + (2,)
    if family == "D":
        a = _chain(l - 1)
        for row in a:
            row.append(0)
        a.append([0] * l)
        a[l - 1][l - 1] = 2
        a[l - 1][l - 3] = -1
        a[l - 3][l - 1] = -1
        return freeze(a), (1,) * l
    if family == "E":
        # nodes 1-3-4-5-6(-7)(-8) with node 2 hanging off node 4
        a = [[0] * l for _ in range(l)]
        for i in range(l):
            a[i][i] = 2
        edges = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        if l >= 7:
            edges.append((6, 7))
        if l == 8:
            edges.append((7, 8))
        for i, j in edges:
            a[i - 1][j - 1] = -1
            a[j - 1][i - 1] = -1
        return freeze(a), (1,) * l
    if family == "F":
        a = [
            [2, -1, 0, 0],
            [-1, 2, -1, 0],
            [0, -2, 2, -1],
            [0, 0, -1, 2],
        ]
        return freeze(a), (2, 2, 1, 1)
    if family == "G":
        # alpha_1 short, alpha_2 long
        return freeze([[2, -3], [-1, 2]]), (1, 3)
    raise RootSystemError(family)


_ROOT_COUNT = {
    "A": lambda l: l * (l + 1),
    "B": lambda l: 2 * l * l,
    "C": lambda l: 2 * l * l,
    "D": lambda l: 2 * l * (l - 1),
    "E": lambda l: {6: 72, 7: 126, 8: 240}[l],
    "F": lambda l: 48,
    "G": lambda l: 12,
    "BC": lambda l: 2 * l * l + 2 * l,
}


class _RowTable(dict):
    """An n-row table whose row i is `row(i)`, built on first read.

    A built row is then one dict lookup; len and iteration give all n
    rows in order, building those not yet read.
    """

    __slots__ = ("_n", "_row")

    def __init__(self, n: int, row):
        super().__init__()
        self._n = n
        self._row = row

    def __missing__(self, i: int):
        row = self[i] = self._row(i)
        return row

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return map(self.__getitem__, range(self._n))


class FiniteRootSystem:
    """A finite irreducible root system with explicit coroots.

    Attributes:
      rs_type: the (family, rank) label.
      roots: tuple of root vectors in simple-root coordinates.
      coroots: parallel tuple of coroot vectors over the coroot basis.
      basis: indices of the simple roots inside `roots`.
      lengths: parallel tuple of length classes.
      cartan: <alpha_i^vee, alpha_j> over the simple roots.  Row k is the
        simple reflection r_k on root coordinates: it moves coordinate k
        only, x -> x - <cartan[k], x> e_k.
      coroot_moves: the same on coroot coordinates, y -> y -
        <coroot_moves[k], y> e_k; entry a is s_k * pairing_matrix[a][k],
        s_k e_k the coroot of alpha_k.  It equals `cartan` transposed, except
        for BC_l, l >= 2, where it equals `cartan`.
      pairing_matrix: <m_i, alpha_j> for the coroot-lattice basis m_i;
        equals `cartan` except for BC, where the short simple coroot is
        halved to reach the full coroot lattice.

    Roots are paired with, and reflected in, other roots by
    `pairing_table` and `reflection_table`, built a row at a time.  Two
    places work on root vectors instead: the root closure in __init__,
    which finds the roots those tables are indexed by, and the box
    quotient's perpendicular pairs (`lattice_algebra._perp_relation_pairs`),
    which read `cartan` rows and the invariant form and build no row.
    """

    def __init__(self, rs_type: RootSystemType):
        self.rs_type = rs_type
        l = rs_type.rank
        cartan, sym = _cartan_and_symmetrizer(rs_type.family, l)
        self.cartan = cartan
        # Gram matrix of the invariant form on root coordinates, up to one
        # global integer scale: only the ratios of root lengths are read.
        self._gram = freeze(
            [[sym[i] * cartan[i][j] for j in range(l)] for i in range(l)]
        )

        # the coroot of alpha_k is s_k e_k over the coroot basis: BC halves
        # the short simple coroot to reach the full coroot lattice, so its
        # s_l is 2, and e_l is the coroot of the divisible root 2*alpha_l
        e = [tuple(int(i == k) for i in range(l)) for k in range(l)]
        scale = [1] * l
        divisible = []
        self.pairing_matrix = cartan
        if rs_type.family == "BC":
            scale[-1] = 2
            self.pairing_matrix = cartan[:-1] + (tuple(x // 2 for x in cartan[-1]),)
            divisible.append((tuple(2 * x for x in e[-1]), e[-1]))
        # r_k(y) = y - <y, alpha_k> s_k e_k
        self.coroot_moves = freeze(
            [[s * x for x in col] for s, col in zip(scale, transpose(self.pairing_matrix))]
        )
        # r_k moves coordinate k only, on both lattices, by the nonzero
        # entries of its move rows; it fixes the root when the pairing is
        # 0.  The norm is W-invariant, so each root carries its seed's.
        moves = [
            ([(j, x) for j, x in enumerate(row) if x], [(j, x) for j, x in enumerate(corow) if x])
            for row, corow in zip(cartan, self.coroot_moves)
        ]
        gram = self._gram
        seen = {}
        queue = [(e[k], tuple(s * x for x in e[k]), gram[k][k]) for k, s in enumerate(scale)]
        queue += [(root, coroot, 4 * gram[-1][-1]) for root, coroot in divisible]
        while queue:
            root, coroot, norm = queue.pop()
            if root in seen:
                continue
            seen[root] = coroot, norm
            for k, (row, corow) in enumerate(moves):
                s = 0
                for j, x in row:
                    s += x * root[j]
                if s:
                    nr = root[:k] + (root[k] - s,) + root[k + 1:]
                    if nr not in seen:
                        t = coroot[k]
                        for j, x in corow:
                            t -= x * coroot[j]
                        queue.append((nr, coroot[:k] + (t,) + coroot[k + 1:], norm))
        pairs = sorted(seen.items())
        self.roots: tuple[Vector, ...] = tuple(r for r, _ in pairs)
        self.coroots: tuple[Vector, ...] = tuple(c for _, (c, _) in pairs)
        self._index = {r: i for i, r in enumerate(self.roots)}
        expected = _ROOT_COUNT[rs_type.family](l)
        if len(self.roots) != expected:
            raise RootSystemError(
                f"{rs_type}: generated {len(self.roots)} roots, expected {expected}"
            )

        self.basis = tuple(self._index[x] for x in e)
        norms = [n for _, (_, n) in pairs]
        levels = sorted(set(norms))
        if rs_type.family == "BC":
            # BC1 has no long class, only the divisible roots
            assert levels[-1] == 4 * levels[0]
            label = {levels[0]: SHORT, levels[-1]: EXTRALONG}
            if len(levels) == 3:
                label[levels[1]] = LONG
        elif len(levels) == 1:
            label = {levels[0]: SHORT}
        else:
            assert len(levels) == 2
            label = {levels[0]: SHORT, levels[1]: LONG}
        self.lengths: tuple[str, ...] = tuple(label[n] for n in norms)

    # -- basic queries ----------------------------------------------------

    @property
    def rank(self) -> int:
        return self.rs_type.rank

    def index_of(self, root: Vector) -> int:
        try:
            return self._index[tuple(root)]
        except KeyError:
            raise RootSystemError(f"{tuple(root)} is not a root of {self.rs_type}")

    def coroot_length_class(self, i: int) -> str:
        """Length class of coroots[i] inside the coroot system."""
        if self.rs_type.is_single_length():
            return SHORT
        cls = self.lengths[i]
        if self.rs_type.family == "BC":
            return {SHORT: EXTRALONG, LONG: LONG, EXTRALONG: SHORT}[cls]
        return {SHORT: LONG, LONG: SHORT}[cls]

    def reduced_root_indices(self) -> tuple[int, ...]:
        """Indices of indivisible roots (drops 2*alpha for BC)."""
        return tuple(i for i, (_, half) in enumerate(self.label_table) if half is None)

    def divisible_root_indices(self) -> tuple[int, ...]:
        red = set(self.reduced_root_indices())
        return tuple(i for i in range(len(self.roots)) if i not in red)

    @cached_property
    def label_table(self) -> tuple[tuple[tuple[int, int], tuple[int, int] | None], ...]:
        """Per root index: (canonical index, sign) of the root, and of its
        half when that is a root (BC's extralong roots), else None.

        The canonical root of +-r is the lexicographically larger one;
        sign -1 means it is -r, so a label's shift is negated.
        """
        index = self._index

        def entry(r):
            neg = tuple(-x for x in r)
            return (index[r], 1) if r > neg else (index[neg], -1)

        halves = [tuple(x // 2 for x in r) for r in self.roots]
        return tuple(
            (entry(r), entry(h) if all(x % 2 == 0 for x in r) and h in index else None)
            for r, h in zip(self.roots, halves)
        )

    # -- pairing and reflections ------------------------------------------
    #
    # The tables below are built a row at a time on first use, never in
    # __init__, so that constructing a system costs nothing extra and a
    # command pays only for the rows it reads.  W acts faithfully on the
    # roots (Humphreys, Reflection Groups and Coxeter Groups, 1.14), so
    # root-against-root questions are answered by lookups.

    @cached_property
    def _root_columns(self) -> Matrix:
        return transpose(self.roots)

    @cached_property
    def pairing_table(self) -> _RowTable:
        """pairing_table[i][j] = <alpha_i^vee, alpha_j> over all roots."""
        return _RowTable(len(self.roots), self._pairing_row)

    def _pairing_row(self, i: int) -> tuple[int, ...]:
        # the root columns, weighted by the nonzero entries of the linear
        # form <alpha_i^vee, .> on root coordinates
        row = [0] * len(self.roots)
        form = vec_mat(self.coroots[i], self.pairing_matrix)
        for c, column in zip(form, self._root_columns):
            if c:
                row = [a + c * x for a, x in zip(row, column)]
        return tuple(row)

    @cached_property
    def class_gcds(self) -> dict[tuple[int, str], int]:
        """class_gcds[alpha, cls] = gcd{<alpha^vee, beta> : beta of class
        cls} for each simple root alpha and length class cls."""
        return {
            (alpha, cls): gcd(
                *(m for m, c in zip(self.pairing_table[alpha], self.lengths) if c == cls)
            )
            for alpha in self.basis
            for cls in dict.fromkeys(self.lengths)
        }

    @cached_property
    def reflection_table(self) -> _RowTable:
        """reflection_table[i][j] = index of r_i(alpha_j)."""
        return _RowTable(len(self.roots), self._reflection_row)

    def _reflection_row(self, i: int) -> tuple[int, ...]:
        # r_i(alpha_j) = alpha_j - c alpha_i moves only the coordinates in
        # the support of alpha_i, and fixes alpha_j when c is 0
        support = [(k, a) for k, a in enumerate(self.roots[i]) if a]
        index = self._index
        row = []
        for j, (root, c) in enumerate(zip(self.roots, self.pairing_table[i])):
            if c:
                image = list(root)
                for k, a in support:
                    image[k] -= c * a
                j = index[tuple(image)]
            row.append(j)
        return tuple(row)

    def word_images(self, word) -> tuple[int, ...]:
        """The root indices of w(alpha_1), ..., w(alpha_l), w the product of
        the reflections named by the root indices in `word`.

        The simple roots are walked right to left through
        `reflection_table`, l lookups a letter and no matrices.  W acts
        faithfully on the roots, so w is 1 iff the images are `basis`.
        """
        table = self.reflection_table
        images = list(self.basis)
        for i in reversed(word):
            row = table[i]
            images = [row[x] for x in images]
        return tuple(images)

    def image_matrix(self, images) -> Matrix:
        """The matrix on root coordinates of the element with these
        `word_images`: column j is roots[images[j]], since the simple
        roots are the unit vectors."""
        return tuple(zip(*(self.roots[x] for x in images)))

    @cached_property
    def coroot_basis(self) -> tuple[int, ...]:
        """Indices of the roots whose coroots are the unit vectors of the
        coroot basis; for BC the last one is the divisible root 2*alpha_l."""
        l = self.rank
        return tuple(self.coroots.index(tuple(int(i == k) for i in range(l))) for k in range(l))

    def weyl_generator(self, i: int) -> "WeylElement":
        return WeylElement(self, self.reflection_table[i])

    def perpendicular(self, i: int, j: int) -> bool:
        """Distinct commuting reflections: r_i != r_j and <alpha_i^vee, alpha_j> = 0.

        Proportional roots pair to a nonzero value, so a zero pairing
        already implies distinct reflections.
        """
        return self.pairing_table[i][j] == 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"FiniteRootSystem({self.rs_type}, {len(self.roots)} roots)"


class WeylElement:
    """An element v of the Weyl group, as the permutation it makes of the roots.

    perm[j] is the index of v(roots[j]); W acts faithfully on the roots,
    so perm determines v, and its matrices on both lattices are read off.
    """

    __slots__ = ("_rs", "perm")

    def __init__(self, rs: FiniteRootSystem, perm: tuple[int, ...]):
        self._rs = rs
        self.perm = perm

    @staticmethod
    def identity(rs: FiniteRootSystem) -> "WeylElement":
        return WeylElement(rs, tuple(range(len(rs.roots))))

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        p = self.perm
        return WeylElement(self._rs, tuple([p[x] for x in other.perm]))

    def inv(self) -> "WeylElement":
        # the root indices, ordered by the index each is sent to
        p = self.perm
        return WeylElement(self._rs, tuple(sorted(range(len(p)), key=p.__getitem__)))

    @property
    def matrix(self) -> Matrix:
        """The action on root coordinates."""
        return self._rs.image_matrix([self.perm[b] for b in self._rs.basis])

    @property
    def coroot_images(self) -> Matrix:
        """Row j is v applied to coroot-basis vector j, over that basis."""
        return tuple(self._rs.coroots[self.perm[c]] for c in self._rs.coroot_basis)

    def is_identity(self) -> bool:
        return all(self.perm[b] == b for b in self._rs.basis)

    def __eq__(self, other) -> bool:
        return isinstance(other, WeylElement) and self.perm == other.perm

    def __hash__(self) -> int:
        return hash(self.perm)

    def __repr__(self) -> str:  # pragma: no cover
        return f"WeylElement({self.perm})"


@lru_cache(maxsize=None)
def _build_cached(family: str, rank: int) -> FiniteRootSystem:
    return FiniteRootSystem(RootSystemType(family, rank))


def build(rs_type: RootSystemType | str, rank: int | None = None) -> FiniteRootSystem:
    """Construct the root system; accepts build('B', 2) or build(RootSystemType('B', 2))."""
    if isinstance(rs_type, str):
        if rank is None:
            raise RootSystemError("rank required when passing the family as a string")
        rs_type = RootSystemType(rs_type, rank)
    return _build_cached(rs_type.family, rs_type.rank)


def coxeter_evaluate(rs: FiniteRootSystem, word: list[int]) -> WeylElement:
    """Product of the reflections named by root indices; [] gives the identity."""
    out = WeylElement.identity(rs)
    for i in word:
        out = out * rs.weyl_generator(i)
    return out


def _moved_basis_vectors(moves: Matrix) -> list[Vector]:
    """v.e_j - e_j for each simple reflection v and basis vector e_j.

    v = r_k moves coordinate k only, by the move table row m_k, so
    v.e_j - e_j = -m_k[j] e_k.  Over the simple reflections these span
    the sublattice of all v.x - x, v in the Weyl group.
    """
    l = len(moves)
    return [
        tuple(-m[j] * int(i == k) for i in range(l))
        for k, m in enumerate(moves)
        for j in range(l)
    ]


def l_eff_quotient(rs: FiniteRootSystem):
    """The quotient of the root lattice by the span of all v.l - l.

    Returns (fp, images): fp is the FPAbelianGroup of the quotient and
    images maps each root index to its torsion coordinates there, which
    fp.project(root)[1] would give: read off only the rows of the Smith
    transform whose diagonal entry exceeds 1.
    """
    fp = FPAbelianGroup(rs.rank, sparse_rows(_moved_basis_vectors(rs.cartan)))
    p, diag = fp._transform
    torsion = [(row, d) for row, d in zip(p, diag) if d > 1]
    images = {
        i: tuple(dot(row, root) % d for row, d in torsion) for i, root in enumerate(rs.roots)
    }
    return fp, images


def pairing_value_sets(rs: FiniteRootSystem) -> dict[tuple[str, str], frozenset[int]]:
    """Value sets <coroot-class x, root-class y> over all root pairs.

    The first index refers to the length class of the coroot inside the
    coroot system (for non-simply-laced types the coroot of a short root
    is long, and vice versa).
    """
    out: dict[tuple[str, str], set[int]] = {}
    for b, row in enumerate(rs.pairing_table):
        cx = rs.coroot_length_class(b)
        for g, value in enumerate(row):
            out.setdefault((cx, rs.lengths[g]), set()).add(value)
    return {k: frozenset(v) for k, v in out.items()}
