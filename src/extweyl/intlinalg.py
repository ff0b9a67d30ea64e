"""Exact linear algebra over the integers.

Vectors are tuples of ints, matrices are tuples of row tuples.  All
arithmetic uses Python's arbitrary-precision integers; intermediate
entries in eliminations may grow and that is fine at the scales this
package works with (matrices of a few hundred rows).  Relation rows are
mostly zero, so the Hermite reduction and the presentations built on it
take each row as the {column: entry} dict of its nonzero entries, with
the width passed in; `sparse_rows` turns dense rows into that form.
Everything returned is a tuple.

One elimination engine, `hermite_rows`, gives lattice bases, and run on
augmented rows (r | t) also integer solves, intersections and inverses:
the tag t records the combination, or the image, that each reduced row
came from (Cohen, A Course in Computational Algebraic Number Theory,
2.4).  `smith_normal_form` classifies presentations: `FPAbelianGroup`
reads its invariant factors off the Smith form of the few Hermite rows
whose pivot is not 1, and reduces the whole basis only when a
projection is asked for.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from math import prod
from typing import Iterable, Iterator, Mapping, Sequence

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]
SparseRow = Mapping[int, int]


def freeze(rows: Sequence[Sequence[int]]) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zeros(nrows: int, ncols: int) -> Matrix:
    return tuple((0,) * ncols for _ in range(nrows))


def dims(m: Sequence[Sequence[int]]) -> tuple[int, int]:
    return len(m), (len(m[0]) if m else 0)


def transpose(m: Sequence[Sequence[int]]) -> Matrix:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(m: Sequence[Sequence[int]], v: Sequence[int]) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def vec_mat(v: Sequence[int], m: Sequence[Sequence[int]]) -> Vector:
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(m[0])))


def vec_scale(c: int, u: Sequence[int]) -> Vector:
    return tuple(c * x for x in u)


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(u, v))


def outer(u: Sequence[int], v: Sequence[int]) -> Matrix:
    return tuple(tuple(x * y for y in v) for x in u)


def is_zero_vec(v: Sequence[int]) -> bool:
    return all(x == 0 for x in v)


def is_zero_mat(m: Sequence[Sequence[int]]) -> bool:
    return all(is_zero_vec(r) for r in m)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def _identity_rows(n: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (n - i - 1) for i in range(n)]


def smith_normal_form(
    m: Sequence[Sequence[int]],
) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form with transforms: returns (d, p, q), p*m*q = d.

    d is diagonal with nonnegative entries d1 | d2 | ..., and p, q are
    unimodular.  Works for any rectangular integer matrix, including
    empty ones.  Entries must be ints: they are copied, never converted,
    so d, p and q hold ints too.
    """
    nr, nc = dims(m)
    a = [list(row) for row in m]
    p = _identity_rows(nr)
    q = _identity_rows(nc)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        p[i], p[j] = p[j], p[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in q:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, f):
        # row dst += f * row src, in place, over the nonzero entries of src
        for s, d in ((a[src], a[dst]), (p[src], p[dst])):
            for k in compress(range(len(s)), s):
                d[k] += f * s[k]

    def add_col(src, dst, f):
        for row in a:
            row[dst] += f * row[src]
        for row in q:
            row[dst] += f * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        p[i] = [-x for x in p[i]]

    t = 0
    while True:
        # find the smallest nonzero entry in the remaining block; the
        # first unit in row-major order is smallest, so stop at its row
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best[0]):
                    best = (abs(a[i][j]), i, j)
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)

        dirty = False
        for i in range(t + 1, nr):
            if a[i][t] != 0:
                f = a[i][t] // a[t][t]
                add_row(t, i, -f)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, nc):
            if a[t][j] != 0:
                f = a[t][j] // a[t][t]
                add_col(t, j, -f)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # pivot must divide every remaining entry for the divisor chain;
        # a unit divides everything
        offender = None
        if abs(a[t][t]) != 1:
            piv = a[t][t]
            offender = next(
                (i for i in range(t + 1, nr) if any(x % piv for x in a[i][t + 1:])),
                None,
            )
        if offender is not None:
            add_row(offender, t, 1)
            continue
        if a[t][t] < 0:
            negate_row(t)
        t += 1
        if t >= min(nr, nc):
            break

    return tuple(map(tuple, a)), tuple(map(tuple, p)), tuple(map(tuple, q))


# ---------------------------------------------------------------------------
# Row Hermite form: lattices as row spans
# ---------------------------------------------------------------------------


def sparse_rows(rows: Iterable[Sequence[int]]) -> list[dict[int, int]]:
    """Each dense row as the {column: entry} dict of its nonzero entries."""
    return [dict(compress(enumerate(row), row)) for row in rows]


def hermite_rows(width: int, rows: Iterable[SparseRow]) -> list[Vector]:
    """Canonical echelon basis of the integer row span of `rows`.

    Each row is a {column: entry} mapping of its nonzero entries, columns
    in range(width); the basis comes back as dense tuples of that width.
    Rows come back with strictly increasing pivot columns, positive
    pivots, and entries above each pivot reduced into [0, pivot).  Two
    generating sets span the same lattice iff they produce identical
    output.  Rows are folded in one at a time, so large redundant
    generating sets stay cheap, and an iterator of them is never held.
    A step costs the pivot row's support, not the width.
    """
    def fold(r: dict[int, int], f: int, b: dict[int, int]) -> None:
        # r -= f * b, dropping the entries that cancel
        for k, y in b.items():
            x = r.get(k, 0) - f * y
            if x:
                r[k] = x
            else:
                del r[k]

    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        # a copy: folding rewrites it, and it may become a pivot row
        r = dict(row)
        while r:
            pcol = min(r)
            b = pivots.get(pcol)
            if b is None:
                if r[pcol] < 0:
                    r = {k: -x for k, x in r.items()}
                pivots[pcol] = r
                break
            if abs(r[pcol]) < abs(b[pcol]):
                if r[pcol] < 0:
                    r = {k: -x for k, x in r.items()}
                pivots[pcol], r, b = r, b, r
            f = r[pcol] // b[pcol]
            if f:
                fold(r, f, b)
            # a nonzero remainder (signs made // round down) stays at
            # pcol for one more pass
    cols = sorted(pivots)
    basis = [pivots[c] for c in cols]
    # normalize entries above each pivot; increasing pivot order keeps
    # already-normalized earlier columns untouched
    for i, pcol in enumerate(cols):
        prow = basis[i]
        for j in range(i):
            f = basis[j].get(pcol, 0) // prow[pcol]
            if f:
                fold(basis[j], f, prow)
    out = []
    for r in basis:
        dense = [0] * width
        for k, x in r.items():
            dense[k] = x
        out.append(tuple(dense))
    return out


def lattice_reduce(hnf: Sequence[Sequence[int]], v: Sequence[int]) -> Vector:
    """Canonical representative of v modulo the lattice spanned by hnf rows.

    `hnf` is an echelon basis with strictly increasing pivot columns, as
    hermite_rows returns, so row i's pivot lies at column i or to its
    right: a nonzero row[i] is the pivot, and only otherwise is the row
    scanned.
    """
    out = v
    for i, row in enumerate(hnf):
        p = row[i]
        pcol = i
        while not p:
            pcol += 1
            p = row[pcol]
        f = out[pcol] // p
        if f:
            out = [x - f * y for x, y in zip(out, row)]
    return tuple(out)


def lattice_reduce_all(
    hnf: Sequence[Sequence[int]], vectors: Iterable[Sequence[int]]
) -> set[Vector]:
    """The set of lattice_reduce(hnf, v) over the vectors, reduced a row of
    hnf at a time (Cohen, A Course in Computational Algebraic Number
    Theory, 2.4): the distinct vectors are held as columns, and a row
    rewrites only the columns of its nonzero entries, its pivot the first
    of them.  lattice_reduce serves a single vector."""
    vectors = set(map(tuple, vectors))
    if not hnf or not vectors:
        return vectors
    cols = [list(c) for c in zip(*vectors)]
    for row in hnf:
        support = list(compress(enumerate(row), row))
        pcol, p = support[0]
        fs = [x // p for x in cols[pcol]]
        if any(fs):
            for k, y in support:
                cols[k] = [x - f * y for x, f in zip(cols[k], fs)]
    return set(zip(*cols))


def lattice_contains(hnf: Sequence[Sequence[int]], v: Sequence[int]) -> bool:
    return is_zero_vec(lattice_reduce(hnf, v))


def lattice_subset(a_hnf: Sequence[Sequence[int]], b_hnf: Sequence[Sequence[int]]) -> bool:
    """Whether the lattice spanned by a_hnf lies inside the one spanned by b_hnf."""
    return all(lattice_contains(b_hnf, row) for row in a_hnf)


def augmented_rows(
    width: int, rows: Iterable[Sequence[int]], tags: Iterable[Sequence[int]]
) -> Iterator[dict[int, int]]:
    """Each row r beside its tag t as the {column: entry} row (r | t), with
    r in columns range(width) and t in the columns after them."""
    for r, t in zip(rows, tags):
        row = dict(compress(enumerate(r), r))
        row.update(compress(enumerate(t, width), t))
        yield row


def solve_integer(rows: Sequence[Sequence[int]], target: Sequence[int]) -> Vector | None:
    """Integer coefficients c with sum c_i * rows_i = target, or None if
    target is not in the row span.

    Each row of the Hermite basis of the rows (rows_i | e_i) carries the
    combination of the inputs it equals, so reducing (target | 0)
    against it leaves (0 | -c) exactly when target is in the span.
    """
    n, m = len(target), len(rows)
    basis = hermite_rows(n + m, augmented_rows(n, rows, identity(m)))
    r = lattice_reduce(basis, (*target, *(0,) * m))
    if any(r[:n]):
        return None
    return tuple(-x for x in r[n:])


def lattice_intersection(
    a_rows: Sequence[Sequence[int]], b_rows: Sequence[Sequence[int]]
) -> list[Vector]:
    """Basis (hermite rows) of the intersection of two row-span lattices.

    Zassenhaus: the Hermite basis of the rows (a_i | a_i) and (b_j | 0)
    ends in the rows (0 | x) with x in the intersection, and their right
    halves are its Hermite basis.
    """
    if not a_rows or not b_rows:
        return []
    n = len(a_rows[0])
    tags = [*a_rows, *[()] * len(b_rows)]
    basis = hermite_rows(2 * n, augmented_rows(n, [*a_rows, *b_rows], tags))
    return [r[n:] for r in basis if not any(r[:n])]


def mat_inv(m: Sequence[Sequence[int]]) -> Matrix:
    """Inverse of an integer matrix that is invertible over the integers.

    The Hermite basis of the rows (m_i | e_i) is (I | m^-1) exactly when
    m is unimodular; otherwise (m singular, or its determinant not a
    unit) raises ValueError.
    """
    n = len(m)
    basis = hermite_rows(2 * n, augmented_rows(n, m, identity(n)))
    if [r[:n] for r in basis] != list(identity(n)):
        raise ValueError("matrix is not invertible over the integers")
    return tuple(r[n:] for r in basis)


MAX_QUOTIENT_INDEX = 4096


class QuotientTooLarge(ValueError):
    """A finite quotient of Z^n that is too large to enumerate."""


def check_quotient_index(index: int) -> None:
    if index > MAX_QUOTIENT_INDEX:
        raise QuotientTooLarge(
            f"finite quotient of index {index} exceeds the cap {MAX_QUOTIENT_INDEX}"
        )


def coset_residues(
    hnf: Sequence[Sequence[int]],
    cosets: Sequence[Sequence[int]],
    gens: Sequence[Sequence[int]] = (),
) -> set[Vector]:
    """Canonical residues of cosets + <gens> modulo the full-rank lattice hnf.

    `hnf` must be a full-rank hermite_rows output, so it is triangular
    with the pivots on the diagonal, and so is L = hermite_rows(hnf +
    gens), which contains it.  L/hnf then has exactly the representatives
    sum t_i * L_i with 0 <= t_i < hnf_ii / L_ii (Cohen, A Course in
    Computational Algebraic Number Theory, 2.4).  Cosets that agree
    modulo L give the same residues, so each residue is reduced once.
    The index |Z^n / hnf| is checked against MAX_QUOTIENT_INDEX before
    anything is enumerated.
    """
    # generators inside hnf add nothing; with none left, L is hnf itself
    gens = [r for r in (lattice_reduce(hnf, g) for g in gens) if any(r)]
    big = hermite_rows(len(gens[0]), sparse_rows([*hnf, *gens])) if gens else hnf
    return _residues_between(hnf, big, lattice_reduce_all(big, cosets))


def _residues_between(
    hnf: Sequence[Sequence[int]], big: Sequence[Sequence[int]], starts: set[Vector]
) -> set[Vector]:
    """Canonical residues of starts + big modulo hnf: both hermite_rows
    bases, hnf full rank and inside big, and starts a set of canonical
    residues modulo big (see `coset_residues`)."""
    n = len(hnf)
    if any(len(row) != n for row in hnf):
        raise ValueError("coset residues need a full-rank modulus")
    check_quotient_index(prod(hnf[i][i] for i in range(n)))
    if big is hnf:
        return starts
    offsets = [(0,) * n]
    for i, row in enumerate(big):
        offsets = [
            tuple(x + t * y for x, y in zip(o, row))
            for o in offsets
            for t in range(hnf[i][i] // row[i])
        ]
    return lattice_reduce_all(hnf, (
        tuple(x + y for x, y in zip(c, o)) for c in starts for o in offsets
    ))


class FPAbelianGroup:
    """Finitely presented abelian group Z^n / (row span of relations).

    Relations are {column: entry} rows, as `hermite_rows` takes them,
    with int entries; like the Smith reduction, the presentation copies
    them without converting them.  They are reduced to their Hermite
    basis first, and the canonical form (free rank plus invariant
    factors d1 | d2 | ...) is read off that basis.  A unit pivot's
    column is zero in every other basis row (entries above a pivot p
    lie in [0, p), rows below are zero there), so each unit-pivot row
    splits off a trivial factor, and only the rows whose pivot is not 1,
    on the columns that hold no unit pivot, go through
    `smith_normal_form`.  The projection map sends a generator-coordinate
    vector to its image in Z^rank x prod Z_{di}; it reads the transform
    of the Smith form of the whole transposed basis, which is built the
    first time a projection is asked for.
    """

    def __init__(self, n_generators: int, relations: Iterable[SparseRow]):
        n = self.n_generators = n_generators
        # reduce the (possibly huge, redundant) relations to a lattice
        # basis first, one row at a time
        rel = hermite_rows(n, relations)
        self.relations: Matrix = tuple(rel)
        keep = [1] * n
        block = []
        pcol = 0
        for row in rel:
            # pivots strictly increase, so each search resumes at the last
            while not row[pcol]:
                pcol += 1
            if row[pcol] == 1:
                keep[pcol] = 0
            else:
                block.append(row)
        # the block rows are independent, so no diagonal entry is zero
        block = [tuple(compress(row, keep)) for row in block]
        d = smith_normal_form(block)[0] if block else ()
        self.torsion = tuple(d[i][i] for i in range(len(d)) if d[i][i] > 1)
        self.free_rank = n - len(rel)
        self.invariant_factors = list(self.torsion) + [0] * self.free_rank

    @cached_property
    def _transform(self) -> tuple[Matrix, list[int]]:
        """(p, diagonal) of the Smith form of the transposed relations:
        the quotient is Z^n / im(rel^T), so p acts on generator
        coordinates."""
        rt = transpose(self.relations) or zeros(self.n_generators, 1)
        d, p, _ = smith_normal_form(rt)
        return p, [d[i][i] for i in range(min(dims(d)))]

    def project(self, coords: Sequence[int]) -> tuple[Vector, Vector]:
        """Image of a generator-coordinate vector: (free part, torsion part)."""
        return self._split(mat_vec(self._transform[0], coords))

    def generator_images(self) -> Iterator[tuple[Vector, Vector]]:
        """project(e_k) for each generator k in turn, split as it is reached."""
        return map(self._split, zip(*self._transform[0]))

    def _split(self, y: Vector) -> tuple[Vector, Vector]:
        diag = self._transform[1]
        free = []
        tors = []
        for i, x in enumerate(y):
            di = diag[i] if i < len(diag) else 0
            if di == 0:
                free.append(x)
            elif di > 1:
                tors.append(x % di)
        return tuple(free), tuple(tors)

    def descriptor(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z{d}" for d in self.torsion]
        return " x ".join(parts) if parts else "0"

    def __repr__(self) -> str:  # pragma: no cover
        return f"FPAbelianGroup({self.descriptor()})"
