"""Coinvariant and box quotients of lattice tensor squares.

For a root system with Weyl group V this module presents quotients of
L (x) L' by the diagonal V-action, L, L' being the root or the coroot
lattice, and computes their invariant factors by Smith reduction.  The
box quotient additionally kills the tensors of perpendicular reflection
pairs; it is infinite cyclic for every type, and its projection to Z is
the bilinear form that powers the Weyl-group cocycle.  That form needs
no reduction: it is the primitive integral multiple of the invariant
form ( | ) on the two lattices (see `boxtimes_form`), so Smith
reduction here only classifies the quotients.

Presentations use the simple reflections only: they generate the Weyl
group, and the relation subgroup they span is the full one because it
is closed under the group action.  For the same reason the perpendicular
relations are imposed for one left root theta per length class, the
dominant one, and one right root per orbit of its stabilizer: every other
perpendicular pair is a W-translate of one of these, and its tensor
differs from the translate's by a coinvariant relation.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from typing import Iterator

from extweyl.intlinalg import (
    FPAbelianGroup,
    Matrix,
    dot,
    freeze,
    mat_mul,
    mat_vec,
    transpose,
)
from extweyl.root_core import (
    SHORT,
    FiniteRootSystem,
    RootSystemError,
    k_delta,
)

ROOT = "root"
COROOT = "coroot"


def _side_data(rs: FiniteRootSystem, side: str):
    """(vectors per root index, move table of the simple reflections).

    Row k of the move table is m_k with r_k: x -> x - <m_k, x> e_k on
    that side's coordinates: `cartan` on the root lattice and
    `coroot_moves` on the coroot lattice.
    """
    if side == ROOT:
        return rs.roots, rs.cartan
    if side == COROOT:
        return rs.coroots, rs.coroot_moves
    raise ValueError(f"side must be 'root' or 'coroot', got {side!r}")


class _Rows:
    """Relation rows, made one at a time as a presentation folds them in,
    that know their number: len() counts them without making them (the
    benchmark's tracer records it per presentation)."""

    def __init__(self, count: int, rows: Iterator[dict[int, int]]):
        self.count, self.rows = count, rows

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[dict[int, int]]:
        return self.rows


def _coinvariant_relations(rs: FiniteRootSystem, left: str, right: str) -> _Rows:
    """{column: entry} rows spanning the (v.e_i) (x) (v.e_j) - e_i (x) e_j,
    v a simple reflection.

    The simple reflection v = r_k moves coordinate k only, on either
    side: v.e_i = e_i - a_i e_k and v.e_j = e_j - b_j e_k, a and b being
    row k of the left and right move tables (see `_side_data`), with
    a_k = b_k = 2 since v negates its own root.  So the row is
    -a_i e_k(x)e_j - b_j e_i(x)e_k + a_i b_j e_k(x)e_k, at most three
    entries.  Where a_i = 0 the rows over j are the -b_j e_i(x)e_k, which
    span gcd(b) e_i(x)e_k, so that one row stands for them; likewise
    gcd(a) e_k(x)e_j for each j with b_j = 0.  The rows with a_i and b_j
    both nonzero are never zero except at i = j = k ((-e_k) (x) (-e_k) =
    e_k (x) e_k), which is skipped.  That leaves z_a + z_b + (l - z_a)(l
    - z_b) - 1 rows per k, z_a and z_b being the numbers of zeros in a
    and b.
    """
    l = rs.rank
    _, moves_left = _side_data(rs, left)
    _, moves_right = _side_data(rs, right)
    moves = list(zip(moves_left, moves_right))

    def rows() -> Iterator[dict[int, int]]:
        for k, (a, b) in enumerate(moves):
            kl, kk = k * l, k * l + k
            ga, gb = gcd(*a), gcd(*b)
            live_b = []
            for j, y in enumerate(b):
                if not y:
                    yield {kl + j: ga}
                elif j != k:
                    live_b.append((j, y))
            for i, x in enumerate(a):
                if not x:
                    yield {i * l + k: gb}
                elif i == k:
                    # -2 e_k(x)e_j - b_j e_k(x)e_k + 2 b_j e_k(x)e_k
                    for j, y in live_b:
                        yield {kl + j: -2, kk: y}
                else:
                    ik = i * l + k
                    # j = k: -a_i e_k(x)e_k - 2 e_i(x)e_k + 2 a_i e_k(x)e_k
                    yield {ik: -2, kk: x}
                    for j, y in live_b:
                        yield {kl + j: -x, ik: -y, kk: x * y}

    count = 0
    for a, b in moves:
        za, zb = a.count(0), b.count(0)
        count += za + zb + (l - za) * (l - zb) - 1
    return _Rows(count, rows())


def _tensor_of(
    rs: FiniteRootSystem, left: str, right: str, i: int, j: int
) -> dict[int, int]:
    """The tensor of root i (left) and root j (right) as a {column: entry} row."""
    l = rs.rank
    vec_left, _ = _side_data(rs, left)
    vec_right, _ = _side_data(rs, right)
    return {
        p * l + q: x * y
        for p, x in enumerate(vec_left[i]) if x
        for q, y in enumerate(vec_right[j]) if y
    }


def coinvariants(rs: FiniteRootSystem, left: str, right: str) -> FPAbelianGroup:
    """L (x)_V L' presented on the l*l basis tensors."""
    l = rs.rank
    return FPAbelianGroup(l * l, _coinvariant_relations(rs, left, right))


def _perp_relation_pairs(rs: FiniteRootSystem, left: str, right: str):
    """Root index pairs whose tensors are killed in the box quotient.

    Same-side quotients kill short perpendicular pairs (short on the
    side in question); the mixed quotient kills all perpendicular pairs.
    Only one left root theta per length class is taken: W is transitive
    on the roots of one length (Humphreys, Lie Algebras, 10.4 Lemma C),
    so a pair (w a, b) is w (a, w^-1 b), the pool is W-stable, and the
    coinvariant relations already identify the tensor of w (a, c) with
    that of (a, c).  For the same reason one right root per orbit of the
    stabilizer W_theta suffices.  Theta is the pool root of greatest
    height, the dominant root of its class, so W_theta is generated by
    the simple reflections that fix it (Humphreys, Reflection Groups and
    Coxeter Groups, 1.12 Thm (c)); the orbits are walked with their
    one-coordinate moves x -> x - <alpha_k^vee, x> e_k.  Exactness needs
    only that each move fixes theta.
    """
    n = len(rs.roots)
    if left == right:
        if left == ROOT:
            pool = [i for i in range(n) if rs.lengths[i] == SHORT]
        else:
            pool = [i for i in range(n) if rs.coroot_length_class(i) == SHORT]
    else:
        pool = list(range(n))
    classes: dict[str, list[int]] = {}
    for i in pool:
        classes.setdefault(rs.lengths[i], []).append(i)
    roots, index = rs.roots, rs._index
    for members in classes.values():
        theta = max(members, key=lambda i: sum(roots[i]))
        top = roots[theta]
        # row k of `cartan` is <alpha_k^vee, .>, r_k's move row, and (theta | .)
        # vanishes where <theta^vee, .> does: no per-root table is built.
        # Both are read through their nonzero entries, the moves' 2-4 and
        # the 1-2 of gram.theta
        fixing = [
            (k, [(c, m) for c, m in enumerate(row) if m])
            for k, row in enumerate(rs.cartan)
            if dot(row, top) == 0
        ]
        form = [(c, f) for c, f in enumerate(mat_vec(rs._gram, top)) if f]
        seen: set[int] = set()
        for j in pool:
            if j in seen:
                continue
            x = roots[j]
            if sum(f * x[c] for c, f in form):
                continue
            yield theta, j
            seen.add(j)
            orbit = [j]
            while orbit:
                x = roots[orbit.pop()]
                for k, move in fixing:
                    s = sum(m * x[c] for c, m in move)
                    if s:
                        y = index[x[:k] + (x[k] - s,) + x[k + 1:]]
                        if y not in seen:
                            seen.add(y)
                            orbit.append(y)


def box_quotient(rs: FiniteRootSystem, left: str, right: str) -> FPAbelianGroup:
    """L [x] L': the coinvariants modulo perpendicular reflection pairs."""
    l = rs.rank
    pairs = list(_perp_relation_pairs(rs, left, right))
    perp = (_tensor_of(rs, left, right, i, j) for i, j in pairs)
    coinv = _coinvariant_relations(rs, left, right)
    return FPAbelianGroup(l * l, _Rows(len(coinv) + len(pairs), chain(coinv, perp)))


def _basis_denominators(rs: FiniteRootSystem, side: str) -> list[int]:
    """d with the side's k-th basis vector e_k = alpha_k / d_k: 1 on the
    root lattice; sym_k * s_k on the coroot lattice, e_k being the coroot
    alpha_k / sym_k, sym_k = (alpha_k | alpha_k) / 2, over s_k, which is 2
    only at BC's halved short simple coroot."""
    if side == ROOT:
        return [1] * rs.rank
    coroots, _ = _side_data(rs, side)  # any side but the two raises here
    return [rs._gram[k][k] // 2 * coroots[b][k] for k, b in enumerate(rs.basis)]


@lru_cache(maxsize=None)
def boxtimes_form(rs: FiniteRootSystem, left: str = COROOT, right: str = COROOT) -> Matrix:
    """The projection of L [x] L' onto its infinite cyclic quotient, as a
    Gram matrix over basis coordinates: x^T gram y is the image of
    x (x) y under the canonical generator.  The coroot form is the
    scalar form behind the cocycle.

    The projection is a W-invariant bilinear form (the box quotient is
    one of the coinvariants) and W acts irreducibly, so it is a rational
    multiple of the invariant form ( | ) (Bourbaki, Lie Groups and Lie
    Algebras, Ch. VI, par. 1); being onto Z, it is the primitive integral
    multiple up to sign.  So gram[i][j] is (alpha_i | alpha_j) / (d_i d'_j)
    (see `_basis_denominators`) scaled to coprime integers, that is
      root, root: `_gram`[i][j];
      root, coroot: `pairing_matrix`[j][i] = <m_j, alpha_i>;
      coroot, coroot: cartan[i][j] / (sym_j s_i s_j).
    The generator sign makes the diagonal value at the first long (or
    only) simple root positive: the multiple taken is the positive
    definite one.
    """
    d_left = _basis_denominators(rs, left)
    d_right = _basis_denominators(rs, right)
    common = lcm(*(x * y for x in d_left for y in d_right))
    gram = [
        [g * (common // (x * y)) for g, y in zip(row, d_right)]
        for row, x in zip(rs._gram, d_left)
    ]
    unit = gcd(*chain.from_iterable(gram))
    return freeze([[g // unit for g in row] for row in gram])


def lattice_embedding_matrix(rs: FiniteRootSystem) -> Matrix:
    """Matrix of the embedding of the root lattice into the coroot lattice.

    A short root goes to its coroot and a long one to k_delta times its
    coroot; this is the unique equivariant scaling (k_delta times the
    identity once both lattices sit in the ambient space), and its image
    is the span of the short-root coroots, squeezed between k_delta
    times the coroot lattice and the coroot lattice itself.  Columns are
    coroot coordinates of the images of the simple roots.  Only defined
    for reduced non-simply-laced types.
    """
    if rs.rs_type.is_single_length() or not rs.rs_type.is_reduced():
        raise RootSystemError(
            f"lattice embedding needs a reduced non-simply-laced type, got {rs.rs_type}"
        )
    k = k_delta(rs.rs_type)
    cols = []
    for b in rs.basis:
        scale = 1 if rs.lengths[b] == SHORT else k
        cols.append(tuple(scale * x for x in rs.coroots[b]))
    return transpose(freeze(cols))


def _bezout(a: int, b: int) -> tuple[int, int]:
    """(x, y) with x*a + y*b = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def _unit_combination(gram: Matrix) -> dict[tuple[int, int], int]:
    """Coefficients c with sum c[i,j]*gram[i][j] = 1 (gram entries have gcd 1)."""
    combo: dict[tuple[int, int], int] = {}
    g = 0
    for i, row in enumerate(gram):
        for j, v in enumerate(row):
            if v == 0:
                continue
            if g == 0:
                g, combo = v, {(i, j): 1}
            elif v % g != 0:
                x, y = _bezout(g, v)
                combo = {k: x * c for k, c in combo.items()}
                combo[(i, j)] = combo.get((i, j), 0) + y
                g = gcd(g, v)
            if g == 1:
                break
        if g == 1:
            break
    if g == -1:
        combo = {k: -c for k, c in combo.items()}
        g = 1
    if g != 1:
        raise RootSystemError("projection does not generate Z")
    return combo


def _multiple(gram: Matrix, base: Matrix) -> int:
    """The integer c with gram == c * base, base a (positive definite) box form."""
    c = gram[0][0] // base[0][0]
    if any(x != c * y for row, brow in zip(gram, base) for x, y in zip(row, brow)):
        raise RootSystemError("box form is not an integer multiple of its source")
    return c


def inclusion_indices(rs: FiniteRootSystem) -> tuple[int, int]:
    """Indices of L [x] L -> L [x] Lv -> Lv [x] Lv under the lattice embedding.

    Each map is multiplication by an integer once the quotients are
    identified with Z: the pulled-back form, gram_lc.phi and
    phi^T.gram_cc, is that multiple of the source gram.  Both integers
    must be nonzero (injectivity), and with the canonical generator
    signs they come out positive.
    """
    phi = lattice_embedding_matrix(rs)
    f_ll = boxtimes_form(rs, ROOT, ROOT)
    f_lc = boxtimes_form(rs, ROOT, COROOT)
    f_cc = boxtimes_form(rs, COROOT, COROOT)
    index_phi = _multiple(mat_mul(f_lc, phi), f_ll)
    index_psi = _multiple(mat_mul(transpose(phi), f_cc), f_lc)
    return index_phi, index_psi


def _dual_family(family: str, rank: int) -> str:
    if family == "B" and rank >= 3:
        return "C"
    if family == "C":
        return "B"
    return family


def expected_tensor_descriptor(rs_type, left: str, right: str) -> str:
    """Expected classification of the coinvariant quotients."""
    fam, l = rs_type.family, rs_type.rank
    if left != right:
        return "Z x Z2" if (fam == "BC" and l >= 2) else "Z"
    eff = fam if left == ROOT else _dual_family(fam, l)
    return "Z x Z2" if (eff in ("B", "BC") and l >= 2) else "Z"

