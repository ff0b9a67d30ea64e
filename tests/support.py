"""Reference implementations that more than one test module compares against.

The package never calls these: the determinant, the Smith and Fraction
eliminations that integer solves, lattice intersections and inverses
used before they ran on the augmented Hermite reduction, the Smith
classification of a presentation from its whole transposed basis, the
box form read off the Smith transform of the box quotient, the dense
root closure with its norms, the whole-table pairing and reflection
builders, the reflection id of a root, the action on extended roots,
the scanning lattice reduction, the span of a slice folded from H and
every coset, the rebase and slice residues that reduced each coset
again, the closure letters taken one per coset of a slice, the mod-m
pass read through a Hermite basis of each slice's residues, the chains
and R3' read coset by coset over the common refinement, the checks of
validate and the per-system caches as they ran before a slice that is
Z^n was settled from its span's index (R1' folded, R2' by contains, the
modulus tested per basis vector, the chains through lattice_subset,
the orbit lattice folded and the mod-m image walked), seeded re-presentations of a system's JSON,
the pairing and the reflection of root-lattice vectors, and the
paper's symmetric systems with their reflection-group axioms and
permutation closures for small finite systems (the terminal group).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from extweyl import lattice_algebra
from extweyl.ext_root import ExtRootSystem, SSet, ValidationReport, _class_pair_gcds, _index
from extweyl.intlinalg import (
    Matrix,
    Vector,
    _residues_between,
    check_quotient_index,
    coset_residues,
    dims,
    dot,
    freeze,
    hermite_rows,
    lattice_contains,
    lattice_reduce,
    lattice_subset,
    mat_vec,
    smith_normal_form,
    sparse_rows,
    transpose,
    vec_mat,
    vec_scale,
    zeros,
)
from extweyl.root_core import EXTRALONG, LONG, SHORT, FiniteRootSystem, RootSystemError, k_delta
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


def kernel_basis(m: Sequence[Sequence[int]]) -> list[Vector]:
    """Integer basis of {x : m @ x = 0} (column vectors, returned as tuples)."""
    nr, nc = dims(m)
    if nc == 0:
        return []
    d, _, q = smith_normal_form(m)
    rank = sum(1 for i in range(min(nr, nc)) if d[i][i] != 0)
    qt = transpose(q)
    return [qt[j] for j in range(rank, nc)]


def solve_integer_smith(rows: Sequence[Sequence[int]], target: Sequence[int]) -> Vector | None:
    """Integer c with sum c_i * rows_i = target, or None: the Smith form
    of the matrix whose columns are the rows."""
    if not rows or not target:
        return None if any(target) else (0,) * len(rows)
    m = transpose(freeze(rows))
    nr, nc = dims(m)
    d, p, q = smith_normal_form(m)
    pw = mat_vec(p, target)
    y = [0] * nc
    for i in range(nr):
        di = d[i][i] if i < min(nr, nc) else 0
        if di == 0:
            if pw[i] != 0:
                return None
        else:
            if pw[i] % di != 0:
                return None
            y[i] = pw[i] // di
    return mat_vec(q, y)


def lattice_intersection_smith(
    a_rows: Sequence[Sequence[int]], b_rows: Sequence[Sequence[int]]
) -> list[Vector]:
    """Hermite basis of the intersection of two row-span lattices, from
    the left kernel of the stacked rows (a | -b)."""
    a = freeze(a_rows)
    b = freeze(b_rows)
    if not a or not b:
        return []
    stacked = a + tuple(tuple(-x for x in r) for r in b)
    # left kernel of `stacked`: rows (u | v) with u @ a == v @ b
    gens = [vec_mat(w[: len(a)], a) for w in kernel_basis(transpose(stacked))]
    return hermite_rows(len(a[0]), sparse_rows(gens))


def classify_smith(
    n: int, relations: Sequence[Mapping[int, int]]
) -> tuple[list[int], tuple[int, ...], int, list[tuple[Vector, Vector]]]:
    """Z^n / (row span of relations) from the Smith form of its whole
    transposed Hermite basis: (invariant_factors, torsion, free_rank) as
    `FPAbelianGroup` reads them, and the image (free part, torsion part)
    of each generator e_k under the Smith transform p."""
    rel = hermite_rows(n, relations)
    d, p, _ = smith_normal_form(transpose(rel) or zeros(n, 1))
    diag = [d[i][i] for i in range(min(dims(d)))]
    torsion = tuple(x for x in diag if x > 1)
    free_rank = n - sum(1 for x in diag if x != 0)
    images = []
    for k in range(n):
        y = [row[k] for row in p]
        free = tuple(x for i, x in enumerate(y) if i >= len(diag) or diag[i] == 0)
        tors = tuple(x % diag[i] for i, x in enumerate(y) if i < len(diag) and diag[i] > 1)
        images.append((free, tors))
    return list(torsion) + [0] * free_rank, torsion, free_rank, images


def box_form_smith(rs: FiniteRootSystem, left: str, right: str) -> Matrix:
    """The box form's Gram matrix read off the presentation: the images
    of the basis tensors under the Smith transform of `box_quotient`,
    signed so that the diagonal value at the first long (or only) simple
    root is positive."""
    fp = lattice_algebra.box_quotient(rs, left, right)
    if fp.free_rank != 1 or fp.torsion:
        raise RootSystemError(
            f"box quotient of {rs.rs_type} ({left},{right}) is {fp.descriptor()}, "
            "expected Z"
        )
    l = rs.rank
    images = list(fp.generator_images())
    gram = [[images[i * l + j][0][0] for j in range(l)] for i in range(l)]
    anchor = None
    for b in rs.basis:
        if rs.lengths[b] == LONG:
            anchor = b
            break
    if anchor is None:
        anchor = rs.basis[0]
    vecs_l, _ = lattice_algebra._side_data(rs, left)
    vecs_r, _ = lattice_algebra._side_data(rs, right)
    val = dot(vecs_l[anchor], mat_vec(freeze(gram), vecs_r[anchor]))
    if val == 0:
        raise RootSystemError("degenerate box form anchor")
    if val < 0:
        gram = [[-x for x in row] for row in gram]
    return freeze(gram)


def mat_inv_fraction(m: Sequence[Sequence[int]]) -> Matrix:
    """Inverse of an integer matrix by Gauss-Jordan over the rationals;
    ValueError if it is singular or the inverse is not integral."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    out = []
    for i in range(n):
        row = []
        for j in range(n, 2 * n):
            x = a[i][j]
            if x.denominator != 1:
                raise ValueError("inverse is not integral")
            row.append(int(x))
        out.append(tuple(row))
    return tuple(out)


def members_in_subspace_smith(
    sset: SSet, idx: set[int], n: int
) -> tuple[set[Vector], list[Vector]]:
    """The cosets of S that meet G_idx and the Hermite basis of the span
    of S cap G_idx, one Smith solve per coset."""
    axis = [tuple(int(j == i) for j in range(n)) for i in sorted(idx)]
    gens = lattice_intersection_smith(sset.h_basis, axis)
    proj = [i for i in range(n) if i not in idx]
    rows = [tuple(r[i] for i in proj) for r in sset.h_basis]
    met = set()
    for c in sset.cosets:
        # a member c + sol.H vanishes off idx
        sol = solve_integer_smith(rows, tuple(-c[i] for i in proj))
        if sol is not None:
            met.add(c)
            gens.append(tuple(
                x + sum(s * r[j] for s, r in zip(sol, sset.h_basis)) for j, x in enumerate(c)
            ))
    return met, hermite_rows(n, sparse_rows(gens))


def lattice_reduce_scan(hnf: Sequence[Sequence[int]], v: Sequence[int]) -> Vector:
    """Canonical representative of v modulo the rows of an echelon basis,
    each row's pivot found by scanning it from column 0."""
    out = v
    for row in hnf:
        for pcol, p in enumerate(row):
            if p:
                break
        f = out[pcol] // p
        if f:
            out = [x - f * y for x, y in zip(out, row)]
    return tuple(out)


def span_by_fold(sset: SSet) -> tuple[Vector, ...]:
    """SSet.span as one Hermite reduction of the rows of H and every
    coset, a slice that holds every coset of H included."""
    return tuple(hermite_rows(sset.rank, sparse_rows(sset.h_basis + sset.cosets)))


def rebase_reducing(sset: SSet, h_basis) -> SSet:
    """sset over the finer modulus h_basis, built through SSet: the
    residues of coset_residues are reduced again, onto H itself too."""
    fine = hermite_rows(sset.rank, sparse_rows(h_basis))
    if not lattice_subset(fine, sset.h_basis):
        raise ValueError("new modulus must refine the old one")
    return SSet(fine, coset_residues(fine, sset.cosets, sset.h_basis))


def slice_residues_mod_lattice(ers: ExtRootSystem, m: int) -> dict[str, list[Vector]]:
    """The sorted image of every slice in G/mG, each coset reduced modulo
    the Hermite basis of m*Z^n by coset_residues."""
    n = ers.n
    mod_h = hermite_rows(n, [{i: m} for i in range(n)])
    return {
        cls: sorted(coset_residues(mod_h, ers.s_sets[cls].cosets, ers.s_sets[cls].h_basis))
        for cls in ers.classes()
    }


def closure_letters_per_coset(ers: ExtRootSystem, m: int) -> list[tuple[tuple, tuple, Vector]]:
    """The letters (pairing row, reflection row, d) of weyl.closure_letters
    taken one per coset of each slice: for each simple root alpha, d = each
    coset representative c_i of S_alpha and d = c_0 + h for each basis
    row h of H_alpha, reduced mod m and deduplicated."""
    rs = ers.delta
    by_class = {}
    for cls in ers.classes():
        s = ers.s_sets[cls]
        c0 = s.cosets[0]
        ds = list(s.cosets) + [tuple(x + y for x, y in zip(c0, h)) for h in s.h_basis]
        by_class[cls] = sorted({tuple(x % m for x in d) for d in ds})
    return [
        (rs.pairing_table[alpha], rs.reflection_table[alpha], d)
        for alpha in rs.basis
        for d in by_class[rs.lengths[alpha]]
    ]


def slices_mod_per_coset(ers: ExtRootSystem, m: int) -> dict[str, tuple[tuple, tuple]]:
    """ExtRootSystem.slices_mod with every slice read through its cosets
    and the rows of its H, a lattice slice too, each residue reduced
    modulo the Hermite basis L of m*Z^n and those rows, the image
    enumerated between m*Z^n and L, and the letters' b over the Hermite
    basis of L and the differences of the residues; not cached."""
    n = ers.n
    check_quotient_index(m**n)
    mod_h = [tuple(m * (i == j) for j in range(n)) for i in range(n)]
    out = {}
    for cls in ers.classes():
        s = ers.s_sets[cls]
        reps = {tuple(x % m for x in c) for c in s.cosets}
        gens = [h for h in {tuple(x % m for x in r) for r in s.h_basis} if any(h)]
        big = mod_h
        if gens:
            big = hermite_rows(n, sparse_rows(mod_h + gens))
            reps = {lattice_reduce(big, r) for r in reps}
        c0 = min(reps)
        diffs = ([x - y for x, y in zip(c, c0)] for c in reps if c != c0)
        hull = hermite_rows(n, sparse_rows([*big, *diffs])) if len(reps) > 1 else big
        points = {c0, *(tuple((x + y) % m for x, y in zip(c0, b)) for b in hull)}
        image = _residues_between(mod_h, big, reps)
        out[cls] = (tuple(sorted(image)), tuple(sorted(points)))
    return out


def chain_over_refined(ers: ExtRootSystem, lower: str, upper: str, mult: int) -> bool:
    """mult*S_lower <= S_upper <= S_lower decided in G/H* on
    ExtRootSystem.refined, whatever the slices are: mult*S_lower
    enumerated by coset_residues over mult times its cosets and H*."""
    up, lo = ers.refined[upper], ers.refined[lower]
    scaled = coset_residues(
        up.h_basis,
        [vec_scale(mult, c) for c in lo.cosets],
        [vec_scale(mult, h) for h in lo.h_basis],
    )
    return set(up.cosets) <= set(lo.cosets) and scaled <= set(up.cosets)


def reflection_stability_over_refined(ers: ExtRootSystem) -> tuple[bool, str]:
    """R3' as validate reports it, every slice read through its residues
    modulo H* (ExtRootSystem.refined): each pair of length classes is
    decided at the gcd of its pairings by subtracting g*r, r a row of the
    span of S_alpha, from every coset of S_beta; on a failing pair the
    witness is the first triple met by the per-coset scan."""
    delta = ers.delta
    refined = ers.refined
    spans = {c: s.span for c, s in ers.s_sets.items()}
    hstar = next(iter(refined.values())).h_basis
    coset_sets = {c: set(s.cosets) for c, s in refined.items()}

    def holds(cls_a, cls_b, m):
        sb = coset_sets[cls_b]
        return m == 0 or all(
            lattice_reduce(hstar, [a - m * b for a, b in zip(cb, r)]) in sb
            for r in spans[cls_a]
            for cb in sb
        )

    if all(holds(*pair, g) for pair, g in _class_pair_gcds(delta).items()):
        return True, ""
    lengths, table = delta.lengths, delta.pairing_table
    for alpha in delta.basis:
        cls_a = lengths[alpha]
        for beta, m in enumerate(table[alpha]):
            cls_b = lengths[beta]
            if holds(cls_a, cls_b, m):
                continue
            for cb in coset_sets[cls_b]:
                for da in coset_sets[cls_a]:
                    img = lattice_reduce(hstar, [a - m * b for a, b in zip(cb, da)])
                    if img not in coset_sets[cls_b]:
                        return False, (
                            f"S_{cls_b} - ({m})*S_{cls_a} leaves S_{cls_b}: "
                            f"{cb} - {m}*{da} = {img}"
                        )
    return True, ""


def r1_by_fold(ers: ExtRootSystem) -> tuple[bool, str]:
    """R1' as validate reports it, (passed, witness), from one Hermite
    reduction of the rows of every slice span, a span that is Z^n too."""
    full = hermite_rows(ers.n, sparse_rows(r for s in ers.s_sets.values() for r in s.span))
    index = _index(full)
    return index == 1, "" if index == 1 else f"span index {index}"


def r2_by_contains(ers: ExtRootSystem) -> dict[str, bool]:
    """R2' per length class but the extralong one: SSet.contains(0), a
    lattice slice too."""
    zero = (0,) * ers.n
    return {c: ers.s_sets[c].contains(zero) for c in ers.classes() if c != EXTRALONG}


def modulus_by_basis_vectors(ers: ExtRootSystem) -> dict[str, bool]:
    """k^2*G <= H per length class, each k^2*e_i tested by lattice_contains
    (k^2 = 4 for single-length types, as validate takes it)."""
    t = ers.delta.rs_type
    kk = 4 if t.is_single_length() else k_delta(t) ** 2
    return {
        c: all(
            lattice_contains(ers.s_sets[c].h_basis, vec_scale(kk, ers.group.basis_vector(i)))
            for i in range(ers.n)
        )
        for c in ers.classes()
    }


def chain_through_spans(ers: ExtRootSystem, lower: str, upper: str, mult: int) -> bool:
    """ext_root._chain_holds with every inclusion into a lattice slice
    decided by lattice_subset on the spans, into Z^n too."""
    lo, up = ers.s_sets[lower], ers.s_sets[upper]
    if up.is_lattice:
        scaled = lattice_subset([vec_scale(mult, r) for r in lo.span], up.span)
    else:
        fine_lo, fine_up = ers.refined[lower], ers.refined[upper]
        scaled = coset_residues(
            fine_up.h_basis,
            [vec_scale(mult, c) for c in fine_lo.cosets],
            [vec_scale(mult, h) for h in fine_lo.h_basis],
        ) <= set(fine_up.cosets)
    if lo.is_lattice:
        inside = lattice_subset(up.span, lo.span)
    else:
        inside = set(ers.refined[upper].cosets) <= set(ers.refined[lower].cosets)
    return inside and scaled


def orbit_rows_by_fold(ers: ExtRootSystem) -> dict[str, list[Vector]]:
    """ExtRootSystem.orbit_rows as one Hermite reduction per length class
    of gcd * <S_alpha> over the simple alpha, spans of Z^n included."""
    rs = ers.delta
    return {
        cls: hermite_rows(ers.n, sparse_rows(
            vec_scale(rs.class_gcds[alpha, cls], r)
            for alpha in rs.basis
            for r in ers.s_of_root(alpha).span
        ))
        for cls in ers.classes()
    }


def slices_mod_by_walk(ers: ExtRootSystem, m: int) -> dict[str, tuple[tuple, tuple]]:
    """ExtRootSystem.slices_mod with every image found by the walk of the
    slice's residues mod m over the subgroup B its rows generate, a slice
    that is Z^n too; not cached."""
    n = ers.n
    check_quotient_index(m**n)
    zero = (0,) * n
    out = {}
    for cls in ers.classes():
        s = ers.s_sets[cls]
        rows, cosets = (s.span, [zero]) if s.is_lattice else (s.h_basis, s.cosets)
        gens = [h for h in {tuple(x % m for x in r) for r in rows} if any(h)]
        group = [zero]
        for b in gens:
            inside, shifted = set(group), group
            while True:
                shifted = [tuple((x + y) % m for x, y in zip(v, b)) for v in shifted]
                if shifted[0] in inside:
                    break
                group += shifted
        image, firsts = set(), []
        for c in sorted({tuple(x % m for x in c) for c in cosets}):
            if c not in image:
                firsts.append(c)
                image.update(tuple((x + y) % m for x, y in zip(c, v)) for v in group)
        c0 = firsts[0]
        if len(firsts) > 1:
            diffs = ([x - y for x, y in zip(c, c0)] for c in firsts[1:])
            gens = hermite_rows(n, [*({i: m} for i in range(n)), *sparse_rows([*gens, *diffs])])
        points = {c0, *(tuple((x + y) % m for x, y in zip(c0, b)) for b in gens)}
        out[cls] = (tuple(sorted(image)), tuple(sorted(points)))
    return out


def represent_again(data: dict, rng) -> dict:
    """Another presentation of the system JSON `data`: each H under
    unimodular row operations, each coset representative shifted by an
    element of H, the cosets shuffled."""
    out = {**data, "s_sets": {}}
    for key, s in data["s_sets"].items():
        rows = [list(r) for r in s["H"]]
        for _ in range(2 * len(rows) if len(rows) > 1 else 0):
            a, b = rng.sample(range(len(rows)), 2)
            f = rng.choice((-2, -1, 1, 2))
            rows[a] = [x + f * y for x, y in zip(rows[a], rows[b])]
        if rows:
            i = rng.randrange(len(rows))
            rows[i] = [-x for x in rows[i]]
        cosets = []
        for c in s["cosets"]:
            for r in rows:
                f = rng.randint(-2, 2)
                c = [x + f * y for x, y in zip(c, r)]
            cosets.append(c)
        rng.shuffle(cosets)
        out["s_sets"][key] = {"H": rows, "cosets": cosets}
    return out


def root_norm(rs: FiniteRootSystem, x: Vector) -> int:
    """(x | x) under the invariant form on root coordinates."""
    return dot(x, mat_vec(rs._gram, x))


def dense_root_data(rs: FiniteRootSystem) -> tuple:
    """(roots, coroots, lengths, basis) by the dense root closure: each
    simple reflection pairs a root with its whole move row, and each root's
    length class is read off its own `root_norm`."""
    l, family = rs.rank, rs.rs_type.family
    e = [tuple(int(i == k) for i in range(l)) for k in range(l)]
    scale = [1] * (l - 1) + [2 if family == "BC" else 1]
    queue = [(e[k], tuple(s * x for x in e[k])) for k, s in enumerate(scale)]
    if family == "BC":
        queue.append((tuple(2 * x for x in e[-1]), e[-1]))
    seen = {}
    while queue:
        root, coroot = queue.pop()
        if root in seen:
            continue
        seen[root] = coroot
        for k, (row, corow) in enumerate(zip(rs.cartan, rs.coroot_moves)):
            s = dot(row, root)
            if s:
                nr = root[:k] + (root[k] - s,) + root[k + 1:]
                if nr not in seen:
                    t = coroot[k] - dot(corow, coroot)
                    queue.append((nr, coroot[:k] + (t,) + coroot[k + 1:]))
    pairs = sorted(seen.items())
    roots = tuple(r for r, _ in pairs)
    norms = [root_norm(rs, r) for r in roots]
    levels = sorted(set(norms))
    if family == "BC":
        names = [SHORT, LONG, EXTRALONG] if len(levels) == 3 else [SHORT, EXTRALONG]
    else:
        names = [SHORT, LONG][: len(levels)]
    label = dict(zip(levels, names))
    basis = tuple(roots.index(x) for x in e)
    return roots, tuple(c for _, c in pairs), tuple(label[n] for n in norms), basis


def pairing(rs: FiniteRootSystem, i: int, lam: Vector) -> int:
    """<alpha_i^vee, lam> for lam in the root lattice: the coroot's linear
    form on root coordinates, dotted with lam."""
    return dot(vec_mat(rs.coroots[i], rs.pairing_matrix), lam)


def reflect(rs: FiniteRootSystem, i: int, lam: Vector) -> Vector:
    """r_i(lam) = lam - <alpha_i^vee, lam> alpha_i on root coordinates."""
    c = pairing(rs, i, lam)
    return tuple(x - c * a for x, a in zip(lam, rs.roots[i]))


def whole_pairing_table(rs: FiniteRootSystem, rows=None) -> tuple[tuple[int, ...], ...]:
    """The rows of <alpha_i^vee, alpha_j> (all rows by default), each entry
    a dense dot of the coroot's linear form with the root."""
    pt = transpose(rs.pairing_matrix)
    rows = range(len(rs.roots)) if rows is None else rows
    forms = [mat_vec(pt, rs.coroots[i]) for i in rows]
    return tuple(tuple(dot(form, r) for r in rs.roots) for form in forms)


def whole_reflection_table(rs: FiniteRootSystem, rows=None) -> tuple[tuple[int, ...], ...]:
    """The rows of index(r_i(alpha_j)) (all rows by default), each entry
    the index of the reflected root vector."""
    rows = range(len(rs.roots)) if rows is None else rows
    return tuple(
        tuple(
            rs.index_of(tuple(b - c * a for a, b in zip(rs.roots[i], bj)))
            for bj, c in zip(rs.roots, prow)
        )
        for i, prow in zip(rows, whole_pairing_table(rs, rows))
    )


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
