"""The Weyl group of an extended root system as a cocycle extension.

Elements are triples (z, k, v): v in the finite Weyl group, k in the
translation part, and z a central coordinate in the second exterior
power of the extension group, tensored against the infinite cyclic box
quotient of the coroot lattice.  The multiplication twists the central
part by the alternating bihomomorphism

    c(g (x) mu, h (x) nu) = (g /\\ h) * b(mu, nu),

b being the box form.  Because b kills perpendicular reflection pairs
and g /\\ g = 0, the generator images square to the identity and satisfy
the conjugation axiom, so this really is a reflection group over the
labels.

Orbit classification, the abelianization layers, and the word-problem
decider live here as well.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, groupby, product

from extweyl.ext_root import ExtRootError, ExtRootSystem
from extweyl.intlinalg import (
    FPAbelianGroup,
    Matrix,
    Vector,
    check_quotient_index,
    coset_residues,
    dot,
    freeze,
    hermite_rows,
    is_zero_mat,
    lattice_contains,
    lattice_reduce,
    mat_mul,
    mat_vec,
    solve_integer,
    transpose,
    vec_scale,
    zeros,
)
from extweyl.lattice_algebra import boxtimes_form
from extweyl.refl_groups import ReflectionLabel, conj_reflect, label_k_part
from extweyl.root_core import SHORT, WeylElement


def cocycle(ers: ExtRootSystem, k1: Matrix, k2: Matrix) -> Matrix:
    """c(k1, k2) as an antisymmetric matrix over the group basis.

    Expanding k = sum_a e_a (x) mu_a, the value is the antisymmetric
    part of the matrix of box-form values between the rows.
    """
    n = ers.n
    if len(k1) != n or len(k2) != n:
        raise ExtRootError("K-matrix rows must match the group rank")
    gram = boxtimes_form(ers.delta).gram
    x = mat_mul(mat_mul(k1, gram), transpose(k2))
    return freeze(
        [[x[a][b] - x[b][a] for b in range(n)] for a in range(n)]
    )


class WElement:
    """An element (z, k, v) of the cocycle-extended Weyl group.

    z is an antisymmetric n x n integer matrix, k an n x l matrix over
    the coroot basis, and v a WeylElement, the permutation of the roots;
    v moves k's rows by its `coroot_images`.  Dropping z gives the
    element (k, v) of the terminal reflection group, the quotient by
    the centre; checks at that level compare (k, v) only.
    """

    __slots__ = ("z", "k", "v", "_ers")

    def __init__(self, ers: ExtRootSystem, z: Matrix, k: Matrix, v: WeylElement):
        self._ers = ers
        self.z = z
        self.k = k
        self.v = v

    @staticmethod
    def identity(ers: ExtRootSystem) -> "WElement":
        n, rs = ers.n, ers.delta
        return WElement(ers, zeros(n, n), zeros(n, rs.rank), WeylElement.identity(rs))

    def __mul__(self, other: "WElement") -> "WElement":
        moved = mat_mul(other.k, self.v.coroot_images)
        zc = cocycle(self._ers, self.k, moved)
        z = tuple(
            tuple(a + b + c for a, b, c in zip(r1, r2, r3))
            for r1, r2, r3 in zip(self.z, other.z, zc)
        )
        k = tuple(
            tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.k, moved)
        )
        return WElement(self._ers, z, k, self.v * other.v)

    def inv(self) -> "WElement":
        vi = self.v.inv()
        k = tuple(tuple(-x for x in row) for row in mat_mul(self.k, vi.coroot_images))
        z = tuple(tuple(-x for x in row) for row in self.z)
        return WElement(self._ers, z, k, vi)

    def is_identity(self) -> bool:
        return is_zero_mat(self.z) and is_zero_mat(self.k) and self.v.is_identity()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WElement)
            and self.z == other.z
            and self.k == other.k
            and self.v == other.v
        )

    def __hash__(self) -> int:
        return hash((self.z, self.k, self.v))

    def __repr__(self) -> str:  # pragma: no cover
        return f"WElement(z={self.z}, k={self.k}, v={self.v.matrix})"


def w_generator(ers: ExtRootSystem, t: ReflectionLabel) -> WElement:
    return WElement(
        ers, zeros(ers.n, ers.n), label_k_part(ers, t), ers.delta.weyl_generator(t.root)
    )


def evaluate_word_in_w(ers: ExtRootSystem, word) -> WElement:
    out = WElement.identity(ers)
    for t in word:
        out = out * w_generator(ers, t)
    return out


def act_on_root(ers: ExtRootSystem, w: WElement, h, root_idx: int) -> tuple[Vector, int]:
    """The action (h, beta) -> (h + k(v.beta), v.beta); z acts trivially."""
    rs = ers.delta
    new_idx = w.v.perm[root_idx]
    shift = mat_vec(w.k, mat_vec(rs.pairing_matrix, rs.roots[new_idx]))
    return tuple(x + y for x, y in zip(h, shift)), new_idx


# ---------------------------------------------------------------------------
# Orbits of extended roots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitClass:
    length_class: str
    coset: Vector


def orbit_of(ers: ExtRootSystem, g, root_idx: int) -> OrbitClass:
    """The orbit class of an extended root (g, beta) under the full group.

    Two extended roots lie in one orbit iff they share a length class and
    a coset modulo its `ExtRootSystem.orbit_rows`, on any valid reduced system.
    """
    if not ers.delta.rs_type.is_reduced():
        raise ExtRootError("orbit classification needs a reduced type; trim first")
    g = tuple(int(x) for x in g)
    if not ers.membership(g, root_idx):
        raise ExtRootError(f"({g}, root {root_idx}) is not in the extended system")
    cls = ers.delta.lengths[root_idx]
    return OrbitClass(cls, lattice_reduce(ers.orbit_rows[cls], g))


_BRUTE_MODULUS = {"A": 2, "B": 2, "C": 2, "D": 2, "E": 2, "F": 2, "G": 6}


def default_brute_modulus(ers: ExtRootSystem) -> int:
    """A scalar m with m*G inside every orbit lattice T_cls, so closures
    in G/mG never merge distinct orbits: each gcd in `orbit_rows` is 1 or
    2, or 3 in G2, so it divides m, and R1' makes the slice spans sum to
    G.  This holds for every valid reduced system."""
    return _BRUTE_MODULUS[ers.delta.rs_type.family]


def slice_residues_by_class(ers: ExtRootSystem, m: int) -> dict[str, list[Vector]]:
    """The sorted image of every slice in G/mG, keyed by length class."""
    n = ers.n
    mod_h = hermite_rows([vec_scale(m, ers.group.basis_vector(i)) for i in range(n)])
    out = {}
    for cls in ers.classes():
        s = ers.s_sets[cls]
        out[cls] = sorted(coset_residues(mod_h, s.cosets, s.h_basis))
    return out


def closure_letters(ers: ExtRootSystem, m: int) -> list[tuple[tuple, tuple, Vector]]:
    """The letters (pairing row, reflection row, d) that orbit_bruteforce
    closes under: the reflections r_(alpha,d) for each simple root alpha.

    For a slice S_alpha = U (c_i + H_alpha) the letters take d = each
    coset representative c_i and d = c_0 + h for each basis row h of
    H_alpha, reduced mod m and deduplicated.  That generates the same
    group as every d in S_alpha: r_(alpha,c) r_(alpha,c+h) acts as
    (x, beta) -> (x - <beta, alpha^v> h, beta), a translation t_h that
    does not depend on c, with t_h t_h' = t_(h+h'); so every
    r_(alpha,c_i+h) = r_(alpha,c_i) t_h is a word in the letters.  The
    letters are involutions, so the closure under them is the orbit, at
    a cost linear in the letters and not in the residues.
    """
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


def closure_steps(ers: ExtRootSystem, m: int) -> tuple[list[Vector], list[list[tuple]]]:
    """closure_letters(ers, m) on state codes: the sorted grid G/mG, where
    (h, beta) has the code index(h) * N + beta for N roots, and per root
    beta the steps (table, images[beta]), table[index(h)] = index(h -
    pairs[beta]*d mod m), of the letters (pairs, images, d): one table per
    shift, one step per shift and simple root.  Checks m^n before building."""
    check_quotient_index(m**ers.n)
    tables, steps = {}, [[] for _ in ers.delta.roots]
    for (pairs, images), group in groupby(closure_letters(ers, m), lambda letter: letter[:2]):
        ds = [d for _, _, d in group]
        shifts = {c: {tuple(c * y % m for y in d) for d in ds} for c in set(pairs)}
        for shift in set().union(*shifts.values()) - tables.keys():
            tables[shift] = [0]
            for t in shift:
                tables[shift] = [a * m + (x - t) % m for a in tables[shift] for x in range(m)]
        for row, c, image in zip(steps, pairs, images):
            row += [(tables[s], image) for s in shifts[c]]
    return list(product(range(m), repeat=ers.n)), steps


def orbit_bruteforce(
    ers: ExtRootSystem, g, root_idx: int, modulus: int | None = None, steps=None
) -> set[tuple[Vector, int]]:
    """Closure of one extended root under closure_letters(ers, m),
    computed on the state codes of closure_steps in the finite G/mG.

    This is the independent oracle for orbit_of: the closure collects
    exactly the orbit as long as m*G sits inside T_cls (see
    closure_letters for why those letters suffice).  A caller closing
    several starts of one system builds the steps once and passes them.
    """
    if not ers.delta.rs_type.is_reduced():
        raise ExtRootError("orbit closure needs a reduced type; trim first")
    m = modulus if modulus is not None else default_brute_modulus(ers)
    grid, steps = steps if steps is not None else closure_steps(ers, m)
    n_roots = len(steps)
    # the canonical residue modulo m*Z^n is the coordinatewise one
    start = bisect_left(grid, tuple(x % m for x in g)) * n_roots + root_idx
    seen, stack = {start}, [start]
    while stack:
        h, beta = divmod(stack.pop(), n_roots)
        for table, image in steps[beta]:
            state = table[h] * n_roots + image
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return {(grid[s // n_roots], s % n_roots) for s in seen}


def orbit_classes(
    ers: ExtRootSystem,
) -> tuple[dict[tuple[str, Vector], tuple[Vector, int]], bool]:
    """The orbit classes of a reduced system, each checked by a closure
    in G/mG, m = default_brute_modulus(ers).

    Returns the classes, each (length class, coset) mapped to its first
    representative (d, beta) on the grid of extended roots mod m, and
    whether every class equals the orbit_bruteforce closure of that
    representative under closure_letters on the grid.
    """
    m = default_brute_modulus(ers)
    rs = ers.delta
    # orbit_of depends on beta only through its length class, so it is
    # asked once per (class, residue) of the grid, with the first root of
    # the class; each closure state is looked up there, and one off the
    # grid has left the system
    class_of = {}
    classes = {}
    grid_states = {}
    for cls, ds in slice_residues_by_class(ers, m).items():
        beta = rs.lengths.index(cls)
        n_roots = rs.lengths.count(cls)
        for d in ds:
            oc = orbit_of(ers, d, beta)
            class_of[cls, d] = key = (oc.length_class, oc.coset)
            classes.setdefault(key, (d, beta))
            grid_states[key] = grid_states.get(key, 0) + n_roots
    steps = closure_steps(ers, m)
    agree = True
    for key, (d, beta) in classes.items():
        closure = orbit_bruteforce(ers, d, beta, m, steps)
        inside = all(class_of.get((rs.lengths[b], h)) == key for h, b in closure)
        # inside the class and as large as it on the grid: equal to it
        if not inside or len(closure) != grid_states[key]:
            agree = False
    return classes, agree


# ---------------------------------------------------------------------------
# Abelianization layers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UabVector:
    """A parity vector over orbit classes: the set of classes with odd count."""

    odd_classes: frozenset

    def is_zero(self) -> bool:
        return not self.odd_classes


def uab_of_word(ers: ExtRootSystem, word) -> UabVector:
    odd: set[OrbitClass] = set()
    for t in word:
        cls = orbit_of(ers, t.g, t.root)
        if cls in odd:
            odd.remove(cls)
        else:
            odd.add(cls)
    return UabVector(frozenset(odd))


class AbKGroup:
    """K / K_eff for a tame reduced system, with its projection map."""

    def __init__(self, ers: ExtRootSystem):
        rs = ers.delta
        if not rs.rs_type.is_reduced():
            raise ExtRootError("the abelianized translation part needs a reduced type")
        n, l = ers.n, rs.rank
        gens: list[Vector] = []
        for cls in ers.classes():
            span = ers.s_sets[cls].span
            roots_in_cls = [i for i in range(len(rs.roots)) if rs.lengths[i] == cls]
            for u in span:
                for i in roots_in_cls:
                    mat = [[u[a] * rs.coroots[i][b] for b in range(l)] for a in range(n)]
                    gens.append(tuple(x for row in mat for x in row))
        basis = hermite_rows(gens)
        self._k_basis = freeze(basis)
        # r_k moves coroot coordinate k only, by the move row m_k: so
        # b - b.r_k^T is zero except column k, which holds <m_k, b_a> in
        # row a
        eff_rows = []
        for b in basis:
            rows = [b[a * l : (a + 1) * l] for a in range(n)]
            for k, m in enumerate(rs.coroot_moves):
                shift = [dot(m, row) for row in rows]
                diff = tuple(shift[a] * (c == k) for a in range(n) for c in range(l))
                eff_rows.append(self._coords(diff))
        self.fp = FPAbelianGroup(len(basis), eff_rows)

    def _coords(self, flat: Vector) -> Vector:
        if not self._k_basis:
            return ()
        sol = solve_integer(transpose(self._k_basis), flat)
        if sol is None:
            raise ExtRootError("matrix outside the translation lattice")
        return sol

    def project_k(self, k: Matrix) -> tuple[Vector, Vector]:
        flat = tuple(x for row in k for x in row)
        return self.fp.project(self._coords(flat))

    def descriptor(self) -> str:
        return self.fp.descriptor()


def expected_ab_k_descriptor(ers: ExtRootSystem) -> str:
    """Closed form for K / K_eff of the standard tame systems."""
    fam = ers.delta.rs_type.family
    l = ers.delta.rank
    n1, n2 = len(ers.group.g1), len(ers.group.g2)
    n = ers.n
    if fam == "A" and l == 1:
        count = n
    elif fam == "B" and l == 2:
        count = n
    elif fam == "B":
        count = n1
    elif fam == "C":
        count = n2
    else:
        count = 0
    return " x ".join(["Z2"] * count) if count else "0"


def ab_a_properness(ers: ExtRootSystem) -> bool:
    """Exhaustively verify that distinct orbit classes stay distinct in
    the abelianized terminal group.

    The image of a reflection class there is (k mod K_eff, length
    class); the finite part alone already separates length classes and
    never vanishes, so the content of the check is that the projection
    of g (x) alpha^vee separates the cosets within each class, and that
    it is constant on each class.
    """
    abk = AbKGroup(ers)
    by_image: dict = {}
    for cls in ers.classes():
        root = ers.delta.lengths.index(cls)
        row_h = ers.orbit_rows[cls]
        s = ers.s_sets[cls]
        for rep in sorted(coset_residues(row_h, s.cosets, s.h_basis)):
            t = ReflectionLabel.make(ers, rep, root)
            image = (cls, abk.project_k(label_k_part(ers, t)))
            oc = orbit_of(ers, rep, root)
            if image in by_image and by_image[image] != oc:
                return False
            by_image[image] = oc
            # well-definedness: shifting the representative inside its
            # orbit coset must not move the image
            for shift in row_h:
                moved = tuple(x + y for x, y in zip(rep, shift))
                if not ers.membership(moved, root):
                    continue
                t2 = ReflectionLabel.make(ers, moved, root)
                image2 = (cls, abk.project_k(label_k_part(ers, t2)))
                if image2 != image:
                    return False
    return True


# ---------------------------------------------------------------------------
# The word problem
# ---------------------------------------------------------------------------


@dataclass
class Decision:
    trivial: bool
    failing_layer: str | None
    witness: dict

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "trivial": self.trivial,
            "failing_layer": self.failing_layer,
            "witness": self.witness,
        }


def _require_decidable(ers: ExtRootSystem):
    if not ers.delta.rs_type.is_reduced():
        raise ExtRootError("the decider needs a reduced type; trim first")
    if not ers.delta.rs_type.is_single_length():
        if not ers.twist.ok:
            raise ExtRootError("the decider needs a tame system (twist check failed)")


def decide_word(ers: ExtRootSystem, word) -> Decision:
    """Trivial iff the evaluation in the extended Weyl group is the
    identity and the orbit parity vector vanishes.

    The failing layer mirrors the layered structure: the finite part V,
    then the translation part K, then the central part Z, and finally
    the parity obstruction Uab.  V is read off the images of the simple
    roots, with no matrices; (z, k) is evaluated only for a word whose
    finite image is 1.
    """
    _require_decidable(ers)
    rs = ers.delta
    images = rs.word_images([t.root for t in word])
    if images != rs.basis:
        return Decision(False, "V", {"v_matrix": [list(r) for r in rs.image_matrix(images)]})
    w = evaluate_word_in_w(ers, word)
    if not is_zero_mat(w.k):
        return Decision(False, "K", {"k_matrix": [list(r) for r in w.k]})
    if not is_zero_mat(w.z):
        return Decision(False, "Z", {"z_matrix": [list(r) for r in w.z]})
    parity = uab_of_word(ers, word)
    if not parity.is_zero():
        odd = sorted(
            (c.length_class, list(c.coset)) for c in parity.odd_classes
        )
        return Decision(False, "Uab", {"odd_classes": odd})
    return Decision(True, None, {})


def remark_conditions(ers: ExtRootSystem, word) -> tuple[bool, bool, bool]:
    """The three layer conditions checked separately.

    (i) the image in the finite Weyl group is trivial; (ii) the ordered
    product of the translation parts t^K (with no conjugation applied)
    is trivial, including its central coordinate; (iii) the parity
    vector vanishes.  These are cross-checked against decide_word but
    never trusted as the decider.
    """
    _require_decidable(ers)
    rs = ers.delta
    c1 = rs.word_images([t.root for t in word]) == rs.basis
    n, l = ers.n, rs.rank
    total_k = zeros(n, l)
    total_z = zeros(n, n)
    for t in word:
        kp = label_k_part(ers, t)
        zc = cocycle(ers, total_k, kp)
        total_z = tuple(
            tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(total_z, zc)
        )
        total_k = tuple(
            tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(total_k, kp)
        )
    c2 = is_zero_mat(total_k) and is_zero_mat(total_z)
    c3 = uab_of_word(ers, word).is_zero()
    return c1, c2, c3


def cross_check_remark(ers: ExtRootSystem, words) -> dict:
    """Compare the conjunction of the three conditions with decide_word.

    Returns counts; discrepancies are tallied, not raised, because the
    unconjugated product in condition (ii) is not obviously the layer
    value of the evaluated word once prefixes act nontrivially.
    """
    agree = disagree = 0
    examples = []
    for word in words:
        d = decide_word(ers, word)
        c1, c2, c3 = remark_conditions(ers, word)
        if d.trivial == (c1 and c2 and c3):
            agree += 1
        else:
            disagree += 1
            if len(examples) < 3:
                examples.append([(list(t.g), t.root) for t in word])
    return {"agree": agree, "disagree": disagree, "examples": examples}


# ---------------------------------------------------------------------------
# Kernel witnesses: words trivial in W but not in U
# ---------------------------------------------------------------------------


def _wedge(u: Vector, v: Vector) -> Matrix:
    n = len(u)
    return freeze(
        [[u[a] * v[b] - u[b] * v[a] for b in range(n)] for a in range(n)]
    )


# the largest coset subset build_uab_kernel_word tries
KERNEL_SUBSET_MAX = 8


def build_uab_kernel_word(ers: ExtRootSystem):
    """Search for a word that is trivial in the extended Weyl group but
    has nonzero orbit parity, witnessing the kernel of the presentation.

    Works over a single short root: a subset of short-class cosets with
    even size, zero sum modulo the orbit subgroup, and even pairwise
    wedge sums folds to an element with trivial finite and translation
    parts; the central part is then cancelled by parity-neutral
    four-letter commutator blocks.  Returns the word or None.
    """
    _require_decidable(ers)
    root = ers.delta.lengths.index(SHORT)
    row_h = ers.orbit_rows[SHORT]
    if len(row_h) < ers.n:
        return None
    s = ers.s_sets[SHORT]
    reps = sorted(coset_residues(row_h, s.cosets, s.h_basis))
    if len(reps) < 2:
        return None

    n = ers.n
    for size in range(2, min(len(reps), KERNEL_SUBSET_MAX) + 1, 2):
        for combo in combinations(reps, size):
            total = tuple(sum(c[i] for c in combo) for i in range(n))
            if not lattice_contains(row_h, total):
                continue
            wedge_sum = [[0] * n for _ in range(n)]
            for x in range(size):
                for y in range(x + 1, size):
                    w = _wedge(combo[x], combo[y])
                    for a in range(n):
                        for b in range(n):
                            wedge_sum[a][b] += w[a][b]
            if any(
                wedge_sum[a][b] % 2 for a in range(n) for b in range(n)
            ):
                continue
            word = _assemble_kernel_word(ers, root, list(combo))
            if word is not None:
                return word
    return None


def _assemble_kernel_word(ers: ExtRootSystem, root: int, reps: list[Vector]):
    n = ers.n
    s = ers.s_sets[SHORT]
    letters = [ReflectionLabel.make(ers, g, root) for g in reps]
    w = evaluate_word_in_w(ers, letters)
    if not w.v.is_identity():
        return None
    # repair the translation part: the alternating fold leaves a defect
    # in the orbit subgroup; absorb it into one letter at an even slot
    if not is_zero_mat(w.k):
        coroot = ers.delta.coroots[root]
        defect = _k_defect_vector(w.k, coroot, n)
        if defect is None:
            return None
        fixed = tuple(x - y for x, y in zip(reps[0], defect))
        if not s.contains(fixed):
            return None
        letters[0] = ReflectionLabel.make(ers, fixed, root)
        w = evaluate_word_in_w(ers, letters)
        if not w.v.is_identity() or not is_zero_mat(w.k):
            return None
    # cancel the central part with parity-neutral blocks
    for a in range(n):
        for b in range(a + 1, n):
            z_ab = w.z[a][b]
            if z_ab == 0:
                continue
            chosen, step = None, 0
            for flip in (False, True):
                blk = _central_block(ers, root, a, b, flip)
                if blk is None:
                    continue
                st = evaluate_word_in_w(ers, blk).z[a][b]
                if st != 0 and z_ab % st == 0 and z_ab // st < 0:
                    chosen, step = blk, st
                    break
            if chosen is None:
                return None
            for _ in range(-(z_ab // step)):
                letters.extend(chosen)
            w = evaluate_word_in_w(ers, letters)
    if not w.is_identity():
        return None
    if uab_of_word(ers, letters).is_zero():
        return None
    return letters


def _k_defect_vector(k: Matrix, coroot: Vector, n: int):
    """Solve k = defect (x) coroot for the defect in G, if possible."""
    pivot = next((i for i, x in enumerate(coroot) if x != 0), None)
    if pivot is None:
        return None
    defect = []
    for a in range(n):
        if k[a][pivot] % coroot[pivot] != 0:
            return None
        defect.append(k[a][pivot] // coroot[pivot])
    expect = [[defect[a] * coroot[b] for b in range(len(coroot))] for a in range(n)]
    if freeze(expect) != k:
        return None
    return tuple(defect)


def _central_block(ers: ExtRootSystem, root: int, a: int, b: int, positive: bool):
    """Four parity-neutral letters whose fold is central in position (a, b)."""
    n = ers.n
    s = ers.s_sets[SHORT]
    zero = (0,) * n
    u = tuple(int(i == a) for i in range(n))
    h = tuple(int(i == b) for i in range(n))
    if positive:
        u, h = h, u
    pts = [zero, h, tuple(x + 2 * y for x, y in zip(h, u)), tuple(2 * y for y in u)]
    if not all(s.contains(p) for p in pts):
        return None
    return [ReflectionLabel.make(ers, p, root) for p in pts]


def random_label(ers: ExtRootSystem, rng) -> ReflectionLabel:
    """A uniform-ish random reflection label with small shift part."""
    rs = ers.delta
    root = rng.randrange(len(rs.roots))
    s = ers.s_of_root(root)
    c = s.cosets[rng.randrange(len(s.cosets))]
    g = list(c)
    for hrow in s.h_basis:
        f = rng.randint(-2, 2)
        for i in range(len(g)):
            g[i] += f * hrow[i]
    return ReflectionLabel.make(ers, tuple(g), root)


def relator_word(ers: ExtRootSystem, t1: ReflectionLabel, t2: ReflectionLabel):
    """The defining relator t1 t2 t1 (t1.t2) of the presentation."""
    return [t1, t2, t1, conj_reflect(ers, t1, t2)]


# relators per conjugated_relator_product, and the most letters conjugating each
RELATORS_PER_WORD = 2
CONJUGATOR_MAX_LEN = 2


def conjugated_relator_product(ers: ExtRootSystem, rng):
    """A random product of conjugated defining relators; trivial by design."""
    word: list[ReflectionLabel] = []
    for _ in range(RELATORS_PER_WORD):
        t1 = random_label(ers, rng)
        t2 = random_label(ers, rng)
        core = relator_word(ers, t1, t2)
        conj = [random_label(ers, rng) for _ in range(rng.randint(0, CONJUGATOR_MAX_LEN))]
        word.extend(conj + core + list(reversed(conj)))
    return word
