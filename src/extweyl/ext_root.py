"""Root systems extended by a free abelian group.

An extended system is a subset R of G x Delta described through its
slices S_alpha = {g : (g, alpha) in R}; a slice depends only on the
length class of alpha.  Slices are restricted to finite unions of
cosets of a finite-index sublattice H of G, which keeps every axiom
decidable by exhaustion over the finite quotient G/H.  Arbitrary
subsets are out of scope.
"""

from __future__ import annotations

import json
from functools import cache, cached_property
from itertools import product
from math import gcd, prod
from typing import NamedTuple

from extweyl.intlinalg import (
    Matrix,
    Vector,
    _residues_between,
    augmented_rows,
    check_quotient_index,
    coset_residues,
    freeze,
    hermite_rows,
    identity,
    lattice_contains,
    lattice_intersection,
    lattice_reduce,
    lattice_reduce_all,
    lattice_subset,
    mat_inv,
    mat_mul,
    mat_vec,
    smith_normal_form,
    solve_integer,
    sparse_rows,
    transpose,
    vec_mat,
    vec_scale,
)
from extweyl.root_core import (
    EXTRALONG,
    LONG,
    SHORT,
    FiniteRootSystem,
    RootSystemType,
    build,
    k_delta,
)


class ExtRootError(ValueError):
    pass


class _FreeAbelianGroupFields(NamedTuple):
    rank: int
    g1: tuple[int, ...]
    g2: tuple[int, ...]


class FreeAbelianGroup(_FreeAbelianGroupFields):
    """Z^n with an optional basis split (G1 | G2) used for twisting."""

    __slots__ = ()

    def __new__(cls, rank: int, g1: tuple[int, ...] = (), g2: tuple[int, ...] = ()):
        if type(rank) is not int or rank < 0:
            raise ExtRootError("rank must be a nonnegative integer")
        for name, part in (("g1", g1), ("g2", g2)):
            if any(type(i) is not int for i in part):
                raise ExtRootError(f"{name} must list integer basis indices")
        if not g1 and not g2:
            g2 = tuple(range(rank))
        if sorted(g1 + g2) != list(range(rank)):
            raise ExtRootError("g1 and g2 must partition the basis indices")
        return super().__new__(cls, rank, g1, g2)

    def basis_vector(self, i: int) -> Vector:
        return tuple(int(j == i) for j in range(self.rank))


class SSet:
    """A union of cosets of a full-rank sublattice H of Z^n.

    `h_basis` rows span H; `cosets` are stored as canonical residues
    modulo H, deduplicated and sorted, all reduced in one pass per row of
    H (`lattice_reduce_all`).  A set that holds all |Z^n/H| cosets is Z^n
    itself (`is_whole`): its `span` is the identity, the one Hermite basis
    of index 1, and `validate` and `ExtRootSystem.orbit_rows` and
    `slices_mod` settle such a slice with no reduction.  R3' asks a slice
    whether it `keeps` a translation, and the chains whether it `includes`
    another slice.
    """

    def __init__(self, h_basis, cosets):
        cosets = list(cosets)
        if not cosets:
            raise ExtRootError("an S-set needs at least one coset")
        # Z^n is read from the cosets: an empty H has no row to read it from
        n = len(cosets[0])
        if any(len(v) != n for v in (*h_basis, *cosets)):
            raise ExtRootError("H and the cosets must have one width")
        hnf = hermite_rows(n, sparse_rows(h_basis))
        if len(hnf) != n:
            raise ExtRootError("H must be a full-rank sublattice")
        self._hold(hnf, lattice_reduce_all(hnf, cosets))

    def _hold(self, hnf: list[Vector], residues: set[Vector]) -> None:
        """Store the Hermite basis hnf of H and the canonical residues."""
        self.h_basis: Matrix = freeze(hnf)
        self.cosets: tuple[Vector, ...] = tuple(sorted(residues))
        self._set = residues

    @property
    def rank(self) -> int:
        return len(self.h_basis)

    def contains(self, g) -> bool:
        return lattice_reduce(self.h_basis, g) in self._set

    @cached_property
    def is_whole(self) -> bool:
        """Whether the set is Z^n: it holds all |Z^n/H| cosets of H."""
        return len(self.cosets) == _index(self.h_basis)

    @cached_property
    def span(self) -> tuple[Vector, ...]:
        """Hermite basis of the lattice generated by the whole set: Z^n,
        with no reduction, when the set is Z^n."""
        if self.is_whole:
            return identity(self.rank)
        return tuple(hermite_rows(self.rank, sparse_rows(self.h_basis + self.cosets)))

    @cached_property
    def is_lattice(self) -> bool:
        """Whether the set is the lattice it spans: <S> holds det H / det
        <S> cosets of H, and S is <S> when it holds all of them."""
        return len(self.cosets) * _index(self.span) == _index(self.h_basis)

    def keeps(self, x) -> bool:
        """Whether S - x = S.  Z^n keeps every x, with no reduction, and a
        lattice exactly the x in <S>; any other set has each coset minus x
        reduced modulo H in one pass and looked up among its residues
        (S - x <= S forces equality in G/H)."""
        if self.is_lattice:
            return self.is_whole or lattice_contains(self.span, x)
        shifted = ([a - b for a, b in zip(c, x)] for c in self.cosets)
        return lattice_reduce_all(self.h_basis, shifted) <= self._set

    def includes(self, other: "SSet", mult: int = 1) -> bool:
        """Whether mult*other <= S.  A lattice keeps each row of
        mult*<other>; any other set enumerates the residues of mult*other
        modulo its own H and looks them up among its cosets."""
        if self.is_lattice:
            return all(self.keeps(vec_scale(mult, r)) for r in other.span)
        return coset_residues(
            self.h_basis,
            [vec_scale(mult, c) for c in other.cosets],
            [vec_scale(mult, h) for h in other.h_basis],
        ) <= self._set

    def rebase(self, h_basis) -> "SSet":
        """Express the same set over a finer modulus (h_basis inside H).

        Onto H itself this is the set, found without a Hermite reduction
        when h_basis is the basis held here; otherwise each coset is spread
        over the residues of H modulo the finer basis, enumerated against
        the Hermite basis of H held here, and stored as they are.
        """
        if freeze(h_basis) == self.h_basis:
            return self
        fine = hermite_rows(self.rank, sparse_rows(h_basis))
        if fine == list(self.h_basis):
            return self
        if not lattice_subset(fine, self.h_basis):
            raise ExtRootError("new modulus must refine the old one")
        out = SSet.__new__(SSet)
        out._hold(fine, _residues_between(fine, self.h_basis, self._set))
        return out

    def scale(self, m: int) -> "SSet":
        """The set m*S over the modulus m*H."""
        return SSet(
            [vec_scale(m, r) for r in self.h_basis],
            [vec_scale(m, c) for c in self.cosets],
        )

    def union(self, other: "SSet") -> "SSet":
        common = lattice_intersection(self.h_basis, other.h_basis)
        a = self.rebase(common)
        b = other.rebase(common)
        return SSet(common, list(a.cosets) + list(b.cosets))

    def __repr__(self) -> str:  # pragma: no cover
        return f"SSet(H={self.h_basis}, cosets={self.cosets})"


class CheckResult(NamedTuple):
    name: str
    passed: bool
    witness: str = ""


class ValidationReport:
    def __init__(self):
        self.checks: list[CheckResult] = []

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def add(self, name: str, passed: bool, witness: str = ""):
        self.checks.append(CheckResult(name, passed, witness))


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _require(value, kind: type, path: str):
    """`value` if it is a `kind` (dict, list, str or int: a JSON object,
    list, string or integer); otherwise an ExtRootError naming `path` and
    the type found, or the number where an integer was wanted."""
    if not isinstance(value, kind):
        got = value if kind is int and isinstance(value, float) else type(value).__name__
        raise ExtRootError(f"{path} must be {_JSON_KINDS[kind]}, got {got}")
    return value


def _is_row(row, n: int) -> bool:
    """Whether `row` is a JSON list of `n` integers, booleans excluded."""
    return isinstance(row, list) and len(row) == n and {int}.issuperset(map(type, row))


def _require_row(row, n: int, path: str) -> list:
    """`row` if it is a JSON list of `n` integers (`_is_row`); otherwise an
    ExtRootError naming `path`."""
    if not _is_row(row, n):
        raise ExtRootError(f"{path} must be a list of {n} integers")
    return row


def read_json(path: str):
    """The JSON value in the file at `path`, or an ExtRootError naming the
    file when its text is not JSON.  Besides JSONDecodeError, reading and
    decoding raise UnicodeDecodeError, a bare ValueError for an integer
    literal past the interpreter's digit limit, and RecursionError for
    nesting past the recursion limit."""
    with open(path) as fh:
        try:
            return json.loads(fh.read())
        except (ValueError, RecursionError) as exc:
            raise ExtRootError(f"{path}: {exc}") from None


def _check_slice_shapes(raw, keys, rank: int) -> None:
    """Reject `s_sets` JSON that is not {key: {"H": rows, "cosets": rows}}
    with exactly the given keys, integer rows of length `rank` and a
    coset in each slice, naming the offending path; so the file bounds `rank`."""
    raw = _require(raw, dict, "s_sets")
    for k in raw:
        if k not in keys:
            raise ExtRootError(f"s_sets.{k}: unknown length class; use {', '.join(keys)}")
    for k in keys:
        v = _require(raw.get(k), dict, f"s_sets.{k}")
        for part in ("H", "cosets"):
            rows = _require(v.get(part), list, f"s_sets.{k}.{part}")
            for i, row in enumerate(rows):
                if not _is_row(row, rank):
                    _require_row(row, rank, f"s_sets.{k}.{part}[{i}]")
        if not v["cosets"]:
            raise ExtRootError(f"s_sets.{k}.cosets must list at least one coset")


class ExtRootSystem:
    """A root system of some finite type extended by Z^n.

    Five per-system caches are computed on first use: `refined` (the
    slices over their common modulus), `orbit_rows` (the orbit lattice
    T_cls of each length class), `twist` (the check_twist report),
    `undecidable` (why the word decider cannot run) and `slices_mod` (the
    slices read modulo m*Z^n, per m).  They assume that the slices are
    not changed after construction.

    A slice that is the lattice it spans (`SSet.is_lattice`) is read as
    the one coset 0 over its span: `slices_mod` and a chain into it decide
    it through <S>.  R3' asks each slice whether it keeps a translation
    (`SSet.keeps`), and each chain asks the including slice whether it
    includes the other (`SSet.includes`), over its own modulus.  So
    `refined` is built only for a failing R3' witness and by `check_twist`.
    """

    def __init__(
        self,
        delta: FiniteRootSystem | RootSystemType,
        group: FreeAbelianGroup,
        s_sets: dict[str, SSet],
    ):
        if isinstance(delta, RootSystemType):
            delta = build(delta)
        self.delta = delta
        self.group = group
        expected = set(delta.lengths)
        if set(s_sets) != expected:
            raise ExtRootError(
                f"S-sets {sorted(s_sets)} do not match length classes {sorted(expected)}"
            )
        for s in s_sets.values():
            if s.rank != group.rank:
                raise ExtRootError("S-set rank does not match the group rank")
        self.s_sets = dict(s_sets)
        self._slices_mod: dict[int, dict[str, tuple[tuple[Vector, ...], tuple[Vector, ...]]]] = {}

    # -- basic queries ------------------------------------------------------

    @property
    def n(self) -> int:
        return self.group.rank

    def s_of_root(self, root_idx: int) -> SSet:
        return self.s_sets[self.delta.lengths[root_idx]]

    def membership(self, g, root_idx: int) -> bool:
        return self.s_of_root(root_idx).contains(g)

    def classes(self) -> list[str]:
        order = [SHORT, LONG, EXTRALONG]
        return [c for c in order if c in self.s_sets]

    @cached_property
    def refined(self) -> dict[str, SSet]:
        """All S-sets over the common refinement of their moduli; a slice
        already over it is kept as it is."""
        common = None
        for s in self.s_sets.values():
            if common is None or common == s.h_basis:
                common = s.h_basis
            else:
                common = tuple(lattice_intersection(common, s.h_basis))
        return {c: s.rebase(common) for c, s in self.s_sets.items()}

    @cached_property
    def orbit_rows(self) -> dict[str, list[Vector]]:
        """Hermite basis of T_cls per length class: the orbit of (g, beta),
        beta of class cls, meets G x {beta} in g + T_cls.

        T_cls = sum over simple alpha of gcd{<alpha^vee, beta> : beta in
        cls} * <S_alpha>, exact on every valid reduced system: R2' puts 0
        in each slice, so the r_(alpha,0) join the roots of a class with
        zero shift, every other letter r_(alpha,d) closes a cycle with
        shift -<alpha^vee, beta> d, and by Schreier's lemma these shifts
        generate the translations that fix a root (Seress, Permutation
        Group Algorithms, 2003, 4.2).  The sum is folded by `_lattice_sum`.
        """
        rs = self.delta
        return {
            cls: _lattice_sum(
                self.n,
                [(rs.class_gcds[alpha, cls], self.s_of_root(alpha).span) for alpha in rs.basis],
            )
            for cls in self.classes()
        }

    def slices_mod(self, m: int) -> dict[str, tuple[tuple[Vector, ...], tuple[Vector, ...]]]:
        """Each slice read once modulo m*Z^n, cached per m.

        Per length class: the sorted image of the slice in G/mG, and the
        sorted residues mod m of c_0 and of c_0 + b for each b of a set of
        generators that, with m*Z^n, span what the slice's differences
        span; so these at most 1 + n points span, as an affine lattice mod
        m, what the slice spans (see weyl.closure_letters).  The rows of H,
        or of <S> for a slice that is a lattice (read as the coset 0 over
        its span), generate a subgroup B of G/mG, enumerated once.  The
        slice's residues mod m are walked in sorted order, and each one
        not yet in the image adds its coset of B; c_0 is the first.  When
        that is the only coset, the b are the nonzero rows mod m;
        otherwise they are the Hermite basis of m*Z^n, those rows and the
        differences c_i - c_0 of the residues that added a coset.  A slice
        that is Z^n (a lattice whose span has index 1) has the whole grid,
        listed by itertools.product in sorted order, as its image, with no
        walk: c_0 is 0 and the b are the basis vectors mod m.  Checks m^n
        before anything is enumerated.
        """
        if m not in self._slices_mod:
            n = self.n
            check_quotient_index(m**n)
            zero = (0,) * n
            out = {}
            for cls in self.classes():
                s = self.s_sets[cls]
                rows, cosets = (s.span, [zero]) if s.is_lattice else (s.h_basis, s.cosets)
                gens = [h for h in {tuple(x % m for x in r) for r in rows} if any(h)]
                if s.is_whole:
                    # S = Z^n: the whole grid, which product lists sorted
                    image, c0 = tuple(product(range(m), repeat=n)), zero
                else:
                    # B grows by whole cosets: B + t*b until t*b falls back into B
                    group = [zero]
                    for b in gens:
                        inside, shifted = set(group), group
                        while True:
                            shifted = [tuple((x + y) % m for x, y in zip(v, b)) for v in shifted]
                            if shifted[0] in inside:
                                break
                            group += shifted
                    walked, firsts = set(), []
                    for c in sorted({tuple(x % m for x in c) for c in cosets}):
                        if c not in walked:
                            firsts.append(c)
                            walked.update(tuple((x + y) % m for x, y in zip(c, v)) for v in group)
                    image, c0 = tuple(sorted(walked)), firsts[0]
                    if len(firsts) > 1:
                        mod_h = [{i: m} for i in range(n)]
                        diffs = ([x - y for x, y in zip(c, c0)] for c in firsts[1:])
                        gens = hermite_rows(n, [*mod_h, *sparse_rows([*gens, *diffs])])
                points = {c0, *(tuple((x + y) % m for x, y in zip(c0, b)) for b in gens)}
                out[cls] = (image, tuple(sorted(points)))
            self._slices_mod[m] = out
        return self._slices_mod[m]

    @cached_property
    def twist(self) -> ValidationReport:
        """The `check_twist` report, computed on first use."""
        return check_twist(self)

    @cached_property
    def undecidable(self) -> str:
        """Why the word decider cannot run on this system, or "" if it can:
        it needs a reduced type, and a tame one when two lengths occur."""
        rs_type = self.delta.rs_type
        if not rs_type.is_reduced():
            return "the decider needs a reduced type; trim first"
        if not rs_type.is_single_length() and not self.twist.ok:
            return "the decider needs a tame system (twist check failed)"
        return ""

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        key = {SHORT: "sh", LONG: "lg", EXTRALONG: "ex"}
        return {
            "schema": 1,
            "delta": {"family": self.delta.rs_type.family, "rank": self.delta.rank},
            "g": {
                "rank": self.group.rank,
                "g1": list(self.group.g1),
                "g2": list(self.group.g2),
            },
            "s_sets": {
                key[c]: {
                    "H": [list(r) for r in s.h_basis],
                    "cosets": [list(c_) for c_ in s.cosets],
                }
                for c, s in self.s_sets.items()
            },
        }

    @staticmethod
    def from_json(data: dict) -> "ExtRootSystem":
        _require(data, dict, "the system")
        if "schema" in data and data["schema"] != 1:
            raise ExtRootError(f"unsupported schema {data['schema']!r}; expected 1")
        delta = _require(data.get("delta"), dict, "delta")
        g = _require(data.get("g"), dict, "g")
        rs = build(
            _require(delta.get("family"), str, "delta.family"),
            _require(delta.get("rank"), int, "delta.rank"),
        )
        rank = _require(g.get("rank"), int, "g.rank")
        if type(rank) is not int or rank < 0:
            raise ExtRootError(f"g.rank must be a nonnegative integer, got {rank}")
        g1 = tuple(_require(g.get("g1", []), list, "g.g1"))
        g2 = tuple(_require(g.get("g2", []), list, "g.g2"))
        key = {"sh": SHORT, "lg": LONG, "ex": EXTRALONG}
        raw = data.get("s_sets")
        _check_slice_shapes(raw, [k for k, c in key.items() if c in rs.lengths], rank)
        s_sets = {}
        for k, v in raw.items():
            try:
                s_sets[key[k]] = SSet(v["H"], v["cosets"])
            except ExtRootError:
                raise ExtRootError(
                    f"s_sets.{k}.H must span a full-rank sublattice of Z^{rank}"
                ) from None
        return ExtRootSystem(rs, FreeAbelianGroup(rank, g1, g2), s_sets)

    @staticmethod
    def load(path: str) -> "ExtRootSystem":
        return ExtRootSystem.from_json(read_json(path))

    def __repr__(self) -> str:  # pragma: no cover
        return f"ExtRootSystem({self.delta.rs_type} over Z^{self.n})"


def fully_extended(
    rs_type: RootSystemType | str,
    rank: int | None = None,
    n: int = 1,
    g1: tuple[int, ...] = (),
) -> ExtRootSystem:
    """R = G x Delta with every slice equal to all of G."""
    if isinstance(rs_type, str):
        rs_type = RootSystemType(rs_type, rank)
    delta = build(rs_type)
    grp = FreeAbelianGroup(n, g1, tuple(i for i in range(n) if i not in g1))
    full = SSet(identity(n), [(0,) * n])
    return ExtRootSystem(delta, grp, {c: full for c in set(delta.lengths)})


def span_extended(
    rs_type: RootSystemType | str,
    rank: int | None = None,
    n: int = 1,
    g1: tuple[int, ...] = (),
) -> ExtRootSystem:
    """The standard twisted system: S_sh = G, S_lg = k*G1 + G2 (+ the ex chain).

    For single-length types this is the fully extended system.
    """
    if isinstance(rs_type, str):
        rs_type = RootSystemType(rs_type, rank)
    delta = build(rs_type)
    grp = FreeAbelianGroup(n, g1, tuple(i for i in range(n) if i not in g1))
    s_sets = {SHORT: SSet(identity(n), [(0,) * n])}
    for cls, power in ((LONG, 1), (EXTRALONG, 2)):
        if cls in delta.lengths:
            scale = k_delta(delta.rs_type) ** power
            s_sets[cls] = SSet(
                [vec_scale(scale, grp.basis_vector(i)) for i in grp.g1]
                + [grp.basis_vector(i) for i in grp.g2],
                [(0,) * n],
            )
    return ExtRootSystem(delta, grp, s_sets)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate(ers: ExtRootSystem) -> ValidationReport:
    """Check the slice axioms and the derived inclusion chains.

    R0' (each slice is nonempty) is enforced on construction, since
    `SSet` refuses an empty coset list, so it is not reported here.
    Reflection stability is decided exactly by asking each slice whether
    it keeps a translation (`SSet.keeps`).  Each chain inclusion is asked
    of the including slice (`SSet.includes`): through its span when it
    is a lattice, and otherwise exhaustively in the finite quotient of G
    by its own modulus.
    Simple roots suffice on the reflecting side because every reflection
    label is a conjugate of one over a simple root by zero-section
    elements.

    The modulus constraint k^2*G <= H is evaluated before that quotient
    is built, as one batched reduction of the rows k^2*e_i modulo each H:
    a slice modulus that fails it can make the quotient arbitrarily large.
    When it fails, reflection stability and the chains are neither checked
    nor reported.

    A span of index 1 is Z^n, so R1' holds with no fold of the spans when
    one slice spans Z^n (`_lattice_sum`), and a failing R1' names the
    index of the sum; a slice that is a lattice holds 0, so R2' needs no
    reduction for it; and a slice that is Z^n keeps every translation in
    R3' and contains every set in the chains.
    """
    rep = ValidationReport()
    delta = ers.delta
    n = ers.n

    # every span holds its slice's full-rank H, so their sum has full rank
    index = _index(_lattice_sum(n, [(1, s.span) for s in ers.s_sets.values()]))
    rep.add("R1' (slices generate G)", index == 1, "" if index == 1 else f"span index {index}")

    zero = (0,) * n
    for cls in ers.classes():
        if cls == EXTRALONG:
            continue
        s = ers.s_sets[cls]
        ok = s.is_lattice or s.contains(zero)
        rep.add(f"R2' (0 in S_{cls})", ok, "" if ok else f"0 not in S_{cls}")

    # single-length types have no lacing number; 2 is the modulus scale
    # relevant to their orbit structure
    kk = 4 if delta.rs_type.is_single_length() else k_delta(delta.rs_type) ** 2
    kk_rows = [vec_scale(kk, ers.group.basis_vector(i)) for i in range(n)]
    modulus_ok = {
        cls: lattice_reduce_all(ers.s_sets[cls].h_basis, kk_rows) <= {zero}
        for cls in ers.classes()
    }

    if all(modulus_ok.values()):
        rep.add("R3' (reflection stability)", *_reflection_stability(ers))
        if not delta.rs_type.is_single_length():
            k = k_delta(delta.rs_type)
            slices = ers.s_sets
            chains = []
            if SHORT in slices and LONG in slices:
                chains.append((SHORT, LONG, k))
            if LONG in slices and EXTRALONG in slices:
                chains.append((LONG, EXTRALONG, k))
            if SHORT in slices and EXTRALONG in slices:
                chains.append((SHORT, EXTRALONG, k * k))
            for lower, upper, mult in chains:
                ok = _chain_holds(ers, lower, upper, mult)
                rep.add(
                    f"chain {mult}*S_{lower} <= S_{upper} <= S_{lower}",
                    ok,
                    "" if ok else f"containment fails ({upper},{lower})",
                )

    for cls, ok in modulus_ok.items():
        rep.add(
            f"modulus constraint k^2*G <= H ({cls})",
            ok,
            "" if ok else f"H too coarse for {cls}",
        )
    return rep


def _chain_holds(ers: ExtRootSystem, lower: str, upper: str, mult: int) -> bool:
    """mult*S_lower <= S_upper <= S_lower, each inclusion asked of the
    including slice over its own modulus (`SSet.includes`)."""
    lo, up = ers.s_sets[lower], ers.s_sets[upper]
    return up.includes(lo, mult) and lo.includes(up)


def _reflection_stability(ers: ExtRootSystem) -> tuple[bool, str]:
    """R3': S_beta - <alpha^vee, beta> * S_alpha <= S_beta for simple alpha.

    For a triple (class of alpha, class of beta, m = <alpha^vee, beta>)
    the condition says that S_beta keeps (`SSet.keeps`) each x of
    m * S_alpha.  The x that S_beta keeps form a subgroup: it holds
    m * S_alpha iff it holds m * r for each row r of the span of S_alpha,
    and it holds m * r for every m of one pair of length classes iff it
    holds g * r, g the gcd of their pairings (folded from
    FiniteRootSystem.class_gcds, which orbit_rows reads as well).  So R3'
    is decided once per class pair, at that gcd (g = 0 holds trivially).
    Only when a pair fails is each triple decided, to find the witness:
    the first one met by scanning every simple alpha, every root beta,
    then the cosets of S_beta and S_alpha over H*, the one place in
    `validate` where `refined` is read.
    """
    delta, s_sets = ers.delta, ers.s_sets

    @cache
    def holds(cls_a: str, cls_b: str, m: int) -> bool:
        return m == 0 or all(s_sets[cls_b].keeps(vec_scale(m, r)) for r in s_sets[cls_a].span)

    if all(holds(*pair, g) for pair, g in _class_pair_gcds(delta).items()):
        return True, ""
    refined = ers.refined
    hstar = next(iter(refined.values())).h_basis
    coset_sets = {c: set(s.cosets) for c, s in refined.items()}
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


def _class_pair_gcds(delta: FiniteRootSystem) -> dict[tuple[str, str], int]:
    """Per pair (class of alpha, class of beta), alpha simple, the gcd of
    the pairings <alpha^vee, beta>."""
    out: dict[tuple[str, str], int] = {}
    for (alpha, cls_b), g in delta.class_gcds.items():
        pair = (delta.lengths[alpha], cls_b)
        out[pair] = gcd(out.get(pair, 0), g)
    return out


def _lattice_sum(n: int, terms: list[tuple[int, Matrix]]) -> list[Vector]:
    """Hermite basis of the sum of g * L over the terms (g, Hermite basis
    of L): the identity, with no fold, when some term is 1 * Z^n (the one
    Hermite basis of index 1)."""
    if any(g == 1 and _index(span) == 1 for g, span in terms):
        return list(identity(n))
    return hermite_rows(n, sparse_rows(vec_scale(g, r) for g, span in terms for r in span))


def _index(hnf: Matrix) -> int:
    """|Z^n / L| for the Hermite basis hnf of a full-rank lattice L: the
    product of its pivots, which lie on the diagonal."""
    return prod(row[i] for i, row in enumerate(hnf))


# ---------------------------------------------------------------------------
# Twist decompositions
# ---------------------------------------------------------------------------


def _members_in_subspace(sset: SSet, idx: set[int], n: int) -> tuple[set[Vector], list[Vector]]:
    """S cap G_idx, G_idx spanned by the basis vectors in idx: the cosets of
    S that meet it, and the Hermite basis of its span, which H cap G_idx
    and one member of each such coset generate.

    In the Hermite basis of the rows (h off idx | h), h in H, the rows
    with a zero left part are H cap G_idx; reducing (c off idx | c)
    against it leaves a zero left part exactly when c + H meets G_idx,
    and then a member of c + H in G_idx on the right.
    """
    proj = [i for i in range(n) if i not in idx]
    w = len(proj)
    h = sset.h_basis
    basis = hermite_rows(w + n, augmented_rows(w, ([r[i] for i in proj] for r in h), h))
    gens = [r[w:] for r in basis if not any(r[:w])]
    met = set()
    for c in sset.cosets:
        r = lattice_reduce(basis, (*(c[i] for i in proj), *c))
        if not any(r[:w]):
            met.add(c)
            gens.append(r[w:])
    return met, hermite_rows(n, sparse_rows(gens))


def check_twist(ers: ExtRootSystem) -> ValidationReport:
    """Verify the twist conditions for the basis split of G.

    Single-length types pass vacuously.  Both primary conditions and
    the derived ones are evaluated: set equalities in the finite
    quotient by the common modulus, span equalities exactly.
    """
    rep = ValidationReport()
    delta = ers.delta
    if delta.rs_type.is_single_length():
        rep.add("twist (vacuous for single root length)", True)
        return rep
    if not delta.rs_type.is_reduced():
        raise ExtRootError("twist conditions apply to reduced types; trim first")

    k = k_delta(delta.rs_type)
    n = ers.n
    grp = ers.group
    refined = ers.refined
    hstar = refined[SHORT].h_basis
    sh = set(refined[SHORT].cosets)
    lg = set(refined[LONG].cosets)
    g1_idx, g2_idx = set(grp.g1), set(grp.g2)

    sh_cap_g1, span_sh_cap_g1 = _members_in_subspace(refined[SHORT], g1_idx, n)
    lg_cap_g2, span_lg_cap_g2 = _members_in_subspace(refined[LONG], g2_idx, n)
    g1_gens = [grp.basis_vector(i) for i in grp.g1]
    g2_gens = [grp.basis_vector(i) for i in grp.g2]
    k_g1 = [vec_scale(k, v) for v in g1_gens]

    def set_eq(name: str, got: set, want: set):
        if got == want:
            rep.add(name, True)
        else:
            diff = sorted(got.symmetric_difference(want))[0]
            side = "extra" if diff in got else "missing"
            rep.add(name, False, f"{side} residue {diff}")

    set_eq(
        "T1: S_sh = (S_sh cap G1) + <S_lg cap G2>",
        coset_residues(hstar, sh_cap_g1, span_lg_cap_g2),
        sh,
    )
    set_eq(
        "T2: S_lg = k*<S_sh cap G1> + (S_lg cap G2)",
        coset_residues(hstar, lg_cap_g2, [vec_scale(k, v) for v in span_sh_cap_g1]),
        lg,
    )
    set_eq(
        "(i) S_sh = (S_sh cap G1) + G2",
        coset_residues(hstar, sh_cap_g1, g2_gens),
        sh,
    )
    set_eq(
        "(ii) S_lg = k*G1 + (S_lg cap G2)",
        coset_residues(hstar, lg_cap_g2, k_g1),
        lg,
    )
    rep.add(
        "(iii) <G2 cap S_lg> = G2",
        span_lg_cap_g2 == hermite_rows(n, sparse_rows(g2_gens)),
    )
    rep.add(
        "(iv) <G1 cap S_sh> = G1",
        span_sh_cap_g1 == hermite_rows(n, sparse_rows(g1_gens)),
    )
    rep.add(
        "(v) <S_sh> = G1 + G2",
        ers.s_sets[SHORT].span == tuple(hermite_rows(n, sparse_rows(g1_gens + g2_gens))),
    )
    rep.add(
        "(v) <S_lg> = k*G1 + G2",
        ers.s_sets[LONG].span == tuple(hermite_rows(n, sparse_rows(k_g1 + g2_gens))),
    )
    return rep


# ---------------------------------------------------------------------------
# Trimming non-reduced systems
# ---------------------------------------------------------------------------


class TrimResult(NamedTuple):
    """The trimmed system with the identifications back to the source.

    g_matrix rows are the basis of the new group written in source
    G-coordinates; root_map sends source root indices to trimmed ones
    (a short root and its double land on the same trimmed root).
    """

    system: ExtRootSystem
    g_matrix: Matrix
    root_map: dict[int, int]
    source: ExtRootSystem


def trim(ers: ExtRootSystem) -> TrimResult:
    """Turn a BC-type system into a reduced one by doubling the short roots.

    The short extended roots (g, a) land on (2g, 2a) in the extralong
    class; the result is of type A1 (from BC1), B2 (from BC2) or C_l
    (from BC_l, l >= 3), extended by the span of the trimmed slices.
    """
    old = ers.delta
    if old.rs_type.is_reduced():
        raise ExtRootError(f"trim applies to BC types only, got {old.rs_type}")
    l, n = old.rank, ers.n
    if l == 1:
        new_type = RootSystemType("A", 1)
    elif l == 2:
        new_type = RootSystemType("B", 2)
    else:
        new_type = RootSystemType("C", l)
    new_delta = build(new_type)

    merged_long = ers.s_sets[EXTRALONG].union(ers.s_sets[SHORT].scale(2))
    if l == 1:
        new_raw = {SHORT: merged_long}
    else:
        new_raw = {SHORT: ers.s_sets[LONG], LONG: merged_long}

    span_gens: list[Vector] = []
    for s in new_raw.values():
        span_gens.extend(s.span)
    g_matrix = freeze(hermite_rows(n, sparse_rows(span_gens)))
    if len(g_matrix) != n:
        raise ExtRootError("trimmed slices do not span a finite-index subgroup")

    def to_new(v: Vector) -> Vector:
        sol = solve_integer(g_matrix, v)
        if sol is None:
            raise ExtRootError("trimmed S-set leaves the trimmed group")
        return sol

    new_s = {
        cls: SSet([to_new(r) for r in s.h_basis], [to_new(c) for c in s.cosets])
        for cls, s in new_raw.items()
    }

    if new_type.is_single_length():
        grp = FreeAbelianGroup(n)
    else:
        adapted = _adapted_split(new_s, n, k_delta(new_type))
        if adapted is None:
            grp = FreeAbelianGroup(n)
        else:
            grp, q = adapted
            # the rows of q^-1 are the adapted basis in current coordinates:
            # coordinates transform through q^T, the basis matrix through q^-1
            coord_map = transpose(q)
            new_s = {
                cls: SSet(
                    [mat_vec(coord_map, r) for r in s.h_basis],
                    [mat_vec(coord_map, c) for c in s.cosets],
                )
                for cls, s in new_s.items()
            }
            g_matrix = freeze(mat_mul(mat_inv(q), g_matrix))

    new_sys = ExtRootSystem(new_delta, grp, new_s)
    root_map = _match_root_systems(old, new_delta)
    return TrimResult(new_sys, g_matrix, root_map, ers)


def _adapted_split(new_s: dict[str, SSet], n: int, k: int):
    """Basis split with <S_lg> = k*G1 + G2, changing the basis if needed.

    Returns (group, q) with q the column transform of the Smith form of
    the long span, whose inverse has the adapted basis as rows in the
    current coordinates; or None when the long span is not of that shape.
    """
    if LONG not in new_s:
        return None
    span_lg = new_s[LONG].span
    if len(span_lg) != n:
        return None
    d, _, q = smith_normal_form(freeze(span_lg))
    diag = [d[i][i] for i in range(n)]
    if any(x not in (1, k) for x in diag):
        return None
    g1 = tuple(i for i in range(n) if diag[i] == k)
    g2 = tuple(i for i in range(n) if diag[i] == 1)
    return FreeAbelianGroup(n, g1, g2), q


def _match_root_systems(old: FiniteRootSystem, new: FiniteRootSystem) -> dict[int, int]:
    """Send each source root index to its trimmed root index.

    The trimmed simple roots are alpha_0..alpha_{l-2} and 2 alpha_{l-1},
    and every trimmed root (a doubled short root or a long or extralong
    one) has an even last coordinate.  They carry the Cartan data of the
    reduced type's simple roots, short ones first, so the root map is the
    change of basis c = (v_0, ..., v_{l-2}, v_{l-1} / 2) onto those.
    """
    l = old.rank
    seed_old = list(old.basis[: l - 1])
    seed_old.append(old.index_of(vec_scale(2, old.roots[old.basis[l - 1]])))
    if l == 1:
        seed_new = [new.basis[0]]
    else:
        shorts = [b for b in new.basis if new.lengths[b] == SHORT]
        longs = [b for b in new.basis if new.lengths[b] == LONG]
        seed_new = shorts + longs

    # sanity: the seeded simple systems must carry the same Cartan data
    for i in range(l):
        for j in range(l):
            a = old.pairing_table[seed_old[i]][seed_old[j]]
            b = new.pairing_table[seed_new[i]][seed_new[j]]
            if a != b:
                raise ExtRootError(
                    f"trim basis mismatch at ({i},{j}): {a} != {b}"
                )

    simple_new = [new.roots[b] for b in seed_new]
    root_map = {}
    for i, r in enumerate(old.roots):
        v = vec_scale(2, r) if old.lengths[i] == SHORT else r
        c = v[: l - 1] + (v[l - 1] // 2,)
        root_map[i] = new.index_of(vec_mat(c, simple_new))
    return root_map
