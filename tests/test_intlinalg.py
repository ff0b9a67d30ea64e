from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from extweyl import intlinalg
from extweyl.ext_root import SSet, _members_in_subspace
from extweyl.intlinalg import (
    MAX_QUOTIENT_INDEX,
    FPAbelianGroup,
    QuotientTooLarge,
    augmented_rows,
    coset_residues,
    dims,
    freeze,
    hermite_rows,
    identity,
    lattice_contains,
    lattice_intersection,
    lattice_reduce,
    lattice_reduce_all,
    mat_inv,
    mat_mul,
    smith_normal_form,
    solve_integer,
    sparse_rows,
    transpose,
    zeros,
)
from extweyl.lattice_algebra import box_quotient, coinvariants
from extweyl.root_core import build
from extweyl.verify import sweep_types
from support import (
    classify_smith,
    determinant,
    lattice_intersection_smith,
    lattice_reduce_scan,
    mat_inv_fraction,
    members_in_subspace_smith,
    solve_integer_smith,
)

small_matrix = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def hermite_of(rows):
    """hermite_rows of dense rows of one width (no rows, no width)."""
    rows = list(rows)
    return hermite_rows(len(rows[0]) if rows else 0, sparse_rows(rows))


def dense(row, width):
    """A {column: entry} row written out as a tuple of the given width."""
    return tuple(row.get(k, 0) for k in range(width))


def is_smith(d):
    nr, nc = dims(d)
    diag = [d[i][i] for i in range(min(nr, nc))]
    for i in range(nr):
        for j in range(nc):
            if i != j and d[i][j] != 0:
                return False
    if any(x < 0 for x in diag):
        return False
    nz = [x for x in diag if x != 0]
    if diag != nz + [0] * (len(diag) - len(nz)):
        return False
    return all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))


def test_snf_zero_matrix():
    d, p, q = smith_normal_form(zeros(2, 3))
    assert d == zeros(2, 3)
    assert p == identity(2)
    assert q == identity(3)


def test_snf_identity():
    d, p, q = smith_normal_form(identity(3))
    assert d == identity(3)


def test_snf_hand_example():
    # hand elimination: gcd of entries is 2; det is -8, so d1*d2 = 8
    m = freeze([[2, 4], [6, 8]])
    d, p, q = smith_normal_form(m)
    assert [d[0][0], d[1][1]] == [2, 4]
    assert mat_mul(mat_mul(p, m), q) == d


@settings(max_examples=150, deadline=None)
@given(small_matrix)
def test_snf_properties(rows):
    m = freeze(rows)
    d, p, q = smith_normal_form(m)
    assert mat_mul(mat_mul(p, m), q) == d
    assert abs(determinant(p)) == 1
    assert abs(determinant(q)) == 1
    assert is_smith(d)


def _smith_full_scan(m):
    """The Smith reduction that scans the whole block for every pivot and
    checks divisibility after every pivot, units included."""
    nr, nc = dims(m)
    a = [list(row) for row in m]
    p = [list(row) for row in identity(nr)]
    q = [list(row) for row in identity(nc)]
    t = 0
    while True:
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best[0]):
                    best = (abs(a[i][j]), i, j)
        if best is None:
            break
        _, bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        p[t], p[bi] = p[bi], p[t]
        for mat in (a, q):
            for row in mat:
                row[t], row[bj] = row[bj], row[t]
        dirty = False
        for i in range(t + 1, nr):
            if a[i][t] != 0:
                f = a[i][t] // a[t][t]
                a[i] = [x - f * y for x, y in zip(a[i], a[t])]
                p[i] = [x - f * y for x, y in zip(p[i], p[t])]
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, nc):
            if a[t][j] != 0:
                f = a[t][j] // a[t][t]
                for mat in (a, q):
                    for row in mat:
                        row[j] -= f * row[t]
                dirty = dirty or a[t][j] != 0
        if dirty:
            continue
        offender = next(
            (
                i
                for i in range(t + 1, nr)
                for j in range(t + 1, nc)
                if a[i][j] % a[t][t] != 0
            ),
            None,
        )
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            p[t] = [x + y for x, y in zip(p[t], p[offender])]
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            p[t] = [-x for x in p[t]]
        t += 1
        if t >= min(nr, nc):
            break
    return freeze(a), freeze(p), freeze(q)


# up to 5 x 5, empty ones included, entries often units
unit_rich_matrix = st.integers(0, 5).flatmap(
    lambda r: st.integers(0, 5).flatmap(
        lambda c: st.lists(
            st.lists(
                st.one_of(st.sampled_from([-1, 0, 1]), st.integers(-9, 9)),
                min_size=c,
                max_size=c,
            ),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(max_examples=300, deadline=None)
@given(unit_rich_matrix)
def test_snf_matches_full_scan(rows):
    m = freeze(rows)
    assert smith_normal_form(m) == _smith_full_scan(m)


def test_snf_matches_full_scan_on_lattice_relations(monkeypatch):
    # every matrix that coinvariants and box_quotient reduce on the
    # lattice benchmark's systems, the non-unit block and the full
    # transposed basis alike, and the generator images read off the
    # transform against one projection per generator
    matrices = []

    def recording(m):
        matrices.append(m)
        return smith_normal_form(m)

    monkeypatch.setattr(intlinalg, "smith_normal_form", recording)
    for fam, rk in sweep_types(6) + [("E", 7)]:
        rs = build(fam, rk)
        n = rs.rank * rs.rank
        for pair in (("root", "root"), ("root", "coroot"), ("coroot", "coroot")):
            for quotient in (coinvariants, box_quotient):
                matrices.clear()
                fp = quotient(rs, *pair)
                images = list(fp.generator_images())
                assert matrices, (fam, rk, pair)
                for m in matrices:
                    assert smith_normal_form(m) == _smith_full_scan(m), (fam, rk, pair)
                assert images == [
                    fp.project(tuple(int(i == k) for i in range(n))) for k in range(n)
                ], (fam, rk, pair)


@settings(max_examples=100, deadline=None)
@given(small_matrix)
def test_hermite_is_canonical_and_spans(rows):
    h = hermite_of(rows)
    assert hermite_of(h) == h
    for r in rows:
        assert lattice_contains(h, r)
    for b in h:
        # every basis row is an integer combination of the inputs
        c = solve_integer(rows, b)
        assert c is not None and _combine(c, rows, len(b)) == b


def _hermite_full_rows(rows):
    """The Hermite reduction that rescans every row from column 0 for its
    pivot and updates whole rows, in folding and in normalisation."""
    pivots = {}
    for row in rows:
        r = list(row)
        while True:
            pcol = next((k for k, x in enumerate(r) if x != 0), None)
            if pcol is None:
                break
            if pcol not in pivots:
                if r[pcol] < 0:
                    r = [-x for x in r]
                pivots[pcol] = r
                break
            b = pivots[pcol]
            if abs(r[pcol]) < abs(b[pcol]):
                pivots[pcol], r = ([-x for x in r] if r[pcol] < 0 else r), b
                b = pivots[pcol]
            f = r[pcol] // b[pcol]
            if f:
                r = [x - f * y for x, y in zip(r, b)]
    cols = sorted(pivots)
    basis = [pivots[c] for c in cols]
    for i, pcol in enumerate(cols):
        prow = basis[i]
        for j in range(i):
            f = basis[j][pcol] // prow[pcol]
            if f:
                basis[j] = [x - f * y for x, y in zip(basis[j], prow)]
    return [tuple(r) for r in basis]


# up to 7 x 7 dense, entries often units or zero
dense_matrix = st.integers(0, 7).flatmap(
    lambda r: st.integers(1, 7).flatmap(
        lambda c: st.lists(
            st.lists(
                st.one_of(st.sampled_from([-1, 0, 1]), st.integers(-30, 30)),
                min_size=c,
                max_size=c,
            ),
            max_size=r,
        )
    )
)


def _sparse_row(width, col=None):
    if col is None:
        col = st.integers(0, width - 1)
    entry = st.tuples(col, st.integers(-6, 6))

    def row(entries):
        r = [0] * width
        for k, x in entries:
            r[k] += x
        return r

    return st.lists(entry, max_size=3).map(row)


def _sparse_rows(width):
    return st.lists(_sparse_row(width), max_size=40)


def _dependent_rows(width):
    """A few sparse rows crowded into the first columns, then a*u + b*v
    for rows u, v among them, shuffled in: negatives, duplicates and
    zero combinations cancel to zero, and scaled copies such as 4 and 6
    at one pivot leave a remainder that stays at the pivot column."""
    col = st.one_of(st.integers(0, min(3, width - 1)), st.integers(0, width - 1))

    def with_combinations(rows):
        n = len(rows)
        combo = st.tuples(
            st.integers(0, n - 1),
            st.integers(0, n - 1),
            st.sampled_from([-2, -1, 0, 1, 2, 3]),
            st.sampled_from([-1, 0, 1]),
        )
        return st.lists(combo, max_size=24).flatmap(
            lambda cs: st.permutations(
                rows
                + [[a * x + b * y for x, y in zip(rows[i], rows[j])] for i, j, a, b in cs]
            )
        )

    return st.lists(_sparse_row(width, col), min_size=1, max_size=8).flatmap(
        with_combinations
    )


# width up to 64, at most 3 nonzeros a row, zero and negative rows included
wide_sparse_matrix = st.integers(1, 64).flatmap(_sparse_rows)
dependent_sparse_matrix = st.integers(1, 64).flatmap(_dependent_rows)


@settings(max_examples=300, deadline=None)
@given(st.one_of(dense_matrix, wide_sparse_matrix, dependent_sparse_matrix))
def test_hermite_matches_full_rows(rows):
    assert hermite_of(rows) == _hermite_full_rows(rows)


def test_hermite_edge_cases():
    assert hermite_rows(0, []) == []
    assert hermite_rows(3, iter([])) == []
    assert hermite_rows(3, [{}]) == []
    # columns with no pivot, trailing ones included, keep the given width
    assert hermite_rows(4, [{1: 2}, {1: -3}]) == [(0, 1, 0, 0)]
    rows = [{0: 4, 1: 1}, {0: 6}]
    assert hermite_rows(3, rows) == [(2, 2, 0), (0, 3, 0)]
    # the input rows are read, never rewritten
    assert rows == [{0: 4, 1: 1}, {0: 6}]
    assert sparse_rows([[0, 2, 0], [0, 0, 0], [-1, 0, 3]]) == [{1: 2}, {}, {0: -1, 2: 3}]


def _dict_row(width):
    """A {column: entry} row of up to three entries: entries drawn at one
    column add up, and a sum of zero is dropped, so rows may be empty."""
    entry = st.tuples(st.integers(0, width - 1), st.integers(-6, 6))

    def row(entries):
        r = {}
        for k, x in entries:
            r[k] = r.get(k, 0) + x
        return {k: x for k, x in r.items() if x}

    return st.lists(entry, max_size=3).map(row)


# a width up to 40 and {column: entry} rows for it: independent ones, or
# dependent ones whose combinations cancel to zero; the empty stream too
sparse_relations = st.integers(1, 40).flatmap(
    lambda w: st.tuples(
        st.just(w),
        st.one_of(
            st.lists(_dict_row(w), max_size=40),
            _dependent_rows(w).map(sparse_rows),
            st.just([]),
        ),
    )
)


@settings(max_examples=200, deadline=None)
@given(sparse_relations)
def test_hermite_on_sparse_rows_matches_full_rows_on_dense(case):
    width, rows = case
    full = [dense(r, width) for r in rows]
    assert hermite_rows(width, iter(rows)) == _hermite_full_rows(full)
    fp = FPAbelianGroup(width, iter(rows))
    assert fp.relations == (tuple(_hermite_full_rows(full)) or zeros(0, width))
    assert list(fp.generator_images()) == [
        fp.project(tuple(int(i == k) for i in range(width))) for k in range(width)
    ]
    assert all(projects_to_zero(fp, r) for r in full)


# up to 40 x 40 with at most 3 nonzeros a row, and transposed Hermite
# bases of sparse rows, as FPAbelianGroup hands them to the Smith reduction
sparse_smith_matrix = st.one_of(
    st.integers(1, 40).flatmap(
        lambda r: st.integers(1, 40).flatmap(
            lambda c: st.lists(_sparse_row(c), min_size=r, max_size=r)
        )
    ),
    st.integers(1, 40)
    .flatmap(lambda w: st.one_of(_sparse_rows(w), _dependent_rows(w)))
    .map(lambda rows: transpose(hermite_of(rows))),
)


@settings(max_examples=150, deadline=None)
@given(sparse_smith_matrix)
def test_snf_matches_full_scan_on_sparse_matrices(rows):
    m = freeze(rows)
    assert smith_normal_form(m) == _smith_full_scan(m)


def test_hermite_matches_full_rows_on_lattice_relations(monkeypatch):
    # every relation stream that coinvariants and box_quotient fold in
    # on the lattice benchmark's systems, and on B8 and E8
    streams = []

    def recording(width, rows):
        rows = list(rows)
        streams.append([dense(r, width) for r in rows])
        return hermite_rows(width, rows)

    monkeypatch.setattr(intlinalg, "hermite_rows", recording)
    for fam, rk in sweep_types(6) + [("E", 7), ("B", 8), ("E", 8)]:
        rs = build(fam, rk)
        for pair in (("root", "root"), ("root", "coroot"), ("coroot", "coroot")):
            for quotient in (coinvariants, box_quotient):
                streams.clear()
                fp = quotient(rs, *pair)
                (rows,) = streams
                assert fp.relations == tuple(_hermite_full_rows(rows)), (fam, rk, pair)


@settings(max_examples=50, deadline=None)
@given(small_matrix)
def test_hermite_and_presentations_take_iterators(rows):
    # relations may be streamed: an iterator of them gives the same
    # echelon basis and the same group as the list
    n = len(rows[0])
    rows = sparse_rows(rows)
    assert hermite_rows(n, iter(rows)) == hermite_rows(n, rows)
    streamed, listed = FPAbelianGroup(n, iter(rows)), FPAbelianGroup(n, rows)
    assert streamed.descriptor() == listed.descriptor()
    assert list(streamed.generator_images()) == list(listed.generator_images())


def test_lattice_reduce_canonical():
    h = hermite_of([[2, 0], [0, 3]])
    assert lattice_reduce(h, (5, 7)) == (1, 1)
    assert lattice_reduce(h, (-1, -1)) == (1, 2)
    assert lattice_contains(h, (4, -3))
    assert not lattice_contains(h, (1, 0))


def _lattice_reduce_oracle(hnf, v):
    """The generator-and-index implementation lattice_reduce replaced."""
    out = list(v)
    for row in hnf:
        pcol = next(k for k in range(len(row)) if row[k] != 0)
        f = out[pcol] // row[pcol]
        if f:
            for k in range(len(out)):
                out[k] -= f * row[k]
    return tuple(out)


def _full_rank_lattice(n, diagonal):
    if diagonal:
        rows = st.lists(st.integers(1, 9), min_size=n, max_size=n).map(
            lambda d: [[d[i] * (i == j) for j in range(n)] for i in range(n)]
        )
    else:
        rows = st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
        ).filter(lambda r: determinant(freeze(r)) != 0)
    return rows.map(hermite_of)


lattice_and_vector = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.booleans().flatmap(lambda diag: _full_rank_lattice(n, diag)),
        st.lists(st.integers(-60, 60), min_size=n, max_size=n).map(tuple),
    )
)


@settings(max_examples=300, deadline=None)
@given(lattice_and_vector)
def test_lattice_reduce_matches_generator_oracle(case):
    hnf, v = case
    got = lattice_reduce(hnf, v)
    assert got == _lattice_reduce_oracle(hnf, v)
    assert type(got) is tuple
    # a canonical representative: v - got lies in the lattice, and
    # reducing twice or from a list changes nothing
    assert lattice_contains(hnf, tuple(x - y for x, y in zip(v, got)))
    assert lattice_reduce(hnf, got) == got
    assert lattice_reduce(hnf, list(v)) == got


@st.composite
def hermite_basis_and_vectors(draw):
    """The Hermite basis of a diagonal or of random rows of width 0 to 4
    (rank-deficient rows too), with vectors of that width: possibly none,
    with negative entries and some listed twice."""
    n = draw(st.integers(0, 4))
    if draw(st.booleans()):
        d = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
        rows = [[d[i] * (i == j) for j in range(n)] for i in range(n)]
    else:
        rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), max_size=n + 1))
    vectors = draw(st.lists(st.lists(st.integers(-60, 60), min_size=n, max_size=n), max_size=12))
    if vectors:
        vectors += draw(st.lists(st.sampled_from(vectors), max_size=3))
    return hermite_of(rows), vectors


@settings(max_examples=300, deadline=None)
@given(hermite_basis_and_vectors())
def test_lattice_reduce_all_is_lattice_reduce_of_each(case):
    hnf, vectors = case
    got = lattice_reduce_all(hnf, vectors)
    assert got == {lattice_reduce(hnf, v) for v in vectors}
    assert all(type(v) is tuple for v in got)
    assert lattice_reduce_all(hnf, iter(map(tuple, vectors))) == got


@st.composite
def echelon_and_vector(draw):
    """An echelon basis as the package builds one, with a vector of its
    width: the Hermite basis of a few rows, square or not (rank-deficient
    ones put pivots right of the diagonal), or of augmented rows, either
    solve_integer's (r | e_i) or _members_in_subspace's (r off some
    columns | r)."""
    w = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=w, max_size=w), max_size=w + 1))
    shape = draw(st.sampled_from(["plain", "solve", "subspace"]))
    if shape == "plain":
        width, sparse = w, sparse_rows(rows)
    elif shape == "solve":
        width, sparse = w + len(rows), augmented_rows(w, rows, identity(len(rows)))
    else:
        kept = draw(st.sets(st.integers(0, w - 1)))
        proj = [i for i in range(w) if i not in kept]
        width = len(proj) + w
        sparse = augmented_rows(len(proj), ([r[i] for i in proj] for r in rows), rows)
    basis = hermite_rows(width, sparse)
    v = draw(st.lists(st.integers(-60, 60), min_size=width, max_size=width))
    return basis, tuple(v)


@settings(max_examples=400, deadline=None)
@given(echelon_and_vector())
@example(([(0, 2, 1), (0, 0, 3)], (5, 7, -4)))
@example(([(1, 0, 0, 1), (0, 0, 2, 5)], (3, 1, 9, -8)))
@example(([(0, 0, 2, 1)], (1, 1, 5, 3)))
@example(([], (4, -1)))
def test_lattice_reduce_matches_the_scanning_oracle(case):
    # a nonzero row[i] is row i's pivot; rows whose pivot lies right of
    # the diagonal are scanned
    hnf, v = case
    got = lattice_reduce(hnf, v)
    assert got == lattice_reduce_scan(hnf, v)
    assert type(got) is tuple
    assert lattice_reduce(hnf, list(v)) == got


def test_lattice_intersection():
    a = hermite_of([[2, 0], [0, 1]])
    b = hermite_of([[1, 0], [0, 3]])
    got = lattice_intersection(a, b)
    assert got == hermite_of([[2, 0], [0, 3]])


def test_quotient_reps():
    h = hermite_of([[2, 0], [0, 2]])
    reps = coset_residues(h, [(0, 0)], identity(2))
    assert sorted(reps) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    h2 = hermite_of([[1, 1], [0, 2]])
    assert len(coset_residues(h2, [(0, 0)], identity(2))) == 2


def _coset_residues_bfs(hnf, cosets, gens):
    """The breadth-first search coset_residues replaced: close the reduced
    cosets under adding and subtracting each generator."""
    seen = {lattice_reduce(hnf, c) for c in cosets}
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                for sgn in (1, -1):
                    w = lattice_reduce(hnf, tuple(x + sgn * y for x, y in zip(v, g)))
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
        frontier = nxt
    return seen


def _vectors(n, lo, hi, max_size):
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=n, max_size=n).map(tuple),
        max_size=max_size,
    )


quotient_case = st.integers(0, 4).flatmap(
    lambda n: st.tuples(
        st.booleans()
        .flatmap(lambda diag: _full_rank_lattice(n, diag))
        .filter(lambda h: determinant(freeze(h)) <= 2000),
        _vectors(n, -20, 20, 4),
        _vectors(n, -9, 9, 3),
    )
)


@settings(max_examples=300, deadline=None)
@given(quotient_case)
def test_coset_residues_matches_bfs(case):
    hnf, cosets, gens = case
    got = coset_residues(hnf, cosets, gens)
    assert got == _coset_residues_bfs(hnf, cosets, gens)
    assert all(lattice_reduce(hnf, v) == v for v in got)


def test_coset_residues_index_cap():
    assert MAX_QUOTIENT_INDEX == 2 ** 12
    at_cap = hermite_of([[2 ** 12, 0], [0, 1]])
    assert len(coset_residues(at_cap, [(0, 0)], identity(2))) == 2 ** 12
    over = hermite_of([[2 * (i == j) for j in range(13)] for i in range(13)])
    with pytest.raises(QuotientTooLarge, match="index 8192 exceeds the cap 4096"):
        coset_residues(over, [])
    with pytest.raises(ValueError, match="full-rank"):
        coset_residues(hermite_of([[2, 0]]), [(0, 0)])


def _combine(coeffs, rows, width):
    """sum coeffs_i * rows_i, a tuple of the given width."""
    return tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(width))


def _unimodular(draw, size):
    """The identity of the given size after a few random row additions and
    negations."""
    m = [list(r) for r in identity(size)]
    ops = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1), st.integers(-2, 2))
    for i, j, f in draw(st.lists(ops, max_size=6)) if size else ():
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            m[i] = [x + f * y for x, y in zip(m[i], m[j])]
    return m


@st.composite
def augmented_case(draw):
    """Rows of width 0-4 and a target that is zero, in their span or
    arbitrary; two more row lattices of that width; a square matrix that
    is unimodular, singular or arbitrary; and a full-rank S-set with the
    basis indices of a subgroup G_idx."""
    n = draw(st.integers(0, 4))
    vec = st.lists(st.integers(-4, 4), min_size=n, max_size=n).map(tuple)

    def spanned(width, count):
        # combinations of fewer base rows than the width, or of more rows
        # than the base has, are rank-deficient; count 0 gives no rows
        base = draw(st.lists(st.lists(st.integers(-4, 4), min_size=width, max_size=width),
                             max_size=width))
        coeffs = st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base))
        return [_combine(draw(coeffs), base, width) for _ in range(count)]

    def full_rank(width):
        # D.U with D diagonal and U unimodular: every full-rank lattice
        diag = draw(st.lists(st.integers(1, 5), min_size=width, max_size=width))
        return [[d * x for x in r] for d, r in zip(diag, _unimodular(draw, width))]

    def lattice(width):
        if draw(st.booleans()):
            return full_rank(width)
        return spanned(width, draw(st.integers(0, 4)))

    rows = spanned(n, draw(st.integers(0, 5)))
    kind = draw(st.sampled_from(["zero", "span", "any"]))
    if kind == "zero":
        target = (0,) * n
    elif kind == "span":
        target = _combine(draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                                        max_size=len(rows))), rows, n)
    else:
        target = draw(vec)
    pair = lattice(n), lattice(n)

    size = draw(st.integers(0, 4))
    kind = draw(st.sampled_from(["unimodular", "singular", "any"]))
    if kind == "unimodular":
        square = _unimodular(draw, size)
    elif kind == "singular" and size:
        # the last row a combination of the others
        square = spanned(size, size - 1)
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=size - 1, max_size=size - 1))
        square.append(_combine(coeffs, square, size))
    else:
        square = [draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
                  for _ in range(size)]

    m = draw(st.integers(0, 3))
    h = full_rank(m)
    cosets = draw(st.lists(st.lists(st.integers(-9, 9), min_size=m, max_size=m).map(tuple),
                           min_size=1, max_size=4))
    idx = draw(st.sets(st.integers(0, m - 1))) if m else set()
    return rows, target, pair, square, (SSet(h, cosets), idx, m)


@settings(max_examples=300, deadline=None)
@given(augmented_case())
def test_augmented_hermite_matches_smith_and_fraction_oracles(case):
    rows, target, (a, b), square, (sset, idx, m) = case
    c = solve_integer(rows, target)
    assert (c is None) == (solve_integer_smith(rows, target) is None)
    if c is not None:
        assert len(c) == len(rows) and _combine(c, rows, len(target)) == tuple(target)
    assert lattice_intersection(a, b) == lattice_intersection_smith(a, b)
    try:
        want = mat_inv_fraction(square)
    except ValueError:
        with pytest.raises(ValueError):
            mat_inv(square)
    else:
        assert mat_inv(square) == want
    assert _members_in_subspace(sset, idx, m) == members_in_subspace_smith(sset, idx, m)


def test_solve_integer():
    m = freeze([[2, 0], [0, 3]])
    assert solve_integer(m, (4, 9)) == (2, 3)
    assert solve_integer(m, (1, 0)) is None


def test_mat_inv_unimodular():
    m = freeze([[1, 2], [0, 1]])
    assert mat_inv(m) == freeze([[1, -2], [0, 1]])
    with pytest.raises(ValueError):
        mat_inv(freeze([[2, 0], [0, 1]]))


def projects_to_zero(fp, coords):
    """Whether coords lie in the relation lattice of fp."""
    free, tors = fp.project(coords)
    return not any(free) and not any(tors)


def test_fp_abelian_group_basic():
    # Z^2 / <(2,0),(0,3)> = Z2 x Z3 -> invariant factor 6 after SNF
    fp = FPAbelianGroup(2, [{0: 2}, {1: 3}])
    assert fp.free_rank == 0
    assert sorted(fp.torsion) == [6]
    assert fp.descriptor() == "Z6"
    assert projects_to_zero(fp, (2, 3))
    assert not projects_to_zero(fp, (1, 0))


def test_fp_abelian_group_free():
    fp = FPAbelianGroup(3, [])
    assert fp.free_rank == 3
    assert fp.torsion == ()
    fp2 = FPAbelianGroup(2, [{0: 2, 1: 2}])
    assert fp2.free_rank == 1
    assert fp2.torsion == (2,)
    assert fp2.descriptor() == "Z x Z2"
    # relation itself projects to zero
    assert projects_to_zero(fp2, (2, 2))
    assert projects_to_zero(fp2, (-4, -4))
    assert not projects_to_zero(fp2, (1, 1))


def _relation_sets(width):
    """{column: entry} rows for Z^width: sparse ones (empty rows too),
    dependent ones, and rows scaled by a non-unit or a negative factor,
    each given twice, so pivots are often neither 1 nor positive."""
    if width == 0:
        return st.lists(st.just({}), max_size=3)
    scaled = st.tuples(_dict_row(width), st.sampled_from([-3, -2, -1, 2, 4, 6]))
    return st.one_of(
        st.lists(_dict_row(width), max_size=40),
        _dependent_rows(width).map(sparse_rows),
        st.lists(scaled, max_size=10).map(
            lambda rs: [{k: f * x for k, x in r.items()} for r, f in rs for _ in "ab"]
        ),
    )


def assert_classified_as_full_smith(fp, n, rows, case=None):
    """fp against the full Smith oracle: its classification, its generator
    images, and project(e_k) for every k, or for 4 spread-out k when n
    is large (a projection costs n^2)."""
    factors, torsion, free_rank, images = classify_smith(n, rows)
    assert (fp.invariant_factors, fp.torsion, fp.free_rank) == (
        factors, torsion, free_rank
    ), case
    assert list(fp.generator_images()) == images, case
    ks = range(n) if n <= 64 else (0, n // 3, 2 * n // 3, n - 1)
    for k in ks:
        assert fp.project(tuple(int(i == k) for i in range(n))) == images[k], (case, k)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 24).flatmap(lambda w: st.tuples(st.just(w), _relation_sets(w))))
@example((0, []))
@example((0, [{}, {}]))
@example((4, []))
@example((3, [{}, {}, {}]))
@example((3, [{0: -2, 2: 5}, {0: -2, 2: 5}, {1: 4, 2: -6}, {0: 4, 1: -8, 2: 22}]))
@example((2, [{0: -1}, {1: -4}, {1: 6}]))
def test_fp_abelian_group_matches_full_smith_oracle(case):
    n, rows = case
    assert_classified_as_full_smith(FPAbelianGroup(n, iter(rows)), n, rows)


def _lattice_quotients():
    """coinvariants and box_quotient, on all three side pairs, of every
    sweep_types(8) type and of B, C, D and BC at rank 24."""
    for fam, rk in sweep_types(8) + [("B", 24), ("C", 24), ("D", 24), ("BC", 24)]:
        rs = build(fam, rk)
        for pair in (("root", "root"), ("root", "coroot"), ("coroot", "coroot")):
            for quotient in (coinvariants, box_quotient):
                yield (fam, rk, *pair, quotient.__name__), partial(quotient, rs, *pair)


def test_lattice_quotients_match_full_smith_oracle(monkeypatch):
    rows = []

    def recording(width, relations):
        rows.append(list(relations))
        return hermite_rows(width, rows[-1])

    monkeypatch.setattr(intlinalg, "hermite_rows", recording)
    for case, make in _lattice_quotients():
        rows.clear()
        fp = make()
        (relations,) = rows
        assert_classified_as_full_smith(fp, fp.n_generators, relations, case)


def test_descriptor_reduces_only_the_non_unit_block(monkeypatch):
    # the descriptor reads the Smith form of the rows whose pivot is not
    # 1; the transform is built once, on the first projection asked for
    shapes = []

    def recording(m):
        shapes.append(dims(m))
        return smith_normal_form(m)

    monkeypatch.setattr(intlinalg, "smith_normal_form", recording)
    for case, make in _lattice_quotients():
        shapes.clear()
        fp = make()
        fp.descriptor()
        assert all(rows <= 3 for rows, _ in shapes), (case, shapes)
        before = len(shapes)
        list(fp.generator_images())
        # with no relations the transposed basis is one zero column
        assert shapes[before:] == [(fp.n_generators, len(fp.relations) or 1)], case
        list(fp.generator_images())
        fp.project((0,) * fp.n_generators)
        assert len(shapes) == before + 1, case
