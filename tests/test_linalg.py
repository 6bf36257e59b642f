import dataclasses
import random
import time
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from packetgroup.linalg import (AmbientMismatch, FinAbGroup, InfiniteQuotient,
                                LatticeError, Mat, NotASublattice, Sublattice,
                                _row_hnf, column_hnf, congruence_lattice, fixed_point_conditions,
                                kernel_lattice, preimage_lattice, preimage_mod,
                                quotient_invariants, restrict_endomorphism, smith,
                                solve_columns, solve_modulo)

entries = st.integers(-9, 9)


@st.composite
def matrices(draw, max_dim=4):
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    rows = draw(st.lists(st.lists(entries, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    return Mat.from_rows(rows)


@st.composite
def unimodulars(draw, dim):
    seed = draw(st.integers(0, 2 ** 32))
    from packetgroup.randomgen import random_unimodular
    return random_unimodular(random.Random(seed), dim, ops=8)


@st.composite
def shaped(draw, rows=None, cols=None, max_dim=4):
    """Any r x c matrix, empty shapes included."""
    r = draw(st.integers(0, max_dim)) if rows is None else rows
    c = draw(st.integers(0, max_dim)) if cols is None else cols
    return Mat(r, c, tuple(draw(st.lists(entries, min_size=r * c, max_size=r * c))))


def naive_coords(columns, vec):
    """The integer c with sum_j c_j columns[j] = vec, or None.

    The columns must be linearly independent: Gaussian elimination over Q,
    then a test that the unique rational solution is integral.
    """
    k = len(columns)
    rows = [[Fraction(col[i]) for col in columns] + [Fraction(v)] for i, v in enumerate(vec)]
    pivot_cols, r = [], 0
    for c in range(k):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
    assert pivot_cols == list(range(k))
    if any(row[k] for row in rows[k:]) or any(rows[i][k].denominator != 1 for i in range(k)):
        return None
    return tuple(int(rows[i][k]) for i in range(k))


def as_fixed_point_actions(m):
    """Square matrices a whose stacked a - I is m padded with zero rows."""
    k = m.cols
    rows = m.to_rows() + [[0] * k] * (-m.rows % k)
    return [Mat.identity(k) + Mat.from_rows(rows[i:i + k]) for i in range(0, len(rows), k)]


def test_hnf_snf_examples():
    m = Mat.from_rows([[2, 0], [0, 3]])
    assert column_hnf(m).columns() == [(2, 0), (0, 3)]
    assert smith(m).d == (1, 6)

    z = Mat.zeros(2, 2)
    assert column_hnf(z).cols == 0
    assert smith(z).d == ()

    # a given size must match non-empty input and sizes empty input
    assert Mat.from_rows([[1, 2]], cols=2) == Mat.from_columns([[1], [2]], rows=1)
    assert Mat.from_rows([], cols=3).cols == Mat.from_columns([], rows=3).rows == 3
    with pytest.raises(LatticeError):
        Mat.from_rows([[1, 2]], cols=1)
    with pytest.raises(LatticeError):
        Mat.from_columns([[1, 2]], rows=3)
    # entries are taken as given: floats and bools are not integers
    with pytest.raises(LatticeError):
        Mat.from_rows([[1.7, 2]])
    with pytest.raises(LatticeError):
        Mat.from_columns([[True]])


def test_kernel_examples():
    assert kernel_lattice(Mat.from_rows([[1, 1]])).basis.columns() == [(1, -1)]
    assert kernel_lattice(Mat.identity(2)).rank == 0
    assert kernel_lattice(Mat.zeros(1, 2)).is_full


def test_preimage_examples():
    assert preimage_mod(Mat.from_rows([[1, 1]]), 2).basis.columns() == [(1, 1), (0, 2)]
    assert preimage_mod(Mat.from_rows([[3, -5], [7, 2]]), 1).is_full
    assert preimage_mod(Mat.identity(2), 3) == Sublattice.scaled(2, 3)
    with pytest.raises(LatticeError):
        preimage_mod(Mat.identity(2), 0)
    with pytest.raises(LatticeError):
        Sublattice.from_columns(2, [[1, 0]], modulus=-1)


def test_meet_join_examples():
    a = Sublattice.from_columns(2, [[2, 0], [0, 1]])
    b = Sublattice.from_columns(2, [[1, 0], [0, 3]])
    meet, join = a.meet(b), b.join(a.basis)
    assert meet == Sublattice.from_columns(2, [[2, 0], [0, 3]])
    assert join.is_full and quotient_invariants(join, meet).order == 6

    meet, join = a.meet(a), a.join(a.basis)
    assert meet == a and join == a and quotient_invariants(join, meet).order == 1

    a2, zero = Sublattice.scaled(2, 2), Sublattice.zero(2)
    meet, join = a2.meet(zero), zero.join(a2.basis)
    assert meet.rank == 0 and join == Sublattice.scaled(2, 2)
    assert meet.rank != join.rank
    with pytest.raises(InfiniteQuotient):
        quotient_invariants(join, meet)
    assert zero.meet(a2) == meet

    with pytest.raises(AmbientMismatch):
        a.meet(Sublattice.full(3))
    with pytest.raises(AmbientMismatch):
        a.join(Mat.identity(3))


def test_quotient_examples():
    assert quotient_invariants(Sublattice.full(2),
                               Sublattice.scaled(2, 2)).invariant_factors == (2, 2)
    assert quotient_invariants(
        Sublattice.full(2),
        Sublattice.from_columns(2, [[2, 0], [0, 3]])).invariant_factors == (6,)
    lat = Sublattice.from_columns(3, [[1, 2, 0], [0, 4, 0], [0, 0, 5]])
    assert quotient_invariants(lat, lat).is_trivial


def test_quotient_errors():
    with pytest.raises(NotASublattice):
        quotient_invariants(Sublattice.scaled(2, 2), Sublattice.full(2))
    with pytest.raises(InfiniteQuotient):
        quotient_invariants(Sublattice.full(2),
                            Sublattice.from_columns(2, [[2, 0]]))


def test_finabgroup_validation():
    assert FinAbGroup.trivial().order == 1
    assert FinAbGroup((2, 4, 8)).order == 64
    assert FinAbGroup.from_diagonal((1, 1, 6)).invariant_factors == (6,)
    with pytest.raises(LatticeError):
        FinAbGroup((3, 4))
    with pytest.raises(LatticeError):
        FinAbGroup((1, 2))


def diagonal_mat(diag):
    k = len(diag)
    return Mat(k, k, tuple(diag[i] if i == j else 0 for i in range(k) for j in range(k)))


def smith_reading(x):
    """The invariant factors of Z^k / x Z^k as the Smith form gives them."""
    return FinAbGroup(tuple(d for d in smith(x).d if d != 1))


diagonal_entries = st.one_of(
    st.just(1),
    st.sampled_from((2, 3, 5, 6, 10, 15, 30)),  # repeated and coprime
    st.builds(pow, st.sampled_from((2, 3, 5, 7)), st.integers(1, 12)),
    st.integers(2, 10 ** 4),
    st.integers(2 ** 199, 2 ** 200))


@given(st.lists(diagonal_entries, max_size=5))
@example([])
@example([1, 1, 6])
@example([4, 4, 2, 8])
@example([2 ** 200, 3 ** 126, 6])
@settings(deadline=None, max_examples=200)
def test_diagonal_fold_matches_smith(diag):
    want = smith_reading(diagonal_mat(diag))
    assert FinAbGroup.from_diagonal(diag) == want
    assert FinAbGroup.from_diagonal(smith(diagonal_mat(diag)).d) == want


def nonsingular(k):
    element = st.one_of(entries, st.integers(-2 ** 40, 2 ** 40))
    square = st.lists(element, min_size=k * k, max_size=k * k).map(
        lambda e: Mat(k, k, tuple(e)))
    return square.filter(lambda m: m.det() != 0)


@given(st.integers(1, 4), st.sampled_from(("equal", "scaled", "mixed")), st.data())
@settings(deadline=None, max_examples=150)
def test_quotient_invariants_matches_the_smith_reading(k, how, data):
    sup = Sublattice.from_matrix(data.draw(nonsingular(k)))
    if how == "equal":
        sub = sup
    elif how == "scaled":
        sub = Sublattice.from_matrix(sup.basis.scale(data.draw(diagonal_entries)))
    else:
        sub = Sublattice.from_matrix(sup.basis @ data.draw(nonsingular(k)))
    x = Mat.from_columns([sup.coords_of(c) for c in sub.basis.columns()], rows=k)
    assert quotient_invariants(sup, sub) == smith_reading(x)


def test_quotient_invariants_reads_a_diagonal_without_smith(monkeypatch):
    import packetgroup.linalg as linalg
    real, calls = linalg.smith, []
    monkeypatch.setattr(linalg, "smith", lambda m: calls.append(m) or real(m))
    sup = Sublattice.from_columns(2, [[3, 1], [0, 2]])
    # sub == sup and sub == 6 * sup give diagonal coordinates; the last does not
    assert quotient_invariants(sup, sup).is_trivial and not calls
    six = Sublattice.from_matrix(sup.basis.scale(6))
    assert quotient_invariants(sup, six).invariant_factors == (6, 6) and not calls
    mixed = Sublattice.from_matrix(sup.basis @ Mat.from_rows([[2, 1], [0, 2]]))
    assert quotient_invariants(sup, mixed).invariant_factors == (4,) and len(calls) == 1


def test_sublattice_canonical_rejects_noncanonical():
    for columns, message in (([[1, 0], [0, 0]], "zero basis column"),
                             ([[-1, 0]], "negative pivot"),
                             ([[0, 2], [1, 1]], "pivot rows not strictly increasing"),
                             ([[1, 0], [2, 0]], "pivot rows not strictly increasing"),
                             ([[2, 3], [0, 1]], "pivot row not reduced"),
                             ([[2, -1], [0, 1]], "pivot row not reduced")):
        with pytest.raises(LatticeError, match=f"^{message}$"):
            Sublattice(2, Mat.from_columns(columns, rows=2))


def reference_canonical_error(rank, columns):
    """The canonical-form predicate `Sublattice` checked by reading whole
    pivot rows, kept here as written then: its message, or None."""
    if len(columns) > rank:
        return "more basis vectors than ambient rank"
    pivots = []
    for col in columns:
        x = next(filter(None, col), 0)
        if not x:
            return "zero basis column"
        if x < 0:
            return "negative pivot"
        pivots.append(col.index(x))
    if any(p2 <= p1 for p1, p2 in zip(pivots, pivots[1:])):
        return "pivot rows not strictly increasing"
    rows = list(zip(*columns))
    for j, p in enumerate(pivots):
        row = rows[p]
        others = row[:j] + row[j + 1:]
        if others and not (min(others) >= 0 and max(others) < row[j]):
            return "pivot row not reduced"
    return None


def test_sublattice_check_matches_the_whole_row_predicate():
    # the constructor reads each pivot row only left of the pivot
    seen = set()
    for rank, count in ((2, 1), (2, 2), (3, 2)):
        for cells in product(range(-2, 3), repeat=rank * count):
            columns = [cells[j * rank:(j + 1) * rank] for j in range(count)]
            want = reference_canonical_error(rank, columns)
            seen.add(want)
            try:
                got = Sublattice(rank, Mat.from_columns(columns, rows=rank))
            except LatticeError as ex:
                assert str(ex) == want, (columns, ex)
            else:
                assert want is None and got.basis.columns() == columns
    assert len(seen) == 5


def test_constructors_keep_their_checks_and_stay_frozen():
    for args, message in (((-1, 0, ()), "negative dimensions"),
                          ((0, -2, ()), "negative dimensions"),
                          ((2, 2, (1, 2, 3)), "entry count does not match dimensions"),
                          ((1, 2, (1, True)), "entries must be integers"),
                          ((1, 2, (1, 2.0)), "entries must be integers")):
        with pytest.raises(LatticeError, match=f"^{message}$"):
            Mat(*args)
    m = Mat.from_rows([[1, 2], [0, 3]])
    lat = Sublattice.from_columns(2, [[2, 1], [0, 3]])
    for obj, name, value in ((m, "rows", 3), (m, "_rows", ()), (lat, "basis", m),
                             (lat, "_pivots", ())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, value)
    # replace builds through the constructor, so every check runs again
    with pytest.raises(LatticeError, match="^entry count does not match dimensions$"):
        dataclasses.replace(m, entries=(1, 2, 3))
    with pytest.raises(LatticeError, match="^pivot row not reduced$"):
        dataclasses.replace(lat, basis=Mat.from_rows([[2, 0], [3, 3]]))
    copy = dataclasses.replace(lat, basis=Mat.from_rows([[2, 0], [1, 3]]))
    assert copy == lat and copy._pivots == lat._pivots == (0, 1)
    assert dataclasses.replace(m, rows=2) == m and "_rows" not in vars(dataclasses.replace(m))


def sliced(m):
    """The columns and rows of `m` sliced out of its entries."""
    e, c = m.entries, m.cols
    return (tuple(e[j::c] for j in range(c)),
            tuple(e[i * c:(i + 1) * c] for i in range(m.rows)))


@given(shaped())
@example(Mat.zeros(0, 3))
@example(Mat.zeros(3, 0))
@example(Mat.zeros(0, 0))
@settings(deadline=None)
def test_seeded_rows_and_columns_are_the_slices(m):
    columns, rows = sliced(m)
    by_columns = Mat.from_columns(columns, rows=m.rows)
    by_rows = Mat.from_rows(rows, cols=m.cols)
    flipped = m.transpose()
    assert by_columns == by_rows == m and vars(by_columns)["_columns"] == columns
    assert vars(by_rows)["_rows"] == rows
    assert vars(flipped)["_columns"] == rows and vars(flipped)["_rows"] == columns
    assert sliced(flipped) == (rows, columns)
    # lists come in as well as tuples; what is stored is tuples
    assert Mat.from_columns([list(c) for c in columns], rows=m.rows)._columns == columns
    assert Mat.from_rows([list(r) for r in rows], cols=m.cols)._rows == rows


def test_row_and_col_reject_indices_outside_the_shape():
    m = Mat.from_rows([[1, 2], [3, 4]])
    assert (m.row(0), m.row(1), m.col(0), m.col(1)) == ((1, 2), (3, 4), (1, 3), (2, 4))
    for bad in (-1, -2, 2, 5):
        with pytest.raises(IndexError):
            m.row(bad)
        with pytest.raises(IndexError):
            m.col(bad)
    wide, tall = Mat.zeros(0, 3), Mat.zeros(3, 0)
    assert wide.col(0) == wide.col(2) == () and tall.row(0) == tall.row(2) == ()
    for bad in (-1, 0, 3):
        with pytest.raises(IndexError):
            wide.row(bad)
        with pytest.raises(IndexError):
            tall.col(bad)
    for bad in (-1, 3):
        with pytest.raises(IndexError):
            wide.col(bad)
        with pytest.raises(IndexError):
            tall.row(bad)


def test_column_cache_is_invisible_to_equality():
    # from_rows stores the rows it was given; the bare constructor stores no cache
    m, fresh = Mat.from_rows([[1, 2, 3], [4, 5, 6]]), Mat(2, 3, (1, 2, 3, 4, 5, 6))
    assert m.columns() == [(1, 4), (2, 5), (3, 6)] and m.col(2) == (3, 6)
    assert "_columns" in vars(m) and "_columns" not in vars(fresh)
    assert m.to_rows() == [[1, 2, 3], [4, 5, 6]] and m._rows == ((1, 2, 3), (4, 5, 6))
    assert "_rows" in vars(m) and "_rows" not in vars(fresh)
    assert m == fresh and hash(m) == hash(fresh) and len({m, fresh}) == 1
    assert repr(m) == repr(fresh) and str(m) == str(fresh) == "[1 2 3; 4 5 6]"
    lat, fresh_lat = (Sublattice.from_columns(2, [[2, 1], [0, 3]]) for _ in range(2))
    assert lat.contains_vector((2, 4)) and "_columns" in vars(lat.basis)
    assert lat == fresh_lat and hash(lat) == hash(fresh_lat) and repr(lat) == repr(fresh_lat)


def test_shared_constants_equal_fresh_values_and_stay_frozen():
    for n in range(5):
        ident = Mat(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))
        assert Mat.identity(n) == ident and Mat.identity(n) is Mat.identity(n)
        assert Sublattice.full(n) == Sublattice(n, ident)
        assert Sublattice.full(n) is Sublattice.full(n)
        with pytest.raises(dataclasses.FrozenInstanceError):
            Mat.identity(n).entries = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            Sublattice.full(n).basis = Mat.zeros(n, 0)
        assert Mat.identity(n) == ident and Sublattice.full(n).basis == ident
    with pytest.raises(LatticeError, match="negative dimensions"):
        Mat.identity(-1)


def check_lazy_meet(rows, w, d):
    """The modular HNF is the exact HNF of the rows plus D * Z^w, with w rows."""
    torsion = [[d * (i == j) for i in range(w)] for j in range(w)]
    got = _row_hnf(rows, w, d)
    assert got == _row_hnf([list(r) for r in rows] + torsion, w) and len(got) == w
    return got


moduli = st.one_of(st.just(1), st.sampled_from((2, 3, 5, 7, 101, 2 ** 61 - 1)),
                   st.sampled_from((4, 6, 12, 36, 360, 2 ** 64)),
                   st.integers(2 ** 199, 2 ** 200))


def test_lazy_meet_edge_shapes():
    assert check_lazy_meet([], 0, 1) == [] and check_lazy_meet([[], []], 0, 7) == []
    assert check_lazy_meet([[3, -4], [5, 9]], 2, 1) == [[1, 0], [0, 1]]
    assert check_lazy_meet([], 3, 6) == [[6 * (i == j) for j in range(3)] for i in range(3)]
    # a pivot entry 2 against D = 4 leaves (0, 2) beside the pivot row; 3 against 4 becomes 1
    assert check_lazy_meet([[2, 1]], 2, 4) == [[2, 1], [0, 2]]
    assert check_lazy_meet([[3, 1]], 2, 4) == [[1, 3], [0, 4]]
    # every row vanishes modulo D: D * Z^w comes back
    assert check_lazy_meet([[12, -24], [36, 0]], 2, 12) == [[12, 0], [0, 12]]
    # more rows than columns, negative entries, a pivot entry sharing a factor with D
    check_lazy_meet([[-2, 3, 5], [4, -6, 1], [6, 9, -3], [-8, 0, 2], [10, 5, 5]], 3, 12)
    big = 2 ** 200 + 235
    check_lazy_meet([[-(2 ** 205) + 3, 7, 2 ** 201], [5, -(2 ** 210), 1]], 3, big)


@given(st.integers(0, 5), moduli, st.data())
@settings(deadline=None, max_examples=150)
def test_lazy_meet_matches_the_exact_span_with_the_torsion(w, d, data):
    # half the draws scale every row by D, so all of them vanish modulo D
    scale = data.draw(st.sampled_from((1, d)))
    element = st.one_of(entries, st.integers(-2 ** 210, 2 ** 210)).map(lambda x: scale * x)
    rows = data.draw(st.lists(st.lists(element, min_size=w, max_size=w), max_size=w + 3))
    check_lazy_meet(rows, w, d)


@given(st.integers(1, 3), st.integers(0, 3), moduli, st.data())
@settings(deadline=None, max_examples=100)
def test_lazy_meet_on_hermite_blocks(r, k, d, data):
    # [[m, T], [I, 0]] with T containing D * Z^r spans D * Z^(r+k) itself
    m = data.draw(shaped(rows=r, cols=k))
    extra = data.draw(st.lists(st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=r, max_size=r),
                               max_size=2))
    target = Sublattice.scaled(r, d).join(Mat.from_columns(extra, rows=r))
    block = [c + e for c, e in zip(m._columns, Mat.identity(k)._columns)]
    block += [c + (0,) * k for c in target.basis._columns]
    assert check_lazy_meet(block, r + k, d) == _row_hnf(block, r + k)


@given(shaped(), st.data())
@settings(deadline=None)
def test_mat_operations_match_naive_definitions(m, data):
    r, c, e = m.rows, m.cols, m.entries
    other = data.draw(shaped(rows=c))
    k = other.cols
    prod_ = m @ other
    assert (prod_.rows, prod_.cols) == (r, k)
    assert prod_.entries == tuple(
        sum(e[i * c + t] * other.entries[t * k + j] for t in range(c))
        for i in range(r) for j in range(k))
    vec = data.draw(st.lists(entries, min_size=c, max_size=c))
    assert m.apply(vec) == tuple(sum(e[i * c + t] * vec[t] for t in range(c))
                                 for i in range(r))
    t = m.transpose()
    assert (t.rows, t.cols) == (c, r)
    assert t.entries == tuple(e[i * c + j] for j in range(c) for i in range(r))
    naive_cols = [tuple(e[i * c + j] for i in range(r)) for j in range(c)]
    assert m.columns() == naive_cols == [m.col(j) for j in range(c)]
    assert [m.row(i) for i in range(r)] == [tuple(e[i * c:(i + 1) * c]) for i in range(r)]
    assert m.to_rows() == [list(e[i * c:(i + 1) * c]) for i in range(r)]
    same = data.draw(shaped(rows=r, cols=c))
    f = same.entries
    assert (m + same).entries == tuple(x + y for x, y in zip(e, f))
    assert (m - same).entries == tuple(x - y for x, y in zip(e, f))
    assert ((m + same).rows, (m + same).cols) == ((m - same).rows, (m - same).cols) == (r, c)
    factor = data.draw(st.integers(-5, 5))
    assert m.scale(factor) == Mat(r, c, tuple(factor * x for x in e))
    wide = data.draw(shaped(rows=r))
    w = wide.cols
    assert m.hstack(wide) == Mat(r, c + w, tuple(
        x for i in range(r) for x in e[i * c:(i + 1) * c] + wide.entries[i * w:(i + 1) * w]))
    tall = data.draw(shaped(cols=c))
    assert m.vstack(tall) == Mat.from_rows(m.to_rows() + tall.to_rows(), cols=c)
    wrong = data.draw(shaped().filter(lambda x: (x.rows, x.cols) != (r, c)))
    for op in (Mat.__add__, Mat.__sub__):
        with pytest.raises(LatticeError, match="shape mismatch in sum"):
            op(m, wrong)
    if wrong.rows != r:
        with pytest.raises(LatticeError, match="row mismatch in hstack"):
            m.hstack(wrong)
    if wrong.cols != c:
        with pytest.raises(LatticeError, match="column mismatch in vstack"):
            m.vstack(wrong)


@given(st.integers(0, 4), st.data())
@settings(deadline=None)
def test_coords_and_contains_match_naive_definitions(k, data):
    def lattice():
        cols = data.draw(st.lists(st.lists(entries, min_size=k, max_size=k), max_size=k))
        return Sublattice.from_columns(k, cols)

    lat = lattice()
    basis = lat.basis.columns()
    # a member: an integer combination of the basis has exactly those coordinates
    c = data.draw(st.lists(entries, min_size=lat.rank, max_size=lat.rank))
    member = [sum(cj * col[i] for cj, col in zip(c, basis)) for i in range(k)]
    assert lat.coords_of(member) == tuple(c)
    # any vector: a member iff its rational coordinates exist and are integers
    vec = data.draw(st.lists(entries, min_size=k, max_size=k))
    want = naive_coords(basis, vec)
    assert lat.coords_of(vec) == want
    assert lat.contains_vector(vec) == (want is not None)
    other = lattice()
    assert lat.contains(other) == all(naive_coords(basis, col) is not None
                                      for col in other.basis.columns())


@given(matrices())
@settings(deadline=None, max_examples=50)
def test_index_in_ambient_is_the_determinant(m):
    lat = Sublattice.from_matrix(m)
    if lat.rank < lat.ambient_rank:
        assert lat.index_in_ambient() is None
        return
    assert lat.index_in_ambient() == abs(lat.basis.det())
    if m.is_square:
        assert lat.index_in_ambient() == abs(m.det())


def test_index_in_ambient_examples():
    assert Sublattice.full(0).index_in_ambient() == 1
    assert Sublattice.scaled(3, 5).index_in_ambient() == 125
    assert Sublattice.from_columns(2, [[2, 1], [0, 3]]).index_in_ambient() == 6
    assert Sublattice.from_columns(2, [[2, 1]]).index_in_ambient() is None


@given(matrices())
@settings(deadline=None)
def test_snf_decomposition(m):
    dec = smith(m)
    prod_mat = dec.U @ m @ dec.V
    for i in range(m.rows):
        for j in range(m.cols):
            want = dec.d[i] if i == j and i < len(dec.d) else 0
            assert prod_mat[i, j] == want
    assert abs(dec.U.det()) == 1 and abs(dec.V.det()) == 1
    assert all(dec.d[i + 1] % dec.d[i] == 0 for i in range(len(dec.d) - 1))
    assert all(x > 0 for x in dec.d)


@given(matrices(max_dim=3), st.data())
@settings(deadline=None)
def test_hnf_canonical_under_unimodular_action(m, data):
    h = column_hnf(m)
    u = data.draw(unimodulars(m.cols))
    assert column_hnf(m @ u) == h


@given(matrices())
@settings(deadline=None)
def test_kernel_is_exact_complement(m):
    ker = kernel_lattice(m)
    for j in range(ker.rank):
        assert all(v == 0 for v in m.apply(ker.basis.col(j)))
    assert ker.rank + len(smith(m).d) == m.cols
    # saturated: Z^cols / ker is torsion free
    assert smith(ker.basis).d == (1,) * ker.rank


@given(matrices(max_dim=3), st.integers(1, 12))
@settings(deadline=None)
def test_preimage_mod_membership(m, n):
    lat = preimage_mod(m, n)
    assert lat.contains(Sublattice.scaled(m.cols, n))
    for j in range(lat.rank):
        assert all(v % n == 0 for v in m.apply(lat.basis.col(j)))
    assert lat.rank == m.cols
    assert preimage_mod(fixed_point_conditions(as_fixed_point_actions(m), m.cols), n) == lat
    # complete: every residue class that m sends to 0 mod n is in the lattice
    for x in product(range(n), repeat=m.cols):
        if all(v % n == 0 for v in m.apply(x)):
            assert lat.contains_vector(x), x


@given(shaped(), st.one_of(st.integers(1, 60), st.integers(1, 2 ** 70 + 3)))
@example(Mat.zeros(0, 3), 2 ** 70 + 3)
@example(Mat.zeros(3, 0), 12)
@example(Mat.from_rows([[6, 0], [0, 4]]), 2 ** 70 + 3)
@settings(deadline=None, max_examples=200)
def test_preimage_mod_matches_the_smith_route(m, n):
    # the block [m; I] spanned modulo n against the congruence read off the
    # Smith form's V and diagonal
    dec = smith(m)
    assert preimage_mod(m, n) == congruence_lattice(dec.V, dec.d, n)


@given(matrices(), st.integers(1, 4), st.integers(1, 60), st.data())
@settings(deadline=None)
def test_congruence_lattice_pushes_through_any_matrix(m, rows, n, data):
    # w = a @ V spans a @ {x : m @ x == 0 mod n} + n Z^rows in one modular span
    a = data.draw(shaped(rows=rows, cols=m.cols))
    dec = smith(m)
    pushed = congruence_lattice(a @ dec.V, dec.d, n)
    want = Sublattice.from_columns(rows, (a @ preimage_mod(m, n).basis).columns(), modulus=n)
    assert pushed == want


@given(matrices(max_dim=3), st.integers(1, 12), st.integers(1, 12), st.data())
@settings(deadline=None)
def test_stacked_congruences_meet(s, n, big, data):
    # s @ x == 0 mod n and c @ x == 0 mod n*N are one congruence mod n*N
    c = data.draw(shaped(cols=s.cols, max_dim=3))
    stacked = preimage_mod(s.scale(big).vstack(c), n * big)
    assert stacked == preimage_mod(s, n).meet(preimage_mod(c, n * big))


@given(st.data())
@settings(deadline=None, max_examples=50)
def test_quotient_order_matches_det_ratio(data):
    r = data.draw(st.integers(1, 3))
    diag = [data.draw(st.integers(1, 6)) for _ in range(r)]
    sub_of = [data.draw(st.integers(1, 4)) for _ in range(r)]
    sup = Sublattice.from_columns(
        r, [[diag[i] if i == j else 0 for i in range(r)] for j in range(r)])
    sub = Sublattice.from_columns(
        r, [[diag[i] * sub_of[i] if i == j else 0 for i in range(r)] for j in range(r)])
    u = data.draw(unimodulars(r))
    sup_t = sup.image_under(u)
    sub_t = sub.image_under(u)
    g = quotient_invariants(sup_t, sub_t)
    det_ratio = abs(sub_t.basis.det()) // abs(sup_t.basis.det())
    assert g.order == det_ratio == prod(sub_of)


@given(matrices(max_dim=3), st.data())
@settings(deadline=None, max_examples=50)
def test_solve_columns_roundtrip(m, data):
    x = [data.draw(st.integers(-5, 5)) for _ in range(m.cols)]
    target = m.apply(x)
    sol = solve_columns(m, Mat.from_columns([target]))
    assert sol is not None
    assert m.apply(sol.col(0)) == tuple(target)
    # modulo a full-rank lattice L: m @ X - target has columns in L
    lat = Sublattice.from_matrix(data.draw(unimodulars(m.rows)).scale(
        data.draw(st.integers(1, 6))))
    shift = [data.draw(st.integers(-3, 3)) for _ in range(m.rows)]
    shifted = tuple(t + s for t, s in zip(target, lat.basis.apply(shift)))
    sol = solve_modulo(m, Mat.from_columns([shifted, target]), lat)
    assert sol is not None and (sol.rows, sol.cols) == (m.cols, 2)
    for j, want in enumerate((shifted, target)):
        got = m.apply(sol.col(j))
        assert lat.contains_vector([g - w for g, w in zip(got, want)])


def smith_solvable(b, t):
    """Reference criterion: with U @ b @ V = diag(d), b @ x = t has an
    integral solution exactly when U @ t is divisible by d_i on the first
    len(d) rows and zero below them."""
    dec = smith(b)
    ut = dec.U.apply(t)
    return all(y % d == 0 for y, d in zip(ut, dec.d)) and not any(ut[len(dec.d):])


@given(shaped(max_dim=4), st.integers(0, 2 ** 32))
@example(Mat.from_rows([[1, 2], [2, 4]]), 0)  # a kernel, and rank below the rows
@example(Mat.from_rows([[2], [4], [0]]), 1)  # more rows than columns
@example(Mat.zeros(0, 3), 2)  # zero rows: every target solves
@example(Mat.zeros(3, 0), 3)  # zero columns: only the zero target solves
@settings(deadline=None, max_examples=150)
def test_solve_columns_matches_smith_criterion(b, seed):
    rng = random.Random(seed)
    x = [rng.randint(-5, 5) for _ in range(b.cols)]
    cols = [b.apply(x), tuple(rng.randint(-9, 9) for _ in range(b.rows))]
    cols += [tuple(int(i == j) for i in range(b.rows)) for j in range(b.rows)]
    cases = [(t, smith_solvable(b, t)) for t in cols]
    # both outcomes occur: b @ x solves, and some unit vector does not
    # unless b maps onto Z^rows
    assert cases[0][1]
    assert all(ok for _, ok in cases) == (smith(b).d == (1,) * b.rows)
    for t, ok in cases:
        assert (solve_columns(b, Mat.from_columns([t], rows=b.rows)) is None) == (not ok)
    rng.shuffle(cases)
    for picked in (cases, [c for c in cases if c[1]], cases[:2]):
        target = Mat.from_columns([t for t, _ in picked], rows=b.rows)
        sol = solve_columns(b, target)
        assert (sol is None) == (not all(ok for _, ok in picked))
        if sol is not None:
            assert (sol.rows, sol.cols) == (b.cols, target.cols)
            assert b @ sol == target


@given(st.integers(1, 3), st.integers(0, 3), st.data())
@settings(deadline=None, max_examples=60)
def test_solve_modulo_is_complete(k, c, data):
    # L has index D <= 8, so D Z^k lies in L and x + D y solves whenever x
    # does: the box [0, D)^c holds a solution exactly when one exists
    diag = []
    for _ in range(k):
        diag.append(data.draw(st.integers(1, 8 // prod(diag))))
    low = Mat(k, k, tuple(diag[i] if i == j else data.draw(st.integers(-4, 4)) if j < i else 0
                          for i in range(k) for j in range(k)))
    lat = Sublattice.from_matrix(data.draw(unimodulars(k)) @ low)
    index = lat.index_in_ambient()
    assert index == prod(diag)
    m = data.draw(shaped(rows=k, cols=c))
    target = data.draw(shaped(rows=k, cols=1))
    t = target.col(0)
    found = any(lat.contains_vector([a - b for a, b in zip(m.apply(x), t)])
                for x in product(range(index), repeat=c))
    sol = solve_modulo(m, target, lat)
    assert (sol is not None) == found
    if sol is not None:
        assert lat.contains_vector([a - b for a, b in zip(m.apply(sol.col(0)), t)])


def test_solve_unsolvable():
    assert solve_columns(Mat.from_rows([[2]]), Mat.from_columns([[1]])) is None
    assert solve_modulo(Mat.from_rows([[2]]), Mat.from_columns([[1]]),
                        Sublattice.scaled(1, 4)) is None
    assert solve_modulo(Mat.from_rows([[2]]), Mat.from_columns([[1]]),
                        Sublattice.scaled(1, 3)) is not None
    assert solve_columns(Mat.from_rows([[1], [1]]),
                         Mat.from_columns([[1, 2]], rows=2)) is None


@pytest.mark.skipif(not __debug__, reason="the preimage check is a __debug__ assertion")
def test_wrong_modulus_is_caught():
    # 0 does not contain 5 * Z^2, so the modular span would return 5 * Z^2
    with pytest.raises(AssertionError, match="escapes the target"):
        preimage_lattice(Mat.identity(2), Sublattice.zero(2), modulus=5)
    # modulo 3, 2 * x = 1 reads x = 2
    with pytest.raises(AssertionError, match="solve failed to verify"):
        solve_modulo(Mat.from_rows([[2]]), Mat.from_columns([[1]]), Sublattice.zero(1),
                     modulus=3)


def test_solve_modulo_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        solve_modulo(Mat.identity(2), Mat.identity(2), Sublattice.full(3))
    with pytest.raises(LatticeError):
        solve_modulo(Mat.identity(2), Mat.identity(3), Sublattice.full(2))
    with pytest.raises(LatticeError):
        preimage_lattice(Mat.identity(2), Sublattice.full(2), modulus=-1)


def test_restrict_endomorphism():
    lat = Sublattice.from_columns(2, [[1, 1], [0, 2]])
    swap = Mat.from_rows([[0, 1], [1, 0]])
    res = restrict_endomorphism(swap, lat)
    assert lat.basis @ res == swap @ lat.basis
    with pytest.raises(LatticeError):
        restrict_endomorphism(Mat.from_rows([[1, 0], [0, 2]]),
                              Sublattice.from_columns(2, [[1, 1]]))


def test_arbitrary_precision_entries():
    big = 10 ** 60
    m = Mat.from_rows([[big, big + 1], [big - 1, big]])
    assert m.det() == 1
    dec = smith(m)
    assert dec.d == (1, 1)
    lat = preimage_mod(m, 7 ** 40)
    assert lat.contains(Sublattice.scaled(2, 7 ** 40))
    g = quotient_invariants(Sublattice.full(2), Sublattice.scaled(2, big))
    assert g.invariant_factors == (big, big)


def test_coords_and_reduction():
    lat = Sublattice.from_columns(2, [[1, 1], [0, 2]])
    assert lat.coords_of((3, 5)) == (3, 1)
    assert lat.coords_of((0, 1)) is None
    assert lat.reduce_vector((7, 9)) == (0, 0)
    assert lat.reduce_vector((7, 10)) == (0, 1)


@pytest.mark.parametrize("vec", [(7, 8, 99), (7,)], ids=["long", "short"])
def test_reduce_vector_refuses_the_wrong_length(vec):
    lat = Sublattice.from_columns(2, [[3, 0], [0, 5]])
    assert lat.reduce_vector((7, 8)) == (1, 3)
    with pytest.raises(AmbientMismatch, match="^vector length differs from ambient rank$"):
        lat.reduce_vector(vec)


@given(st.data())
@settings(deadline=None, max_examples=50)
def test_meet_join_containments(data):
    r = data.draw(st.integers(1, 3))
    cols_a = data.draw(st.lists(st.lists(entries, min_size=r, max_size=r),
                                min_size=0, max_size=r))
    cols_b = data.draw(st.lists(st.lists(entries, min_size=r, max_size=r),
                                min_size=0, max_size=r))
    a = Sublattice.from_columns(r, cols_a)
    b = Sublattice.from_columns(r, cols_b)
    meet, join = a.meet(b), b.join(a.basis)
    assert a.contains(meet) and b.contains(meet)
    assert join.contains(a) and join.contains(b)
    m = Mat.from_columns(cols_b, rows=r)
    span = a.join(m)
    assert span == Sublattice.from_columns(r, cols_b + a.basis.columns()) == join
    assert span.contains(a) and all(span.contains_vector(c) for c in cols_b)
    if meet.rank == join.rank:
        assert quotient_invariants(join, meet).order >= 1
    else:
        with pytest.raises(InfiniteQuotient):
            quotient_invariants(join, meet)


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_preimage_and_meet_are_complete(data):
    # membership both ways on a box: a proper sublattice of the true answer
    # (say of index 2) passes every containment check above but fails here
    small = st.integers(-4, 4)

    def vectors(k, count):
        return st.lists(st.lists(small, min_size=k, max_size=k), min_size=count, max_size=count)

    def lattice(k):
        # up to k + 1 spanning columns, so rank-deficient lattices occur
        return Sublattice.from_columns(k, data.draw(vectors(k, data.draw(st.integers(0, k + 1)))))

    r, c = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    m = Mat.from_rows(data.draw(vectors(c, r)))
    target, a = lattice(r), lattice(r)
    pre, meet = preimage_lattice(m, target), a.meet(target)
    for x in product(range(-3, 4), repeat=c):
        assert pre.contains_vector(x) == target.contains_vector(m.apply(x)), x
    for x in product(range(-3, 4), repeat=r):
        assert meet.contains_vector(x) == (a.contains_vector(x) and target.contains_vector(x)), x


@given(st.integers(0, 5), st.data())
@settings(deadline=None, max_examples=80)
def test_modular_span_is_the_span_with_the_torsion(k, data):
    # D from 1 to about 200 bits; columns share D's small factor a, so the
    # span with D * Z^k is often a proper sublattice
    a = data.draw(st.integers(1, 12))
    d = a * data.draw(st.one_of(st.integers(1, 30), st.integers(1, 2 ** 200)))
    element = st.one_of(entries, st.integers(-2 ** 210, 2 ** 210)).map(lambda x: a * x)
    cols = data.draw(st.lists(st.lists(element, min_size=k, max_size=k), max_size=k + 2))
    torsion = [[d if i == j else 0 for i in range(k)] for j in range(k)]
    assert Sublattice.from_columns(k, cols, modulus=d) == Sublattice.from_columns(k, cols + torsion)
    assert Sublattice.from_columns(k, [], modulus=d) == Sublattice.scaled(k, d)


def test_modular_span_budget_dense_rank_12():
    # every intermediate entry stays below D, so no coefficient growth can
    # push a dense 200-bit input past the budget
    rng = random.Random(0)
    d = rng.getrandbits(200) | 1 << 199
    cols = [[rng.getrandbits(200) for _ in range(12)] for _ in range(12)]
    start = time.perf_counter()
    lat = Sublattice.from_columns(12, cols, modulus=d)
    assert time.perf_counter() - start < 2
    assert lat.contains(Sublattice.scaled(12, d)) and all(map(lat.contains_vector, cols))
