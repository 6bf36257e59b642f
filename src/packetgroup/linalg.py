"""Exact integer matrix and lattice algebra.

Everything in this module is computed over arbitrary-precision integers,
with no floating point.  Lattices are kept in the *column* Hermite normal
form with the lower-triangular convention: pivot rows strictly increase,
pivots are positive, each entry in a pivot row outside the pivot column is
reduced into [0, pivot); so lattice equality is plain value equality.  The
HNF answers every question whose answer is a basis, and back substitution
on its pivots gives coordinates (`coords_of`, `restrict_endomorphism`).
Every preimage and solve reads one block, [[m, T], [I, 0]] for a target
lattice T (`_hermite_block`; Cohen, GTM 138, section 2.4), kept in a
`HermiteBlock`: the bottoms of its columns whose top vanished span
{x : m @ x in T} (`preimage_lattice`, so `kernel_lattice`, `preimage_mod`
and `meet`), and its other columns solve m @ X - B in T for every B
(`solve_modulo`, so `solve_columns`).  A lattice known to contain D * Z^k
is spanned modulo D (`modulus=D`: 0 for kernels, n for a congruence mod n,
the exponent for a finite module), exact since each reduction moves a row
by a vector of the lattice; each D * e_c is met when column c is reached
(Cohen, Alg. 2.4.8).  A `Mat` or `Sublattice` is checked and filled in one
step, storing any rows or columns it was handed; I_n and Z^n are built
once per n and shared, as every value here is frozen.  The Smith form
serves only where the Hermite form does not give the answer:
`quotient_invariants` reads its diagonal, when the coordinate matrix is not
diagonal already, and `residue`'s level functions,
through `congruence_lattice`, its V and diagonal, once per datum, pushed
through any matrix and modulo N = q**m - 1 or its n-primary part; and
conditions mod n and mod n*N are stacked into one mod n*N, the first
scaled by N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from math import gcd, lcm, prod
from operator import mul, sub
from typing import Iterable, Optional, Sequence


class LatticeError(ValueError):
    """Base class for exact-linear-algebra failures."""


class AmbientMismatch(LatticeError):
    """Two lattices of different ambient rank were combined."""


class NotASublattice(LatticeError):
    """Containment precondition failed."""


class InfiniteQuotient(LatticeError):
    """Quotient of lattices of different rank requested."""


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    s0, s1 = 1, 0
    t0, t1 = 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        a, s0, t0 = -a, -s0, -t0
    return a, s0, t0


class cached_attribute:
    """functools.cached_property without its per-instance lock (Python 3.11):
    the first read stores the value in the instance __dict__, where later
    reads find it first; a compute that raises stores nothing."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def _seeded(obj, **caches):
    """Store in `obj` the cached attributes its constructor already holds."""
    vars(obj).update(caches)
    return obj


@dataclass(frozen=True, init=False)
class Mat:
    """Immutable integer matrix, row-major entries.

    Rows and columns are kept once sliced out or handed to a constructor;
    equality and hashing still see only rows, cols and entries.
    """

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]) -> None:
        if rows < 0 or cols < 0:
            raise LatticeError("negative dimensions")
        if len(entries) != rows * cols:
            raise LatticeError("entry count does not match dimensions")
        # every entry's type is int itself: bools and floats are rejected
        if list(map(type, entries)).count(int) != len(entries):
            raise LatticeError("entries must be integers")
        self.__dict__.update(rows=rows, cols=cols, entries=entries)

    @cached_attribute
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.entries[j::self.cols] for j in range(self.cols))

    @cached_attribute
    def _rows(self) -> tuple[tuple[int, ...], ...]:
        c = self.cols
        return tuple(self.entries[i * c:(i + 1) * c] for i in range(self.rows))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "Mat":
        rows = tuple(map(tuple, rows))
        if rows:
            width = len(rows[0])
            if list(map(len, rows)).count(width) != len(rows):
                raise LatticeError("ragged rows")
            if cols is not None and cols != width:
                raise LatticeError("row length differs from the given column count")
        else:
            width = 0 if cols is None else cols
        return _seeded(cls(len(rows), width, tuple(chain.from_iterable(rows))), _rows=rows)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: Optional[int] = None) -> "Mat":
        columns = tuple(map(tuple, columns))
        if columns:
            height = len(columns[0])
            if list(map(len, columns)).count(height) != len(columns):
                raise LatticeError("ragged columns")
            if rows is not None and rows != height:
                raise LatticeError("column length differs from the given row count")
        else:
            height = 0 if rows is None else rows
        return _seeded(cls(height, len(columns), tuple(chain.from_iterable(zip(*columns)))),
                       _columns=columns)

    @classmethod
    @lru_cache(maxsize=64)
    def identity(cls, n: int) -> "Mat":
        """I_n, built once per n and shared: a Mat is frozen."""
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls(rows, cols, (0,) * (rows * cols))

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.rows:
            raise IndexError(i)
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.cols:
            raise IndexError(j)
        return self._columns[j]

    def to_rows(self) -> list[list[int]]:
        return [list(r) for r in self._rows]

    def columns(self) -> list[tuple[int, ...]]:
        return list(self._columns)

    def transpose(self) -> "Mat":
        return _seeded(Mat(self.cols, self.rows, tuple(chain.from_iterable(self._columns))),
                       _rows=self._columns, _columns=self._rows)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise LatticeError("dimension mismatch in product")
        cols = other._columns
        return Mat(self.rows, other.cols,
                   tuple([sum(map(mul, r, c)) for r in self._rows for c in cols]))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise LatticeError("vector length mismatch")
        return tuple([sum(map(mul, r, vec)) for r in self._rows])

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LatticeError("shape mismatch in sum")
        return Mat(self.rows, self.cols,
                   tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LatticeError("shape mismatch in sum")
        return Mat(self.rows, self.cols, tuple(map(sub, self.entries, other.entries)))

    def scale(self, c: int) -> "Mat":
        return Mat(self.rows, self.cols, tuple(c * x for x in self.entries))

    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows:
            raise LatticeError("row mismatch in hstack")
        return Mat(self.rows, self.cols + other.cols,
                   tuple(chain.from_iterable(map(tuple.__add__, self._rows, other._rows))))

    def vstack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols:
            raise LatticeError("column mismatch in vstack")
        return Mat(self.rows + other.rows, self.cols, self.entries + other.entries)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_identity(self) -> bool:
        return self.is_square and self == Mat.identity(self.rows)

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if not self.is_square:
            raise LatticeError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
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

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(map(str, r)) for r in self._rows) + "]"


def _row_hnf(rows: Iterable[Sequence[int]], width: int, modulus: int = 0) -> list[list[int]]:
    """Row Hermite normal form of the row span plus modulus * Z^width.

    Output rows are nonzero, pivot columns strictly increase, pivots are
    positive and entries above each pivot lie in [0, pivot).  With a
    modulus D >= 1 every row combination is reduced into [0, D), and the
    row D * e_c is met only when column c is reached (HNF modulo D: Cohen,
    GTM 138, Alg. 2.4.8; Domich, Kannan and Trotter 1987).  With the
    column's pivot entry a and (g, s, t) = xgcd(a, D), the unimodular pair
    map on (pivot row, D * e_c) leaves s * row and -(D/g) * row modulo D;
    with no pivot entry, D * e_c is the pivot row.  So exactly width rows
    come back.  The reduction is exact: it leaves the entries at reached
    columns as they are, so a row moves only by multiples of D * e_j for
    unreached j, which are still to be met, the span stays the same and
    no entry outgrows D.
    """
    if modulus < 0:
        raise LatticeError("modulus must be >= 0")
    if modulus:
        reduced = ([x % modulus for x in row] for row in rows)
        work = [row for row in reduced if any(row)]
    else:
        work = [list(row) for row in rows if any(row)]
    r = 0
    for c in range(width):
        if r == len(work) and not modulus:
            break
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            if modulus:
                work.insert(r, [modulus if i == c else 0 for i in range(width)])
                r += 1
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(r + 1, len(work)):
            b = work[i][c]
            if b == 0:
                continue
            a = work[r][c]
            if b % a == 0:
                q = b // a
                work[i] = [y - q * x for x, y in zip(work[r], work[i])]
                if modulus:
                    work[i] = [x % modulus for x in work[i]]
                continue
            g, s, t = xgcd(a, b)
            u, v = a // g, b // g
            row_r = [s * x + t * y for x, y in zip(work[r], work[i])]
            row_i = [-v * x + u * y for x, y in zip(work[r], work[i])]
            if modulus:
                row_r = [x % modulus for x in row_r]
                row_i = [x % modulus for x in row_i]
            work[r], work[i] = row_r, row_i
        if modulus:
            g, s, _ = xgcd(work[r][c], modulus)
            rest = [-(modulus // g) * x % modulus for x in work[r]]
            work[r] = [s * x % modulus for x in work[r]]
            if any(rest):
                work.append(rest)
        elif work[r][c] < 0:
            work[r] = [-x for x in work[r]]
        p = work[r][c]
        for i in range(r):
            q = work[i][c] // p
            if q:
                work[i] = [x - q * y for x, y in zip(work[i], work[r])]
                if modulus:
                    work[i] = [x % modulus for x in work[i]]
        r += 1
    return [row for row in work[:r] if any(row)]


def column_hnf(m: Mat) -> Mat:
    """Canonical column HNF of the column span of `m` (zero columns dropped)."""
    return Mat.from_columns(_row_hnf(m._columns, m.rows), rows=m.rows)


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ m @ V = diag(d) padded with zeros; d is a divisibility chain."""

    d: tuple[int, ...]
    U: Mat
    V: Mat


def smith(m: Mat) -> SmithDecomposition:
    """Smith normal form with unimodular transforms.

    Returns d (positive divisibility chain, zeros omitted), U (rows x rows)
    and V (cols x cols) with U @ m @ V diagonal, entry i equal to d[i] for
    i < len(d) and 0 beyond.
    """
    nr, nc = m.rows, m.cols
    a = m.to_rows()
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_combine(i1, i2, s, t, p, q):
        # rows (i1, i2) <- (s*i1 + t*i2, p*i1 + q*i2), applied to a and u
        for mat in (a, u):
            r1, r2 = mat[i1], mat[i2]
            mat[i1] = [s * x + t * y for x, y in zip(r1, r2)]
            mat[i2] = [p * x + q * y for x, y in zip(r1, r2)]

    def col_combine(j1, j2, s, t, p, q):
        for mat in (a, v):
            for row in mat:
                x, y = row[j1], row[j2]
                row[j1] = s * x + t * y
                row[j2] = p * x + q * y

    t0 = 0
    while t0 < min(nr, nc):
        # pick a pivot of minimal absolute value in the trailing block
        best = None
        for i in range(t0, nr):
            for j in range(t0, nc):
                x = a[i][j]
                if x and (best is None or abs(x) < abs(best[2])):
                    best = (i, j, x)
        if best is None:
            break
        bi, bj, _ = best
        if bi != t0:
            a[t0], a[bi] = a[bi], a[t0]
            u[t0], u[bi] = u[bi], u[t0]
        if bj != t0:
            for mat in (a, v):
                for row in mat:
                    row[t0], row[bj] = row[bj], row[t0]
        while True:
            for i in range(t0 + 1, nr):
                b = a[i][t0]
                if b:
                    p = a[t0][t0]
                    if b % p == 0:
                        # elementary step keeps the pivot row untouched
                        row_combine(t0, i, 1, 0, -(b // p), 1)
                    else:
                        g, s, t = xgcd(p, b)
                        row_combine(t0, i, s, t, -(b // g), p // g)
            dirty = False
            for j in range(t0 + 1, nc):
                b = a[t0][j]
                if b:
                    p = a[t0][t0]
                    if b % p == 0:
                        col_combine(t0, j, 1, 0, -(b // p), 1)
                    else:
                        g, s, t = xgcd(p, b)
                        col_combine(t0, j, s, t, -(b // g), p // g)
                        dirty = True
            if dirty or any(a[i][t0] for i in range(t0 + 1, nr)):
                continue
            p = a[t0][t0]
            stray = next(((i, j) for i in range(t0 + 1, nr)
                          for j in range(t0 + 1, nc) if a[i][j] % p), None)
            if stray is None:
                break
            # fold the offending row into the pivot row and re-reduce
            i, _ = stray
            a[t0] = [x + y for x, y in zip(a[t0], a[i])]
            u[t0] = [x + y for x, y in zip(u[t0], u[i])]
        t0 += 1

    for i in range(min(nr, nc)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    d = tuple(a[i][i] for i in range(min(nr, nc)) if a[i][i])
    dec = SmithDecomposition(d, Mat(nr, nr, tuple(chain.from_iterable(u))),
                             Mat(nc, nc, tuple(chain.from_iterable(v))))
    if __debug__:
        want = [0] * (nr * nc)
        for i, x in enumerate(d):
            want[i * nc + i] = x
        assert (dec.U @ m @ dec.V).entries == tuple(want), "smith decomposition failed to verify"
    return dec


def _hermite_block(m: Mat, target: "Sublattice", modulus: int) -> tuple[list, list]:
    """The canonical column HNF of [[m, T], [I, 0]], T the target's basis,
    split in two: its columns with a nonzero top part, whose tops H span
    m's image plus T and whose bottoms W have m @ W - H in T; and the
    bottoms of its columns whose top vanished, a canonical basis of the
    preimage of T.  A modulus D >= 1 is valid when T contains D * Z^rows,
    for then the block spans D * Z^(rows+cols) too; every valid D gives one form."""
    if m.rows != target.ambient_rank:
        raise AmbientMismatch("matrix height differs from target ambient rank")
    top, k = m.rows, m.cols
    block = list(map(tuple.__add__, m._columns, Mat.identity(k)._columns))
    block += [c + (0,) * k for c in target.basis._columns]
    hnf = _row_hnf(block, top + k, modulus)
    # pivots increase, so the columns with a nonzero top come first
    split = next((i for i, c in enumerate(hnf) if not any(c[:top])), len(hnf))
    return hnf[:split], [c[top:] for c in hnf[split:]]


class HermiteBlock:
    """One `_hermite_block` of m against a target lattice, eliminated once:
    the preimage and every solve of m @ X - B in the target read it."""

    def __init__(self, m: Mat, target: "Sublattice", modulus: int) -> None:
        self.m, self.target = m, target
        self._kept, self._free = _hermite_block(m, target, modulus)

    @cached_attribute
    def preimage(self) -> "Sublattice":
        """{x : m @ x in target}."""
        pre = Sublattice(self.m.cols, Mat.from_columns(self._free, rows=self.m.cols))
        if __debug__:
            assert all(self.target.contains_vector(self.m.apply(c)) for c in pre.basis._columns), \
                "preimage basis vector escapes the target"
        return pre

    @cached_attribute
    def _span(self) -> tuple["Sublattice", Mat]:
        top = self.m.rows
        span = Sublattice(top, Mat.from_columns([c[:top] for c in self._kept], rows=top))
        return span, Mat.from_columns([c[top:] for c in self._kept], rows=self.m.cols)

    def solve(self, b: Mat) -> Optional[Mat]:
        """Integral X with every column of m @ X - b in the target, or None:
        a column of b solves exactly when it has coordinates c in H, by W @ c."""
        if self.m.rows != b.rows:
            raise LatticeError("shape mismatch in solve")
        span, w = self._span
        coords = [span.coords_of(t) for t in b._columns]
        if None in coords:
            return None
        x = Mat.from_columns([w.apply(c) for c in coords], rows=self.m.cols)
        if __debug__:
            assert all(self.target.contains_vector(tuple(map(sub, self.m.apply(c), t)))
                       for c, t in zip(x._columns, b._columns)), "solve failed to verify"
        return x


def solve_modulo(m: Mat, target: Mat, lattice: "Sublattice", *, modulus: int = 0) -> Optional[Mat]:
    """Integral X with every column of m @ X - target in `lattice`, or None,
    read off one `HermiteBlock`; `modulus` is as in `_hermite_block`."""
    return HermiteBlock(m, lattice, modulus).solve(target)


def solve_columns(b: Mat, target: Mat) -> Optional[Mat]:
    """Integral X with b @ X == target, or None if no integral solution."""
    return solve_modulo(b, target, Sublattice.zero(b.rows))


@dataclass(frozen=True, init=False)
class Sublattice:
    """A sublattice of Z^ambient_rank in canonical column HNF basis.

    The pivot row of each basis column is found once, by the canonical-form
    check, and kept for membership tests; it takes no part in equality.
    """

    ambient_rank: int
    basis: Mat
    _pivots: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, ambient_rank: int, basis: Mat) -> None:
        if basis.rows != ambient_rank:
            raise LatticeError("basis height differs from ambient rank")
        if basis.cols > ambient_rank:
            raise LatticeError("more basis vectors than ambient rank")
        columns = basis._columns
        pivots = []
        for col in columns:
            x = next(filter(None, col), 0)
            if not x:
                raise LatticeError("zero basis column")
            if x < 0:
                raise LatticeError("negative pivot")
            pivots.append(col.index(x))
        if any(p2 <= p1 for p1, p2 in zip(pivots, pivots[1:])):
            raise LatticeError("pivot rows not strictly increasing")
        # a later column is zero in this pivot row, so only the earlier ones are read
        for j, p in enumerate(pivots):
            x = columns[j][p]
            for left in columns[:j]:
                if not 0 <= left[p] < x:
                    raise LatticeError("pivot row not reduced")
        self.__dict__.update(ambient_rank=ambient_rank, basis=basis, _pivots=tuple(pivots))

    @classmethod
    def from_columns(cls, ambient_rank: int, columns: Iterable[Sequence[int]], *,
                     modulus: int = 0) -> "Sublattice":
        """The span of `columns` plus modulus * Z^ambient_rank (modulus >= 0).

        A modulus D >= 1 keeps every intermediate entry below D; spans of
        lattices that contain D * Z^k, such as subgroups of (Z/D)^k, go
        through it.
        """
        cols = [list(c) for c in columns]
        if any(len(c) != ambient_rank for c in cols):
            raise LatticeError("column length differs from ambient rank")
        reduced = _row_hnf(cols, ambient_rank, modulus)
        return cls(ambient_rank, Mat.from_columns(reduced, rows=ambient_rank))

    @classmethod
    def from_matrix(cls, m: Mat) -> "Sublattice":
        return cls(m.rows, column_hnf(m))

    @classmethod
    @lru_cache(maxsize=64)
    def full(cls, ambient_rank: int) -> "Sublattice":
        """Z^ambient_rank, built once per rank and shared: a Sublattice is frozen."""
        return cls(ambient_rank, Mat.identity(ambient_rank))

    @classmethod
    def zero(cls, ambient_rank: int) -> "Sublattice":
        return cls(ambient_rank, Mat.zeros(ambient_rank, 0))

    @classmethod
    def scaled(cls, ambient_rank: int, n: int) -> "Sublattice":
        """n * Z^ambient_rank (n >= 1)."""
        if n < 1:
            raise LatticeError("scale must be positive")
        return cls(ambient_rank, Mat.identity(ambient_rank).scale(n))

    @property
    def rank(self) -> int:
        return self.basis.cols

    @property
    def is_full(self) -> bool:
        return self.rank == self.ambient_rank and self.basis.is_identity()

    def coords_of(self, vec: Sequence[int]) -> Optional[tuple[int, ...]]:
        """Coordinates of `vec` in the basis, or None if not a member."""
        if len(vec) != self.ambient_rank:
            raise AmbientMismatch("vector length differs from ambient rank")
        x = list(vec)
        coords = []
        for p, col in zip(self._pivots, self.basis._columns):
            q, r = divmod(x[p], col[p])
            if r:
                return None
            coords.append(q)
            if q:
                for i, c in enumerate(col):
                    if c:
                        x[i] -= q * c
        if any(x):
            return None
        return tuple(coords)

    def contains_vector(self, vec: Sequence[int]) -> bool:
        return self.coords_of(vec) is not None

    def contains(self, other: "Sublattice") -> bool:
        if other.ambient_rank != self.ambient_rank:
            raise AmbientMismatch("ambient ranks differ")
        return all(map(self.contains_vector, other.basis._columns))

    def image_under(self, a: Mat) -> "Sublattice":
        """The lattice a @ L inside Z^(a.rows)."""
        if a.cols != self.ambient_rank:
            raise AmbientMismatch("matrix width differs from ambient rank")
        return Sublattice.from_matrix(a @ self.basis)

    def join(self, m: Mat, *, modulus: int = 0) -> "Sublattice":
        """The span of the columns of `m` together with this lattice; a
        modulus D >= 1 is valid when this lattice contains D * Z^k."""
        if m.rows != self.ambient_rank:
            raise AmbientMismatch("matrix height differs from ambient rank")
        return Sublattice.from_columns(self.ambient_rank, m.columns() + self.basis.columns(),
                                       modulus=modulus)

    def meet(self, other: "Sublattice") -> "Sublattice":
        """The intersection of this lattice with `other`."""
        return preimage_lattice(self.basis, other).image_under(self.basis)

    def index_in_ambient(self) -> Optional[int]:
        """|Z^r / L| when L is full rank, else None.

        A full-rank canonical basis is lower triangular with positive
        pivots, so the index is their product.
        """
        if self.rank != self.ambient_rank:
            return None
        return prod(col[p] for p, col in zip(self._pivots, self.basis._columns))

    def reduce_vector(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Canonical coset representative of `vec` modulo a full-rank lattice."""
        if self.rank != self.ambient_rank:
            raise LatticeError("coset reduction needs a full-rank lattice")
        if len(vec) != self.ambient_rank:
            raise AmbientMismatch("vector length differs from ambient rank")
        x = list(vec)
        for j, col in enumerate(self.basis._columns):
            q = x[j] // col[j]
            if q:
                x = [xi - q * ci for xi, ci in zip(x, col)]
        return tuple(x)

    def __str__(self) -> str:
        cols = ", ".join(str(list(c)) for c in self.basis._columns)
        return f"<lattice rank {self.rank} in Z^{self.ambient_rank}: {cols}>"


def congruence_lattice(w: Mat, d: Sequence[int], n: int) -> Sublattice:
    """w @ {x : m @ x == 0 mod n} + n * Z^(w.rows), where U @ m @ V = diag(d)
    and w = a @ V for some a; n >= 1.  w = V gives the congruence lattice.

    The condition on x = V @ y is d_i * y_i == 0 mod n, so the lattice is
    spanned by the columns w_i * n / gcd(d_i, n), the free columns past
    len(d) and n * Z^(w.rows) (Cohen, GTM 138, section 2.4).
    """
    if n < 1:
        raise LatticeError("modulus must be >= 1")
    cols = [[(n // gcd(d[j], n) if j < len(d) else 1) * x for x in col]
            for j, col in enumerate(w._columns)]
    return Sublattice.from_columns(w.rows, cols, modulus=n)


def kernel_lattice(m: Mat) -> Sublattice:
    """{x in Z^cols : m @ x = 0}, canonical."""
    return preimage_lattice(m, Sublattice.zero(m.rows))


def preimage_lattice(m: Mat, target: Sublattice, *, modulus: int = 0) -> Sublattice:
    """{x in Z^cols : m @ x in target}, read off one `HermiteBlock`; a
    modulus D >= 1 is valid when the target contains D * Z^rows."""
    return HermiteBlock(m, target, modulus).preimage


def preimage_mod(m: Mat, n: int) -> Sublattice:
    """{x in Z^cols : m @ x == 0 mod n} for n >= 1; always contains n Z^cols."""
    return preimage_lattice(m, Sublattice.scaled(m.rows, n), modulus=n)


def fixed_point_conditions(mats: Iterable[Mat], k: int) -> Mat:
    """Every a - 1 stacked: x is fixed by all of mats iff the stack kills x."""
    ident, mats = Mat.identity(k).entries, list(mats)
    if any((a.rows, a.cols) != (k, k) for a in mats):
        raise LatticeError("shape mismatch in sum")
    stack = chain.from_iterable(map(sub, a.entries, ident) for a in mats)
    return Mat(k * len(mats), k, tuple(stack))


@dataclass(frozen=True)
class FinAbGroup:
    """Finite abelian group by invariant factors d1 | d2 | ...; all >= 2."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        d = self.invariant_factors
        if any(x < 2 for x in d):
            raise LatticeError("invariant factors must be >= 2")
        if any(d[i + 1] % d[i] for i in range(len(d) - 1)):
            raise LatticeError("invariant factors must form a divisibility chain")

    @classmethod
    def trivial(cls) -> "FinAbGroup":
        return cls(())

    @classmethod
    def from_diagonal(cls, diag: Sequence[int]) -> "FinAbGroup":
        """The group of Z^k / diag(d) Z^k for positive d: each pair folds to
        (gcd, lcm), so d[i] ends as the gcd of d[i:] and divides the rest;
        a chain passes through unchanged."""
        d = list(diag)
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
        group = cls(tuple(x for x in d if x != 1))
        if __debug__:
            assert group.order == prod(diag), "diagonal fold changed the order"
        return group

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def __str__(self) -> str:
        if self.is_trivial:
            return "1"
        return " + ".join(f"Z/{d}" for d in self.invariant_factors)


def quotient_invariants(sup: Sublattice, sub: Sublattice) -> FinAbGroup:
    """Invariant factors of sup/sub; requires sub <= sup of equal rank."""
    if sup.ambient_rank != sub.ambient_rank:
        raise AmbientMismatch("ambient ranks differ")
    coords = []
    for col in sub.basis._columns:
        c = sup.coords_of(col)
        if c is None:
            raise NotASublattice("second lattice is not contained in the first")
        coords.append(list(c))
    if sub.rank != sup.rank:
        raise InfiniteQuotient("ranks differ, quotient is infinite")
    # equal pivot rows make x lower triangular; a diagonal x needs no Smith form
    diag = [c[j] for j, c in enumerate(coords)]
    if all(x and c.count(0) == len(c) - 1 for x, c in zip(diag, coords)):
        return FinAbGroup.from_diagonal(diag)
    return FinAbGroup.from_diagonal(smith(Mat.from_columns(coords, rows=sup.rank)).d)


def restrict_endomorphism(a: Mat, lattice: Sublattice) -> Mat:
    """Matrix of a|_lattice in the lattice basis; requires a @ L <= L."""
    if a.cols != lattice.ambient_rank or a.rows != lattice.ambient_rank:
        raise AmbientMismatch("endomorphism shape differs from ambient rank")
    coords = [lattice.coords_of(a.apply(c)) for c in lattice.basis._columns]
    if None in coords:
        raise LatticeError("lattice is not stable under the endomorphism")
    return Mat.from_columns(coords, rows=lattice.rank)
