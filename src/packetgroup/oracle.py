"""Brute-force reference implementations, used only for cross-checking.

Everything here enumerates group elements one by one and shares no
normal-form code with the lattice algebra: coordinate changes are done by
a private fraction-based Gaussian solver, subgroups by closure under
addition one coset at a time, and quotient structures by counting the
elements each prime power sends into the subgroup.  Fixed points and
radicals test every x in (Z/n)^k against one stack of linear conditions
mod n, all n values of the last coordinate at once per prefix.  Caps are
firm and checked before any element is formed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from operator import add, mod, mul
from typing import Iterable, Sequence

from .datum import CoverDatum, _int_text
from .linalg import FinAbGroup, Sublattice

DEFAULT_CAP = 10 ** 6


class OracleError(RuntimeError):
    pass


class CapExceeded(OracleError):
    pass


class NotASubgroup(OracleError):
    pass


def _solve_rational(matrix: Sequence[Sequence[int]],
                    rhs: Sequence[int]) -> list[Fraction] | None:
    """One rational solution of matrix @ x = rhs by Gaussian elimination."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else len(rhs) * 0
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])]
           for i, row in enumerate(matrix)]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, nrows):
        if aug[i][-1]:
            return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = aug[i][-1]
    return x


def _restriction_matrix(action_rows: list[list[int]],
                        basis_columns: list[list[int]]) -> list[list[int]]:
    """Matrix of the action in the given basis, solved column by column."""
    k = len(basis_columns)
    r = len(action_rows)
    cols = []
    for col in basis_columns:
        image = [sum(action_rows[i][j] * col[j] for j in range(r)) for i in range(r)]
        system = [[basis_columns[j][i] for j in range(k)] for i in range(r)]
        sol = _solve_rational(system, image)
        if sol is None or any(x.denominator != 1 for x in sol):
            raise OracleError("basis is not stable under the action")
        cols.append([int(x) for x in sol])
    return [[cols[j][i] for j in range(k)] for i in range(k)]


def _kernel_scan(rows: list[list[int]], k: int, n: int) -> frozenset[tuple[int, ...]]:
    """Every x in (Z/n)^k with row . x = 0 mod n for each row, testing all n^k.

    Partial sums are taken once per prefix; all n last coordinates meet the
    first row together and only the survivors meet the other rows.
    """
    if k == 0:
        return frozenset({()})
    rows = [[x % n for x in row] for row in rows]
    lasts = [row[-1] for row in rows]
    out = []
    for prefix in product(range(n), repeat=k - 1):
        s0, *partial = [sum(map(mul, row, prefix)) for row in rows]
        for t in [t for t in range(n) if (s0 + lasts[0] * t) % n == 0]:
            if all((s + c * t) % n == 0 for s, c in zip(partial, lasts[1:])):
                out.append(prefix + (t,))
    return frozenset(out)


def brute_invariant_points(d: CoverDatum, sub: Sublattice, m: int,
                           cap: int = DEFAULT_CAP) -> frozenset[tuple[int, ...]]:
    """All fixed points of the twisted action on (Z/N)^k, by enumeration."""
    n_mod = d.q ** m - 1
    k = sub.rank
    if (size := n_mod ** k) > cap:
        raise CapExceeded(f"N^k = {_int_text(size)} exceeds the cap {cap}")
    basis_cols = [list(sub.basis.col(j)) for j in range(k)]
    actions = [_restriction_matrix(g.to_rows(), basis_cols) for g in d.inertia_gens]
    frob = _restriction_matrix(d.frobenius.to_rows(), basis_cols)
    actions.append([[d.q * x for x in row] for row in frob])
    # x is fixed by A exactly when (A - 1) x = 0
    return _kernel_scan([[a - int(i == j) for j, a in enumerate(row)]
                         for rows in actions for i, row in enumerate(rows)], k, n_mod)


def brute_iota_image(points: Iterable[tuple[int, ...]], sub: Sublattice,
                     n_mod: int) -> frozenset[tuple[int, ...]]:
    """Elementwise image in the ambient (Z/N)^r of points in sub's coordinates."""
    rows = sub.basis.to_rows()
    return frozenset(tuple(sum(map(mul, row, vec)) % n_mod for row in rows)
                     for vec in points)


def brute_quotient(modulus: int, amb_elems: Iterable[tuple[int, ...]],
                   sub_elems: Iterable[tuple[int, ...]],
                   cap: int = DEFAULT_CAP) -> FinAbGroup:
    """Invariant factors of Q = amb/sub read off its p-power torsion counts.

    Elements are vectors mod `modulus`.  Both sets are checked to be
    subgroups: a set is one exactly when it is the closure of its own
    elements.  Then |Q[t]| = #{x in amb : t x in sub} / |sub|, and for a
    prime p the cyclic factors of Q whose order p^j divides number
    log_p |Q[p^j]| / |Q[p^(j-1)]|; these counts determine Q.
    """
    amb = frozenset(tuple(x % modulus for x in v) for v in amb_elems)
    sub = frozenset(tuple(x % modulus for x in v) for v in sub_elems)
    if len(amb) > cap:
        raise CapExceeded(f"ambient size {len(amb)} exceeds the cap {cap}")
    if not sub <= amb:
        raise NotASubgroup("sub_elems is not contained in amb_elems")
    for group in (amb, sub):
        sample = next(iter(group), None)
        if sample is None:
            raise NotASubgroup("a subgroup must contain the zero vector")
        if tuple(0 for _ in sample) not in group:
            raise NotASubgroup("missing zero vector")
        # the closure contains the set, so it is the set or passes its size
        try:
            closed = subgroup_from_generators(modulus, len(sample), group,
                                              cap=len(group)) == group
        except CapExceeded:
            closed = False
        if not closed:
            raise NotASubgroup("set is not closed under addition")

    cols = list(zip(*amb))

    def torsion_order(t: int) -> int:
        multiples = zip(*[[t * x % modulus for x in col] for col in cols])
        return sum(map(sub.__contains__, multiples)) // len(sub)

    # factors[i] is the i-th largest invariant factor, built prime by prime
    order = rest = len(amb) // len(sub)
    factors = [1] * order.bit_length()
    p = 2
    while rest > 1:
        if p * p > rest:
            p = rest
        sylow = 1
        while rest % p == 0:
            rest //= p
            sylow *= p
        # Q[p^j] is the Sylow p-subgroup by j = v_p(|Q|)
        below, pj = 1, p
        while below < sylow:
            count, i = torsion_order(pj), 0
            while below < count:
                factors[i] *= p
                below, i = below * p, i + 1
            pj *= p
        p += 1
    return FinAbGroup(tuple(sorted(d for d in factors if d > 1)))


def brute_radical(gram_rows: Sequence[Sequence[int]], n: int,
                  cap: int = DEFAULT_CAP) -> frozenset[tuple[int, ...]]:
    """All x in (Z/n)^k with x^T gram y = 0 mod n for every y."""
    k = len(gram_rows)
    if (size := n ** k) > cap:
        raise CapExceeded(f"n^k = {_int_text(size)} exceeds the cap {cap}")
    # x^T G = 0 exactly when G^T x = 0
    return _kernel_scan([list(col) for col in zip(*gram_rows)], k, n)


def subgroup_from_generators(modulus: int, rank: int,
                             gens: Iterable[Sequence[int]],
                             cap: int = DEFAULT_CAP) -> frozenset[tuple[int, ...]]:
    """Closure of the generators in (Z/modulus)^rank under addition.

    A generator g outside the span H so far adds the cosets H + g, H + 2g,
    ... until t g lands in H; t g cannot land in an added coset first,
    since t is least.  H is kept as columns while g is added, so each
    coset is one shifted list per coordinate.  The cap is checked before
    each coset is formed.
    """
    mods = (modulus,) * rank
    span = {(0,) * rank}
    for g in gens:
        g = tuple(map(mod, g, mods))
        if g in span:
            continue
        cols, size, step = list(zip(*span)), len(span), g
        while step not in span:
            if len(span) + size > cap:
                raise CapExceeded(f"subgroup closure exceeded the cap {cap}")
            span.update(zip(*[[(x + s) % modulus for x in col]
                              for col, s in zip(cols, step)]))
            step = tuple(map(mod, map(add, step, g), mods))
    return frozenset(span)
