"""Brute-force reference implementations, used only for cross-checking.

Everything here enumerates group elements one by one and shares no
normal-form code with the lattice algebra: coordinate changes are done by
a private fraction-based Gaussian solver, subgroups by closure under
addition, and quotient structures by coset partitioning and order
profiles.  Fixed points and radicals test every x in (Z/n)^k against one
stack of linear conditions mod n, all n values of the last coordinate at
once per prefix.  Caps are firm and checked before any element is formed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd
from operator import mul
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


class AmbiguousOrderProfile(OracleError):
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
    return frozenset(
        tuple(sum(row[j] * vec[j] for j in range(len(vec))) % n_mod for row in rows)
        for vec in points)


def brute_quotient(modulus: int, amb_elems: Iterable[tuple[int, ...]],
                   sub_elems: Iterable[tuple[int, ...]],
                   cap: int = DEFAULT_CAP) -> FinAbGroup:
    """Invariant factors of amb/sub recovered from the order profile.

    Elements are vectors mod `modulus`.  Both sets are checked to be
    subgroups, the cosets are partitioned, and the multiset of coset
    orders is matched against every abelian group of that size; an
    ambiguous match raises rather than guessing.
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
        zero = tuple(0 for _ in sample)
        if zero not in group:
            raise NotASubgroup("missing zero vector")
        # closed under addition exactly when the set is its own span; in
        # sorted order each element outside the span so far joins the
        # generators and at least doubles the span, so the span is rebuilt
        # at most log2 |set| times, and one past the set's size hits the cap
        gens, span = [], frozenset({zero})
        try:
            for x in sorted(group):
                if x not in span:
                    gens.append(x)
                    span = subgroup_from_generators(modulus, len(zero), gens,
                                                    cap=len(group))
        except CapExceeded:
            span = None
        if span != group:
            raise NotASubgroup("set is not closed under addition")
    order = len(amb) // len(sub)
    if len(amb) % len(sub):
        raise NotASubgroup("subgroup order does not divide the ambient order")
    if order == 1:
        return FinAbGroup.trivial()

    # order of the coset of x: least t >= 1 with t*x in sub; every coset is
    # counted len(sub) times, which the profile below divides out again
    coset_orders = []
    for x in amb:
        t = 1
        acc = x
        while acc not in sub:
            acc = tuple((a + b) % modulus for a, b in zip(acc, x))
            t += 1
        coset_orders.append(t)

    def killed_counts(chain: tuple[int, ...], divisors: list[int]) -> dict[int, int]:
        out = {}
        for t in divisors:
            count = 1
            for dd in chain:
                count *= gcd(t, dd)
            out[t] = count
        return out

    divisors = [t for t in range(1, order + 1) if order % t == 0]
    observed = {t: sum(1 for o in coset_orders if t % o == 0) // len(sub)
                for t in divisors}

    matches = [chain for chain in _abelian_chains(order)
               if killed_counts(chain, divisors) == observed]
    if not matches:
        raise AmbiguousOrderProfile("no abelian group matches the order profile")
    if len(matches) > 1:
        raise AmbiguousOrderProfile(
            f"order profile matched by several groups: {matches}")
    return FinAbGroup(matches[0])


def _abelian_chains(order: int) -> list[tuple[int, ...]]:
    """All divisibility chains d1 | d2 | ... with product `order`, each >= 2."""

    def rec(q: int, cap: int) -> list[tuple[int, ...]]:
        if q == 1:
            return [()]
        out = []
        for d in range(2, cap + 1):
            if q % d == 0 and cap % d == 0:
                out.extend(ch + (d,) for ch in rec(q // d, d))
        return out

    return rec(order, order)


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
    """Closure of the generators in (Z/modulus)^rank under addition."""
    zero = tuple(0 for _ in range(rank))
    elems = {zero}
    gens = [tuple(x % modulus for x in g) for g in gens]
    frontier = [zero]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % modulus for a, b in zip(x, g))
                if y not in elems:
                    elems.add(y)
                    fresh.append(y)
                    if len(elems) > cap:
                        raise CapExceeded(f"subgroup closure exceeded the cap {cap}")
        frontier = fresh
    return frozenset(elems)
