"""Brute-force reference implementations, used only for cross-checking.

Everything here enumerates group elements one by one and shares no
normal-form code with the lattice algebra: coordinate changes are done by
one Gauss-Jordan elimination per lattice, subgroups by closure under
addition one coset at a time, and quotient structures by counting the
elements each prime power sends into the subgroup.  Fixed points and
radicals test every x in (Z/n)^k against one stack of linear conditions
mod n, all n values of the last coordinate at once per prefix.  A level
group is also enumerated modulo the n-primary part of N alone, found by
repeated division, which keeps every level of a trace within the cap.
Caps are firm and checked before any element is formed.
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


def _restrictions(d: CoverDatum, sub: Sublattice) -> list[list[list[int]]]:
    """Matrices in sub's basis of each inertia generator and of q times Frobenius.

    One Gauss-Jordan elimination over Q of [B | g_1 B | ... | F B], B the
    basis of sub, brings B to the identity over zero rows; the blocks beside
    the identity are then the matrices, and the action preserves sub exactly
    when they are integral and the blocks beside the zero rows vanish.
    """
    k = sub.rank
    basis = sub.basis.to_rows()
    bcols = list(zip(*basis))
    acts = [g.to_rows() for g in d.inertia_gens] + [d.frobenius.to_rows()]
    rows = [[Fraction(x) for x in brow]
            + [Fraction(sum(map(mul, act[i], bcol))) for act in acts for bcol in bcols]
            for i, brow in enumerate(basis)]
    # B has full column rank, so column c finds its pivot at or below row c
    for c in range(k):
        piv = next(i for i in range(c, len(rows)) if rows[i][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i, row in enumerate(rows):
            if i != c and (f := row[c]):
                rows[i] = [x - f * y for x, y in zip(row, rows[c])]
    if any(any(row) for row in rows[k:]) or \
            any(x.denominator != 1 for row in rows[:k] for x in row):
        raise OracleError("basis is not stable under the action")
    scales = [1] * len(d.inertia_gens) + [d.q]
    return [[[s * int(x) for x in row[k * a:k * (a + 1)]] for row in rows[:k]]
            for a, s in enumerate(scales, 1)]


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


def _fixed_points(d: CoverDatum, sub: Sublattice, n_mod: int,
                  cap: int) -> frozenset[tuple[int, ...]]:
    k = sub.rank
    if (size := n_mod ** k) > cap:
        raise CapExceeded(f"N^k = {_int_text(size)} exceeds the cap {cap}")
    # x is fixed by A exactly when (A - 1) x = 0
    return _kernel_scan([[a - int(i == j) for j, a in enumerate(row)]
                         for rows in _restrictions(d, sub) for i, row in enumerate(rows)],
                        k, n_mod)


def brute_invariant_points(d: CoverDatum, sub: Sublattice, m: int,
                           cap: int = DEFAULT_CAP) -> frozenset[tuple[int, ...]]:
    """All fixed points of the twisted action on (Z/N)^k, by enumeration."""
    return _fixed_points(d, sub, d.q ** m - 1, cap)


def brute_level_group(d: CoverDatum, gamma_sharp: Sublattice, sharp: Sublattice,
                      modulus: int, cap: int = DEFAULT_CAP) -> FinAbGroup:
    """The level group in (Z/modulus)^r, by enumeration: the quotient of the
    images of gamma_sharp's and sharp's fixed points.

    With modulus = q**m - 1 this is the level-m group; with a divisor D of
    it prime to (q**m - 1) / D, such as `n_primary_part(q**m - 1, n)`, it
    is that group's part at the primes of D.
    """
    big, small = (brute_iota_image(_fixed_points(d, sub, modulus, cap), sub, modulus)
                  for sub in (gamma_sharp, sharp))
    return brute_quotient(modulus, big, small, cap=cap)


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


def n_primary_part(value: int, n: int) -> int:
    """The largest divisor of value > 0 whose primes all divide n, by
    dividing out each prime of n one factor at a time."""
    part, p = 1, 2
    while n > 1:
        if n % p == 0:
            while n % p == 0:
                n //= p
            while value % p == 0:
                value //= p
                part *= p
        p += 1
    return part


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
