"""Tame Hilbert symbols and the split-torus commutator pairing.

Elements of the field are modeled modulo the wild part (which is
n-divisible in the tame setting) as pairs (valuation, residue-unit dlog),
the unit group of the residue field being the abstract cyclic group
Z/(q-1) written by exponents of a fixed generator.  The n-th symbol of
a = pi^v_a u_a and b is then

    (a, b) = (-1)^(v_a v_b) * abar^(v_b) / bbar^(v_a)   in  Z/n,

evaluated through dlogs, with dlog(-1) = (q-1)/2 for odd q and 0 for
even q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .datum import NotPrimePower, prime_power_decomposition
from .linalg import Mat, Sublattice, preimage_mod
from .sharp import sharp


class SymbolError(ValueError):
    pass


@dataclass(frozen=True)
class TameField:
    """Residue size q (prime power) and symbol degree n with n | q-1."""

    q: int
    n: int

    def __post_init__(self) -> None:
        prime_power_decomposition(self.q)
        if self.n < 1:
            raise SymbolError("n must be >= 1")
        if (self.q - 1) % self.n:
            raise SymbolError(f"n = {self.n} does not divide q - 1 = {self.q - 1}")

    @property
    def minus_one_dlog(self) -> int:
        return (self.q - 1) // 2 if self.q % 2 else 0

    def element(self, valuation: int, unit_dlog: int) -> "TameElt":
        return TameElt(valuation, unit_dlog % (self.q - 1))


@dataclass(frozen=True)
class TameElt:
    """pi^valuation times the unit with the given dlog exponent."""

    valuation: int
    unit_dlog: int


def elt_mul(f: TameField, a: TameElt, b: TameElt) -> TameElt:
    return f.element(a.valuation + b.valuation, a.unit_dlog + b.unit_dlog)


def elt_neg(f: TameField, a: TameElt) -> TameElt:
    """The element -a (dlog shifted by dlog(-1))."""
    return f.element(a.valuation, a.unit_dlog + f.minus_one_dlog)


def hilbert(f: TameField, a: TameElt, b: TameElt) -> int:
    """Exponent of the n-th Hilbert symbol (a, b) in Z/n."""
    va, ua = a.valuation, a.unit_dlog
    vb, ub = b.valuation, b.unit_dlog
    return (va * vb * f.minus_one_dlog + vb * ua - va * ub) % f.n


def commutator(f: TameField, b: Mat, s: Sequence[TameElt], t: Sequence[TameElt]) -> int:
    """Sum of b[i][j] * hilbert(s_i, t_j) in Z/n."""
    if b.rows != b.cols:
        raise SymbolError("form matrix must be square")
    if len(s) != b.rows or len(t) != b.rows:
        raise SymbolError("element tuples must match the form size")
    total = 0
    for i in range(b.rows):
        for j in range(b.cols):
            coeff = b[i, j]
            if coeff:
                total += coeff * hilbert(f, s[i], t[j])
    return total % f.n


@dataclass(frozen=True)
class SplitCenterReport:
    """Radical of the split commutator pairing versus the sharp image.

    Both subgroups live in (Z/n)^(2r), coordinates ordered as the r
    valuation slots followed by the r unit slots; they are presented as
    integer lattices containing n Z^(2r).
    """

    modulus: int
    rank: int
    gram: Mat
    radical: Sublattice
    sharp_image: Sublattice

    @property
    def equal(self) -> bool:
        return self.radical == self.sharp_image


def split_center_image(f: TameField, b: Mat) -> SplitCenterReport:
    """Radical of the commutator pairing on T/T^n for the split torus.

    T = (F^x)^r modulo n-th powers and the wild part is (Z/n + Z/n)^r via
    (v mod n, u mod n).  The pairing of basis elements is read off the
    symbol: (pi_i, pi_j) gives b_ij * dlog(-1), (pi_i, g_j) gives -b_ij,
    (g_i, pi_j) gives b_ij, units pair to zero.  The radical (left kernel
    of the Gram matrix mod n) is compared with the image of the sharp
    lattice of the form, which lands in both valuation and unit slots.
    """
    if b.rows != b.cols:
        raise SymbolError("form matrix must be square")
    r = b.rows
    n = f.n
    m = f.minus_one_dlog
    gram_rows = []
    for i in range(r):
        gram_rows.append([m * b[i, j] for j in range(r)] + [-b[i, j] for j in range(r)])
    for i in range(r):
        gram_rows.append([b[i, j] for j in range(r)] + [0] * r)
    gram = Mat.from_rows(gram_rows, cols=2 * r)
    radical = preimage_mod(gram.transpose(), n)

    sharp_lat = sharp(b, n, Sublattice.full(r))
    cols = []
    for j in range(sharp_lat.rank):
        y = sharp_lat.basis.col(j)
        cols.append(list(y) + [0] * r)
        cols.append([0] * r + list(y))
    sharp_image = Sublattice.from_columns(2 * r, cols, modulus=n)
    return SplitCenterReport(modulus=n, rank=r, gram=gram,
                             radical=radical, sharp_image=sharp_image)


@lru_cache(maxsize=None)
def dlog_table(q: int) -> tuple[int, ...]:
    """dlogs in Z/(q-1) for the prime field F_q, indexed by residue.

    Entry 0 is unused (set to -1); the generator is the least primitive
    root.  Only prime q is supported: the table needs field addition.
    """
    p, k = prime_power_decomposition(q)
    if k != 1:
        raise NotPrimePower(f"dlog table needs a prime q, got {q} = {p}^{k}")
    for g in range(1, q):
        # g is primitive exactly when its first q - 1 powers are distinct
        table, x = [-1] * q, 1
        for i in range(q - 1):
            if table[x] >= 0:
                break
            table[x], x = i, x * g % q
        else:
            return tuple(table)
    raise SymbolError(f"no primitive root found for q = {q}")


def steinberg_violations(f: TameField) -> list[tuple[TameElt, TameElt]]:
    """Pairs (a, 1-a) with nonzero symbol; expected empty.

    Unit pairs use the residue dlog table (prime q only).  For nonzero
    valuations, 1 - a is determined by (v, u) alone: it is 1 for v > 0
    and -a for v < 0 up to a unit congruent to 1; valuations 1 <= |v| <= 3
    are checked.
    """
    table = dlog_table(f.q)
    bad = []
    for residue in range(2, f.q):
        # a a unit with residue != 0, 1: 1 - a is the unit 1 - residue
        a = f.element(0, table[residue])
        one_minus = f.element(0, table[(1 - residue) % f.q])
        if hilbert(f, a, one_minus):
            bad.append((a, one_minus))
    for v in range(1, 4):
        for u in range(f.q - 1):
            a = f.element(v, u)
            if hilbert(f, a, f.element(0, 0)):
                bad.append((a, f.element(0, 0)))
            b = f.element(-v, u)
            one_minus_b = elt_neg(f, b)
            if hilbert(f, b, one_minus_b):
                bad.append((b, one_minus_b))
    return bad
