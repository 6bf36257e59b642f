"""Residue-level point groups and the stabilized packet group.

At level m the coefficient group is the cyclic group of order
N = q**m - 1.  Subgroups of (Z/N)^k are carried as integer lattices that
contain N Z^k, so every group operation reduces to exact lattice algebra;
no element enumeration happens on this path.  The packet group is
n-torsion, so its loop works modulo the n-primary part of N alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

from .datum import CoverDatum
from .linalg import (FinAbGroup, LatticeError, Mat, NotASublattice, Sublattice,
                     congruence_lattice, fixed_point_conditions,
                     quotient_invariants, restrict_endomorphism, smith)
from .sharp import y_gamma_sharp, y_sharp


class ContainmentViolation(RuntimeError):
    """Internal invariant failed: the sharp image escaped the gamma-sharp image."""


class NTorsionViolation(RuntimeError):
    """Internal invariant failed: an invariant factor does not divide n."""


class LevelError(ValueError):
    """A level or a stabilization policy setting below 1, a first level above
    max_level, or a level past the bit budget."""


# The largest m * q.bit_length() for which q**m - 1 is formed: 2**24 bits
# (2 MiB) bounds the time and memory of one level instead of a hang.
LEVEL_BITS_LIMIT = 1 << 24


def check_level(q: int, m: int) -> None:
    """Raise LevelError unless m >= 1 and q**m - 1 fits the bit budget."""
    if m < 1:
        raise LevelError("level must be >= 1")
    bits = m * q.bit_length()
    if bits > LEVEL_BITS_LIMIT:
        raise LevelError(f"level {m} makes q**m - 1 up to {bits} bits long, "
                         f"past the limit of {LEVEL_BITS_LIMIT} bits")


def level_modulus(q: int, m: int) -> int:
    """N = q**m - 1 at level m, once check_level passes."""
    check_level(q, m)
    return q ** m - 1


def n_primary_modulus(q: int, n: int, m: int) -> int:
    """The n-primary part of q**m - 1 for n | q - 1, without forming q**m - 1.

    For a prime l | n, v_l(q**m - 1) <= v_l(q - 1) + v_l(q + 1) + v_l(m)
    (lifting the exponent), below 2 * q.bit_length() + m.bit_length(); so
    B = n**that is divisible by the n-primary part, and gcd(q**m - 1, B) is
    read off q**m mod B.
    """
    bound = n ** (2 * q.bit_length() + m.bit_length())
    return gcd(pow(q, m, bound) - 1, bound)


class NotStabilized(RuntimeError):
    """The level-doubling loop hit max_level without the required agreement."""

    def __init__(self, message: str, trace: tuple[tuple[int, FinAbGroup], ...]):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class LevelGroup:
    """A subgroup of (Z/N)^k presented by a lattice containing N Z^k."""

    level: int
    modulus: int
    lattice: Sublattice

    def __post_init__(self) -> None:
        k, n = self.lattice.ambient_rank, self.modulus
        if n < 1:
            raise LatticeError("modulus must be >= 1")
        if not all(self.lattice.contains_vector([n if i == j else 0 for i in range(k)])
                   for j in range(k)):
            raise LatticeError("lattice does not contain N Z^k")

    @property
    def order(self) -> int:
        return (self.modulus ** self.lattice.ambient_rank) // self.lattice.index_in_ambient()


@dataclass(frozen=True)
class StabilizationPolicy:
    """Level baseline, doubling, and the agreement window for packet_group."""

    start_level: Optional[int] = None
    stable_repeats: int = 3
    max_level: int = 4096

    def __post_init__(self) -> None:
        if self.start_level is not None and self.start_level < 1:
            raise LevelError("start_level must be >= 1")
        if self.stable_repeats < 1:
            raise LevelError("stable_repeats must be >= 1")
        if self.max_level < 1:
            raise LevelError("max_level must be >= 1")


def _restrictions(d: CoverDatum, sub: Sublattice) -> tuple[tuple[Mat, ...], Mat]:
    """The inertia generators' and Frobenius's restrictions to sub, in sub's
    basis, computed once per datum and lattice."""
    return d._once(("restrictions", sub), lambda: (
        tuple(restrict_endomorphism(g, sub) for g in d.inertia_gens),
        restrict_endomorphism(d.frobenius, sub)))


def _twisted_conditions(d: CoverDatum,
                        sub: Sublattice) -> tuple[Mat, Mat, tuple[int, ...]]:
    """(V, sub.basis @ V, diag) of the SNF U @ c @ V = diag(diag) of the
    conditions c for a point of sub x mu_N to be fixed, in sub's basis,
    computed once per datum and lattice.

    Inertia generators act through their restriction matrices alone;
    the Frobenius restriction is multiplied by q, encoding x -> x**q on
    the roots of unity.  Nothing here depends on the level: the points at
    any modulus are `congruence_lattice(V, diag, N)`, and their image in
    the ambient lattice is the same with V pushed through sub's basis.
    """
    def compute() -> tuple[Mat, Mat, tuple[int, ...]]:
        inertia, frob = _restrictions(d, sub)
        dec = smith(fixed_point_conditions(inertia + (frob.scale(d.q),), sub.rank))
        return dec.V, sub.basis @ dec.V, dec.d
    return d._once(("twisted", sub), compute)


def _points(d: CoverDatum, sub: Sublattice, m: int, pushed: bool) -> LevelGroup:
    n_mod = level_modulus(d.q, m)
    v, w, diag = _twisted_conditions(d, sub)
    return LevelGroup(m, n_mod, congruence_lattice(w if pushed else v, diag, n_mod))


def invariant_points(d: CoverDatum, sub: Sublattice, m: int) -> LevelGroup:
    """Fixed points of the twisted action on sub x mu_N, in sub's own basis."""
    return _points(d, sub, m, pushed=False)


def iota_image(d: CoverDatum, sub: Sublattice, m: int) -> LevelGroup:
    """Image of the invariant points in the ambient (Z/N)^r."""
    return _points(d, sub, m, pushed=True)


def packet_group_level(d: CoverDatum, m: int) -> FinAbGroup:
    """Quotient of the gamma-sharp image by the sharp image at level m."""
    return packet_group(d, StabilizationPolicy(start_level=m, stable_repeats=1, max_level=m))[0]


def packet_group(d: CoverDatum,
                 policy: StabilizationPolicy = StabilizationPolicy()
                 ) -> tuple[FinAbGroup, tuple[tuple[int, FinAbGroup], ...]]:
    """Stabilized packet group with the level trace.

    Levels m0, 2*m0, 4*m0, ... are evaluated until `stable_repeats`
    consecutive levels return the same invariant factors; m0 defaults to
    the exponent of the generated matrix group.  Raises LevelError when m0
    is above max_level, and NotStabilized when max_level is exceeded,
    never returning a silent answer.  The group is n-torsion, so by CRT a
    level is taken in (Z/M)^r, M the n-primary part of q**m - 1, and only
    M depends on the level: the sharp lattices, the SNFs of their twisted
    fixed-point conditions and each V pushed through its lattice's basis
    are computed once per datum and shared with every other entry point,
    and each new M costs one modular HNF per lattice and one quotient SNF
    (for odd n, m0, 2*m0, 4*m0 share one M).
    """
    m = policy.start_level if policy.start_level is not None else d.gamma_exponent
    if m > policy.max_level:
        raise LevelError(f"first level {m} is above max_level = {policy.max_level}")
    pushed = [_twisted_conditions(d, sub)[1:] for sub in (y_gamma_sharp(d), y_sharp(d))]
    groups: dict[int, FinAbGroup] = {}
    trace: list[tuple[int, FinAbGroup]] = []
    while m <= policy.max_level:
        check_level(d.q, m)
        modulus = n_primary_modulus(d.q, d.n, m)
        if (group := groups.get(modulus)) is None:
            big, small = (congruence_lattice(w, diag, modulus) for w, diag in pushed)
            try:
                group = quotient_invariants(big, small)
            except NotASublattice:
                raise ContainmentViolation(
                    f"sharp image not contained in gamma-sharp image at level {m}") from None
            if any(d.n % f for f in group.invariant_factors):
                raise NTorsionViolation(
                    f"invariant factors {group.invariant_factors} do not all divide n = {d.n}")
            groups[modulus] = group
        trace.append((m, group))
        if len(trace) >= policy.stable_repeats:
            window = trace[-policy.stable_repeats:]
            if all(g == window[0][1] for _, g in window):
                return window[0][1], tuple(trace)
        m *= 2
    raise NotStabilized(
        f"no agreement of {policy.stable_repeats} consecutive levels up to "
        f"max_level = {policy.max_level}; trace: "
        + ", ".join(f"m={lv}:{g}" for lv, g in trace),
        tuple(trace))
