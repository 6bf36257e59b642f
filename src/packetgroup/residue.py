"""Residue-level point groups and the stabilized packet group.

At level m the coefficient group is the cyclic group of order
N = q**m - 1.  Subgroups of (Z/N)^k are carried as integer lattices that
contain N Z^k, so every group operation reduces to exact lattice algebra;
no element enumeration happens on this path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .datum import CoverDatum
from .linalg import (FinAbGroup, LatticeError, Sublattice, fixed_points,
                     quotient_invariants, restrict_endomorphism)
from .sharp import y_gamma_sharp, y_sharp


class ContainmentViolation(RuntimeError):
    """Internal invariant failed: the sharp image escaped the gamma-sharp image."""


class NTorsionViolation(RuntimeError):
    """Internal invariant failed: an invariant factor does not divide n."""


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
    ambient_rank: int
    lattice: Sublattice

    def __post_init__(self) -> None:
        if self.lattice.ambient_rank != self.ambient_rank:
            raise LatticeError("lattice ambient rank mismatch")
        if self.ambient_rank and not self.lattice.contains(
                Sublattice.scaled(self.ambient_rank, self.modulus)):
            raise LatticeError("lattice does not contain N Z^k")

    @property
    def order(self) -> int:
        if self.ambient_rank == 0:
            return 1
        return (self.modulus ** self.ambient_rank) // self.lattice.index_in_ambient()


@dataclass(frozen=True)
class StabilizationPolicy:
    """Level baseline, doubling, and the agreement window for packet_group."""

    start_level: Optional[int] = None
    stable_repeats: int = 3
    max_level: int = 4096

    def __post_init__(self) -> None:
        if self.start_level is not None and self.start_level < 1:
            raise ValueError("start_level must be >= 1")
        if self.stable_repeats < 1:
            raise ValueError("stable_repeats must be >= 1")
        if self.max_level < 1:
            raise ValueError("max_level must be >= 1")


def level_modulus(d: CoverDatum, m: int) -> int:
    if m < 1:
        raise ValueError("level must be >= 1")
    return d.q ** m - 1


def invariant_points(d: CoverDatum, sub: Sublattice, m: int) -> LevelGroup:
    """Fixed points of the twisted action on sub x mu_N, in sub's own basis.

    Inertia generators act through their restriction matrices alone;
    the Frobenius restriction is multiplied by q, encoding x -> x**q on
    the roots of unity.
    """
    actions = [restrict_endomorphism(g, sub) for g in d.inertia_gens]
    actions.append(restrict_endomorphism(d.frobenius, sub).scale(d.q))
    n_mod = level_modulus(d, m)
    k = sub.rank
    lattice = fixed_points(actions, k, n_mod)
    return LevelGroup(level=m, modulus=n_mod, ambient_rank=k, lattice=lattice)


def iota_image(d: CoverDatum, sub: Sublattice, m: int) -> LevelGroup:
    """Image of the invariant points in the ambient (Z/N)^r."""
    inv = invariant_points(d, sub, m)
    n_mod = inv.modulus
    lattice = Sublattice.scaled(d.rank, n_mod).join(sub.basis @ inv.lattice.basis)
    return LevelGroup(level=m, modulus=n_mod, ambient_rank=d.rank, lattice=lattice)


def packet_group_level(d: CoverDatum, m: int) -> FinAbGroup:
    """Quotient of the gamma-sharp image by the sharp image at level m."""
    big = iota_image(d, y_gamma_sharp(d), m)
    small = iota_image(d, y_sharp(d), m)
    if not big.lattice.contains(small.lattice):
        raise ContainmentViolation(
            f"sharp image not contained in gamma-sharp image at level {m}")
    group = quotient_invariants(big.lattice, small.lattice)
    if any(d.n % f for f in group.invariant_factors):
        raise NTorsionViolation(
            f"invariant factors {group.invariant_factors} do not all divide n = {d.n}")
    return group


def packet_group(d: CoverDatum,
                 policy: StabilizationPolicy = StabilizationPolicy()
                 ) -> tuple[FinAbGroup, tuple[tuple[int, FinAbGroup], ...]]:
    """Stabilized packet group with the level trace.

    Levels m0, 2*m0, 4*m0, ... are evaluated until `stable_repeats`
    consecutive levels return the same invariant factors; m0 defaults to
    the exponent of the generated matrix group.  Raises NotStabilized when
    max_level is exceeded, never returning a silent answer.  Per-level
    computations are pure functions of (datum, level), so they could run
    concurrently; they are evaluated in order here so the trace is
    deterministic.
    """
    m = policy.start_level if policy.start_level is not None else d.gamma_exponent
    trace: list[tuple[int, FinAbGroup]] = []
    while m <= policy.max_level:
        trace.append((m, packet_group_level(d, m)))
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
