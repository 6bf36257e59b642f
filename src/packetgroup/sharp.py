"""Fixed lattices, annihilator ("sharp") lattices, and induced-form radicals.

For the bilinear form B of a datum and a target sublattice L, the sharp of
L is {y : B(y, c) = 0 mod n for every basis vector c of L}.  It always
contains n Z^r and is antitone in the target, so the chain
n Z^r <= Y^# <= Y^{Gamma#} <= Z^r holds for every valid datum.  A datum's
fixed lattice and its sharp lattices depend on no level, so they are
computed once per datum and kept on it.
"""

from __future__ import annotations

from .datum import CoverDatum
from .linalg import (FinAbGroup, LatticeError, Mat, NotASublattice, Sublattice,
                     fixed_point_conditions, kernel_lattice, preimage_mod, quotient_invariants)


def fixed_lattice(d: CoverDatum) -> Sublattice:
    """Vectors fixed by every generator (inertia generators and Frobenius),
    computed once per datum."""
    return d._once("fixed_lattice",
                   lambda: kernel_lattice(fixed_point_conditions(d.generators, d.rank)))


def sharp(b: Mat, n: int, target: Sublattice) -> Sublattice:
    """{y : B(y, c) = 0 mod n for all basis columns c of target}.

    The condition row for a column c is c^T B^T, so the whole system is
    target^T B^T; for the symmetric forms produced by a datum this agrees
    with target^T B.  `y_sharp` and `y_gamma_sharp` take it once per datum
    and target.
    """
    if b.rows != b.cols:
        raise LatticeError("bilinear form must be square")
    if target.ambient_rank != b.rows:
        raise LatticeError("target ambient rank differs from the form")
    system = target.basis.transpose() @ b.transpose()
    return preimage_mod(system, n)


def _datum_sharp(d: CoverDatum, target: Sublattice) -> Sublattice:
    """The sharp of target under the datum's form, computed once per datum
    and target lattice."""
    return d._once(("sharp", target), lambda: sharp(d.bilinear, d.n, target))


def y_sharp(d: CoverDatum) -> Sublattice:
    """Annihilator of the full lattice Z^r."""
    return _datum_sharp(d, Sublattice.full(d.rank))


def y_gamma_sharp(d: CoverDatum) -> Sublattice:
    """Annihilator of the fixed lattice."""
    return _datum_sharp(d, fixed_lattice(d))


def radical_of_induced_form(d: CoverDatum, sub1: Sublattice,
                            sub2: Sublattice) -> FinAbGroup:
    """Left kernel of the induced Z/n pairing on (Z^r/sub1) x (Z^r/sub2).

    The pairing descends to the quotients iff sub1 annihilates the full
    second lattice and sub2 the full first one; that containment is the
    checked precondition.  The left kernel is then the annihilator of the
    full lattice modulo sub1.  The datum's form is symmetric, so the left
    and right annihilators of the full lattice are both y_sharp.
    """
    ann = y_sharp(d)
    if not ann.contains(sub1):
        raise NotASublattice("first lattice does not annihilate the full second factor")
    if not ann.contains(sub2):
        raise NotASublattice("second lattice is not annihilated by the full first factor")
    return quotient_invariants(ann, sub1)
