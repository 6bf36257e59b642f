"""Cohomology of finite modules with Frobenius (and tame inertia) actions.

A FrobModule is a finite abelian group Z^k/R with a distinguished
automorphism phi; its cohomology over the procyclic group generated by
Frobenius is ker(phi - 1) and coker(phi - 1).  R contains E * Z^k, E the
group exponent, so every preimage, span, solve and inverse against R is
taken modulo E (the sequence of `residue_sharp_sequence` modulo N or n*N),
and no entry outgrows it.  A TameModule adds an inertia automorphism
sigma of order dividing e with the tame relation phi sigma phi^-1 =
sigma^q, and its cohomology is assembled from the sigma-invariants
(unramified part) and the once-twisted sigma-coinvariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import ClassVar, Sequence

from .datum import CoverDatum, prime_power_decomposition
from .linalg import (FinAbGroup, HermiteBlock, LatticeError, Mat, Sublattice, cached_attribute,
                     fixed_point_conditions, preimage_lattice, preimage_mod,
                     quotient_invariants, restrict_endomorphism, solve_modulo)
from .residue import _restrictions, level_modulus
from .sharp import y_sharp


class ModuleError(ValueError):
    """Invalid module presentation."""


class ExactnessError(ValueError):
    """The given maps do not form a short exact sequence of modules."""


class NotInH0(ValueError):
    """The supplied vector is not Frobenius-fixed in the quotient."""


def _reduce_mat_mod(m: Mat, modulus: int) -> Mat:
    return Mat(m.rows, m.cols, tuple(x % modulus for x in m.entries))


def _mat_pow_mod(a: Mat, exponent: int, modulus: int) -> Mat:
    """a**exponent with entries reduced mod `modulus` at every step."""
    result = _reduce_mat_mod(Mat.identity(a.rows), modulus)
    base = _reduce_mat_mod(a, modulus)
    n = exponent
    while n:
        if n & 1:
            result = _reduce_mat_mod(result @ base, modulus)
        base = _reduce_mat_mod(base @ base, modulus)
        n >>= 1
    return result


def _columns_in(m: Mat, lattice: Sublattice) -> bool:
    return all(map(lattice.contains_vector, m._columns))


@dataclass(frozen=True)
class _FiniteModule:
    """Finite abelian group Z^k/R with the endomorphisms named in ACTIONS.

    The relation lattice R must have full rank k (the group is finite).
    Each action must send R into R and act invertibly on Z^k/R, that is be
    onto, as the group is finite: its columns and R span Z^k (Cohen, GTM
    138, section 2.4).  The subclass's q must be a prime power and the
    group order must be prime to it.  Actions are stored reduced modulo the
    group exponent, so equal actions have equal presentations.  Every
    subclass has a Frobenius action phi; the lattices behind its H^0 and
    H^1 are kept once built.
    """

    ACTIONS: ClassVar[tuple[str, ...]] = ()

    relations: Sublattice

    def __post_init__(self) -> None:
        r = self.relations
        if r.rank != r.ambient_rank:
            raise ModuleError("relation lattice must have full rank (finite group)")
        k = r.ambient_rank
        for name in self.ACTIONS:
            mat = getattr(self, name)
            if mat.rows != k or mat.cols != k:
                raise ModuleError(f"{name} shape differs from the presentation rank")
        self._check_scalars()
        if gcd(self.order, self.q) != 1:
            raise ModuleError("group order must be prime to q")
        for name in self.ACTIONS:
            mat = _reduce_mat_mod(getattr(self, name), self.exponent)
            object.__setattr__(self, name, mat)
            if not _columns_in(mat @ r.basis, r):
                raise ModuleError(f"{name} does not preserve the relation lattice")
            # on the finite group Z^k/R, mat is bijective iff it is onto,
            # that is iff its columns and R span Z^k
            if not r.join(mat, modulus=self.exponent).is_full:
                raise ModuleError(f"{name} is not invertible on the module")

    def _check_scalars(self) -> None:
        prime_power_decomposition(self.q)

    @property
    def ambient_rank(self) -> int:
        return self.relations.ambient_rank

    @property
    def order(self) -> int:
        return self.relations.index_in_ambient()

    @cached_attribute
    def exponent(self) -> int:
        return self.group().exponent

    def group(self) -> FinAbGroup:
        return quotient_invariants(Sublattice.full(self.ambient_rank), self.relations)

    @cached_attribute
    def phi_fixed(self) -> Sublattice:
        """The vectors that phi - 1 sends into R; over R they give ker(phi - 1)."""
        return preimage_lattice(self.phi - Mat.identity(self.ambient_rank), self.relations,
                                modulus=self.exponent)

    @cached_attribute
    def h1_relations(self) -> Sublattice:
        """The relations of coker(phi - 1): R joined with the image of phi - 1."""
        return self.relations.join(self.phi - Mat.identity(self.ambient_rank),
                                   modulus=self.exponent)


@dataclass(frozen=True)
class FrobModule(_FiniteModule):
    """Finite abelian group Z^k/R with Frobenius endomorphism phi."""

    ACTIONS: ClassVar[tuple[str, ...]] = ("phi",)

    phi: Mat
    q: int


@dataclass(frozen=True)
class TameCohomology:
    """Sizes (#H0, #H1, #H2) plus the two graded pieces of each level."""

    sizes: tuple[int, int, int]
    h0_unr: FinAbGroup
    h1_unr: FinAbGroup
    h0_twist: FinAbGroup
    h1_twist: FinAbGroup


def h0_h1(m: FrobModule) -> tuple[FinAbGroup, FinAbGroup]:
    """(ker(phi-1), coker(phi-1)) as invariant factors; orders agree."""
    h0 = quotient_invariants(m.phi_fixed, m.relations)
    h1 = quotient_invariants(Sublattice.full(m.ambient_rank), m.h1_relations)
    if h0.order != h1.order:
        raise ModuleError("kernel and cokernel of phi-1 differ in size")
    return h0, h1


def tate_twist(m: FrobModule, k: int) -> FrobModule:
    """Same group, phi multiplied by q**k (inverse taken mod the exponent)."""
    return FrobModule(m.relations, m.phi.scale(pow(m.q, k, m.exponent)), m.q)


@dataclass(frozen=True)
class ShortExactSequence:
    """Maps left -> mid -> right of FrobModules, given on presentations;
    each map's Hermite block against its target's relations is kept."""

    left: FrobModule
    mid: FrobModule
    right: FrobModule
    inject: Mat
    project: Mat

    @cached_attribute
    def _inject_block(self) -> HermiteBlock:
        return HermiteBlock(self.inject, self.mid.relations, self.mid.exponent)

    @cached_attribute
    def _project_block(self) -> HermiteBlock:
        return HermiteBlock(self.project, self.right.relations, self.right.exponent)

    @property
    def projection_kernel(self) -> Sublattice:
        """The preimage of the right term's relations under the projection."""
        return self._project_block.preimage

    @cached_attribute
    def failures(self) -> tuple[str, ...]:
        """The verdict of `exactness_failures`."""
        a, b, c = self.left, self.mid, self.right
        f, g = self.inject, self.project
        problems: list[str] = []
        if (f.rows, f.cols) != (b.ambient_rank, a.ambient_rank):
            return ("injection shape mismatch",)
        if (g.rows, g.cols) != (c.ambient_rank, b.ambient_rank):
            return ("projection shape mismatch",)
        if not _columns_in(f @ a.relations.basis, b.relations):
            problems.append("injection does not respect relations")
        if not _columns_in(g @ b.relations.basis, c.relations):
            problems.append("projection does not respect relations")
        if not _columns_in(b.phi @ f - f @ a.phi, b.relations):
            problems.append("injection does not commute with phi")
        if not _columns_in(c.phi @ g - g @ b.phi, c.relations):
            problems.append("projection does not commute with phi")
        if problems:
            return tuple(problems)
        if self._inject_block.preimage != a.relations:
            problems.append("injection has a kernel")
        if b.relations.join(f, modulus=b.exponent) != self.projection_kernel:
            problems.append("image of the injection differs from the kernel of the projection")
        if c.relations.join(g, modulus=c.exponent) != Sublattice.full(c.ambient_rank):
            problems.append("projection is not surjective")
        return tuple(problems)


def exactness_failures(ses: ShortExactSequence) -> tuple[str, ...]:
    """Empty iff the maps form a short exact sequence commuting with phi.

    The verdict is computed once per sequence and kept on it.
    """
    return ses.failures


def h1_class(m: FrobModule, vec: Sequence[int]) -> tuple[int, ...]:
    """Canonical representative of a vector's class in coker(phi - 1)."""
    return m.h1_relations.reduce_vector(vec)


def _connecting_values(ses: ShortExactSequence, classes: Mat) -> Mat:
    """Lift each column (a class in h0(right)), apply phi - 1, pull back.

    Column j of the result represents the image of column j in h1(left);
    in debug mode lifts shifted by a kernel vector must give the same classes.
    """
    problems = exactness_failures(ses)
    if problems:
        raise ExactnessError("; ".join(problems))
    a, b, c = ses.left, ses.mid, ses.right
    if classes.rows != c.ambient_rank:
        raise NotInH0("vector length differs from the presentation rank")
    if not _columns_in((c.phi - Mat.identity(c.ambient_rank)) @ classes, c.relations):
        raise NotInH0("class is not Frobenius-fixed")
    lifts = ses._project_block.solve(classes)
    if lifts is None:
        raise ExactnessError("vector cannot be lifted through the projection")
    delta = b.phi - Mat.identity(b.ambient_rank)

    def pull_back(lifts: Mat) -> Mat:
        values = ses._inject_block.solve(delta @ lifts)
        if values is None:
            raise ExactnessError("phi - 1 of a lift is not in the image of the injection")
        return values

    values = pull_back(lifts)
    if __debug__ and b.ambient_rank:
        shift = ses.projection_kernel.basis.col(0)
        others = lifts + Mat.from_columns([shift] * lifts.cols, rows=b.ambient_rank)
        assert _columns_in(pull_back(others) - values, a.h1_relations), \
            "connecting value depends on the lift"
    return values


def connecting(ses: ShortExactSequence, c: Sequence[int]) -> tuple[int, ...]:
    """Connecting homomorphism: lift, apply phi - 1, pull back.

    `c` is a vector whose class lies in h0(right); the result is the
    canonical representative of its image in h1(left).
    """
    values = _connecting_values(ses, Mat.from_columns([list(c)]))
    return h1_class(ses.left, values.col(0))


def image_of_connecting(ses: ShortExactSequence) -> FinAbGroup:
    """Subgroup of h1(left) generated by the connecting images of h0(right)."""
    denom = ses.left.h1_relations
    values = _connecting_values(ses, ses.right.phi_fixed.basis)
    return quotient_invariants(denom.join(values, modulus=ses.left.exponent), denom)


def _submodule(lattice: Sublattice, relations: Sublattice, modulus: int, phi: Mat, q: int,
               mult: int) -> FrobModule:
    """lattice/(lattice meet relations >= modulus Z^k); phi restricted, times mult."""
    return FrobModule(preimage_lattice(lattice.basis, relations, modulus=modulus),
                      restrict_endomorphism(phi, lattice).scale(mult), q)


def residue_sharp_sequence(d: CoverDatum, m: int) -> ShortExactSequence:
    """The finite-level sequence induced by the sharp lattice inclusion.

    The right term is the inertia-fixed part of the level-m points of the
    full lattice.  Because the sharp inclusion is an isogeny with
    n-torsion kernel, its preimage of the level-m points inside the
    n*N-torsion of the sharp lattice surjects onto them; the middle term
    is the inertia-fixed part of that preimage and the left term the
    kernel of the induced map, a copy of the inertia-fixed n-torsion
    quotient.  Taking inertia invariants preserves exactness exactly when
    gcd(n, e) = 1; exactness is not enforced here, so failures show on
    data made by `dataclasses.replace` of n on a validated datum.

    For the connecting map to reach all of h1 of the left term, m should
    be a multiple of the order of the Frobenius matrix (the datum's group
    exponent always works): from that level on, the Frobenius-fixed
    points of the right term are the full stabilized point group.
    """
    n_mod = level_modulus(d.q, m)
    big_mod = d.n * n_mod
    r = d.rank
    sharp_lat = y_sharp(d)
    s = sharp_lat.basis

    # right term: inertia-fixed points of (Z/N)^r with twisted Frobenius
    fixed_c = preimage_mod(fixed_point_conditions(d.inertia_gens, r), n_mod)
    mod_c = _submodule(fixed_c, Sublattice.scaled(r, n_mod), n_mod, d.frobenius, d.q, d.q)

    # middle term: inside the n*N-torsion of the sharp lattice, the
    # preimage of the level-m part, restricted to inertia-fixed points
    sharp_gens, sharp_frob = _restrictions(d, sharp_lat)
    # s @ x in n Z^r iff N s @ x in n N Z^r: one congruence mod n N
    lat_b = preimage_mod(s.scale(n_mod).vstack(fixed_point_conditions(sharp_gens, r)),
                         big_mod)
    w = lat_b.basis
    mod_b = _submodule(lat_b, Sublattice.scaled(r, big_mod), big_mod, sharp_frob, d.q, d.q)

    # projection: divide the isogeny by n, then express in the fixed basis
    pushed = s @ w
    if any(x % d.n for x in pushed.entries):
        raise LatticeError("isogeny image is not divisible by n")
    coords = [fixed_c.coords_of([x // d.n for x in c]) for c in pushed.columns()]
    if None in coords:
        raise LatticeError("projected points are not inertia fixed")
    proj = Mat.from_columns(coords, rows=fixed_c.rank)

    # left term: kernel of the projection, with the restricted Frobenius;
    # both blocks are canonical under any valid modulus, so the sequence keeps them
    project = HermiteBlock(proj, mod_c.relations, n_mod)
    ker = project.preimage
    inject = HermiteBlock(ker.basis, mod_b.relations, big_mod)
    mod_a = FrobModule(inject.preimage, restrict_endomorphism(mod_b.phi, ker), d.q)
    ses = ShortExactSequence(mod_a, mod_b, mod_c, inject=ker.basis, project=proj)
    vars(ses).update(_inject_block=inject, _project_block=project)
    return ses


@dataclass(frozen=True)
class TameModule(_FiniteModule):
    """Finite module with tame inertia sigma and Frobenius phi.

    sigma**e must be the identity on the module, the tame relation
    phi sigma phi^-1 = sigma**q must hold there, e must be prime to q
    (tameness), and the group order must be prime to q.
    """

    ACTIONS: ClassVar[tuple[str, ...]] = ("sigma", "phi")

    sigma: Mat
    phi: Mat
    e: int
    q: int

    def __post_init__(self) -> None:
        super().__post_init__()
        exponent, r = self.exponent, self.relations
        sigma_e = _mat_pow_mod(self.sigma, self.e, exponent)
        if not _columns_in(sigma_e - Mat.identity(self.ambient_rank), r):
            raise ModuleError("sigma**e is not the identity on the module")
        sigma_q = _mat_pow_mod(self.sigma, self.q, exponent)
        if not _columns_in(self.phi @ self.sigma - sigma_q @ self.phi, r):
            raise ModuleError("tame relation phi sigma = sigma**q phi fails")

    def _check_scalars(self) -> None:
        if self.e < 1:
            raise ModuleError("e must be >= 1")
        super()._check_scalars()
        if gcd(self.e, self.q) != 1:
            raise ModuleError("e must be prime to q (tameness)")


def unramified_part(m: TameModule) -> FrobModule:
    """The sigma-fixed submodule with the restricted Frobenius."""
    fixed = preimage_lattice(m.sigma - Mat.identity(m.ambient_rank), m.relations,
                             modulus=m.exponent)
    return _submodule(fixed, m.relations, m.exponent, m.phi, m.q, 1)


def twisted_coinvariants(m: TameModule) -> FrobModule:
    """The sigma-coinvariants with Frobenius divided by q (one negative twist)."""
    k = m.ambient_rank
    rel = m.relations.join(m.sigma - Mat.identity(k), modulus=m.exponent)
    # the coinvariants' exponent divides m's, and FrobModule reduces phi mod it
    return FrobModule(rel, m.phi.scale(pow(m.q, -1, m.exponent)), m.q)


def tame_h(m: TameModule) -> TameCohomology:
    """Cohomology sizes over the tame group, with both graded pieces.

    #H0 is the Frobenius-fixed part of the sigma-invariants; #H1 is the
    product of the unramified piece (coker of phi-1 on the invariants)
    and the Frobenius-fixed part of the once-twisted coinvariants; #H2 is
    the cokernel on the twisted coinvariants.
    """
    unr = unramified_part(m)
    h0_unr, h1_unr = h0_h1(unr)
    tw = twisted_coinvariants(m)
    h0_twist, h1_twist = h0_h1(tw)
    sizes = (h0_unr.order, h1_unr.order * h0_twist.order, h1_twist.order)
    return TameCohomology(sizes, h0_unr, h1_unr, h0_twist, h1_twist)


def _inverse_mod_relations(a: Mat, m: TameModule) -> Mat:
    """A matrix inducing the inverse of `a` on m's group."""
    inverse = solve_modulo(a, Mat.identity(a.rows), m.relations, modulus=m.exponent)
    if inverse is None:
        raise ModuleError("endomorphism is not invertible on the module")
    return inverse


def dual_module(m: TameModule, n: int) -> TameModule:
    """Characters Hom(M, Z/n) with contragredient actions twisted once.

    Values live in the n-torsion of roots of unity, so inertia acts by the
    plain contragredient and Frobenius by q times the contragredient.
    Requires the exponent of M to divide n.
    """
    if n < 1:
        raise ModuleError("n must be >= 1")
    if n % m.exponent:
        raise ModuleError("exponent of the module must divide n")
    admissible = preimage_mod(m.relations.basis.transpose(), n)
    w = admissible.basis
    rel = preimage_mod(w, n)
    sigma_inv = _inverse_mod_relations(m.sigma, m)
    phi_inv = _inverse_mod_relations(m.phi, m)
    sigma_dual = restrict_endomorphism(sigma_inv.transpose(), admissible)
    phi_dual = restrict_endomorphism(phi_inv.transpose(), admissible).scale(m.q)
    dual = TameModule(rel, sigma_dual, phi_dual, m.e, m.q)
    if dual.order != m.order:
        raise ModuleError("dual has a different order than the module")
    if preimage_mod(w.transpose(), n) != m.relations:
        raise ModuleError("evaluation pairing is degenerate")
    return dual


@dataclass(frozen=True)
class CountingReport:
    """Cohomology sizes of a module and its dual with the three identities."""

    sizes_module: tuple[int, int, int]
    sizes_dual: tuple[int, int, int]
    euler_ok: bool
    duality_ok: bool
    unramified_factorization_ok: bool

    @property
    def ok(self) -> bool:
        return self.euler_ok and self.duality_ok and self.unramified_factorization_ok


def counting_checks(m: TameModule, n: int) -> CountingReport:
    """Verify #H0*#H2 = #H1, #H2(A) = #H0(A'), and the unramified H1 split."""
    dual = dual_module(m, n)  # refuses n < 1 and an n the exponent does not divide
    if gcd(n, m.q) != 1:
        raise ModuleError("n must be prime to q")
    if gcd(n, m.e) != 1:
        raise ModuleError("n must be prime to e")
    ta = tame_h(m)
    td = tame_h(dual)
    return CountingReport(
        sizes_module=ta.sizes,
        sizes_dual=td.sizes,
        euler_ok=ta.sizes[0] * ta.sizes[2] == ta.sizes[1],
        duality_ok=ta.sizes[2] == td.sizes[0],
        unramified_factorization_ok=ta.sizes[1] == ta.h1_unr.order * td.h1_unr.order,
    )
