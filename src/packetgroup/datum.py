"""Ingestion and validation of a cover datum.

A datum consists of a lattice rank r, integer matrices generating a finite
group of lattice automorphisms (inertia generators plus one Frobenius
lift), a residue size q (prime power), a cover degree n, and an
upper-triangular matrix presenting an invariant quadratic form on Z^r.
Validation enumerates the generated matrix group, derives the symmetrized
bilinear form, and checks every structural hypothesis before any
computation runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Mapping, Optional, Sequence

from .linalg import Mat, solve_columns

DEFAULT_CLOSURE_CAP = 10 ** 6


class DatumError(ValueError):
    """Base class for datum validation failures."""


class ConfigError(DatumError):
    """Structurally malformed configuration."""


class DeterminantError(DatumError):
    """A generator is not a lattice automorphism (det != +-1)."""


class GroupNotFinite(DatumError):
    """Group closure exceeded the configured cap."""


class FormNotInvariant(DatumError):
    """The quadratic form is not invariant under a generator."""


class InertiaNotNormalized(DatumError):
    """The Frobenius lift does not normalize the inertia group."""


class RamificationGcdError(DatumError):
    """gcd(n, e) != 1."""


class RootsOfUnityError(DatumError):
    """n does not divide q - 1."""


class NotPrimePower(DatumError):
    """q is not a prime power >= 2."""


def prime_power_decomposition(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p**k, p prime; raise NotPrimePower otherwise."""
    if q < 2:
        raise NotPrimePower(f"q = {q} is not a prime power >= 2")
    p = None
    d = 2
    m = q
    while d * d <= m:
        if m % d == 0:
            p = d
            break
        d += 1
    if p is None:
        return q, 1
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise NotPrimePower(f"q = {q} is not a prime power")
    return p, k


@dataclass(frozen=True)
class CoverDatum:
    """Validated cover datum with all derived fields populated."""

    rank: int
    inertia_gens: tuple[Mat, ...]
    frobenius: Mat
    q: int
    n: int
    q_upper: Mat
    bilinear: Mat
    residue_char: int
    group_elements: tuple[Mat, ...]
    inertia_elements: tuple[Mat, ...]
    e: int
    gamma_exponent: int

    @property
    def generators(self) -> tuple[Mat, ...]:
        return self.inertia_gens + (self.frobenius,)

    @property
    def group_order(self) -> int:
        return len(self.group_elements)


def parse_matrix(obj: object, what: str, cols: Optional[int] = None,
                 rows: Optional[int] = None) -> Mat:
    """A row-major integer matrix; a size of None admits any (equal) length.

    Entries must be ints: bools and floats are rejected, not converted.
    """
    shape = f"{'k' if rows is None else rows}x{'l' if cols is None else cols}"
    message = f"{what} must be a {shape} row-major list of rows"
    if not isinstance(obj, list) or rows not in (None, len(obj)):
        raise ConfigError(message)
    for row in obj:
        if not isinstance(row, list):
            raise ConfigError(message)
        cols = len(row) if cols is None else cols
        if len(row) != cols:
            raise ConfigError(message)
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ConfigError(f"{what} entries must be integers")
    return Mat.from_rows(obj, cols=cols)


def _close_group(gens: Sequence[Mat], rank: int, cap: int) -> tuple[Mat, ...]:
    """Multiplicative closure of the generators; raises GroupNotFinite at cap.

    The kernel of GL_r(Z) -> GL_r(Z/3) is torsion free (Minkowski), so a
    finite group embeds mod 3: two distinct elements with the same
    reduction prove the group infinite.
    """
    elems = {Mat.identity(rank)}
    residues = {m.entries for m in elems}  # the identity is reduced mod 3
    frontier = sorted(elems, key=lambda m: m.entries)
    gens = [g for g in gens]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = x @ g
                if y not in elems:
                    residue = tuple(v % 3 for v in y.entries)
                    if residue in residues:
                        raise GroupNotFinite(
                            "group is infinite: two elements agree mod 3")
                    residues.add(residue)
                    elems.add(y)
                    fresh.append(y)
                    if len(elems) > cap:
                        raise GroupNotFinite(
                            f"group closure exceeded the cap of {cap} elements")
        frontier = sorted(fresh, key=lambda m: m.entries)
    return tuple(sorted(elems, key=lambda m: m.entries))


def _matrix_order(a: Mat, cap: int) -> int:
    ident = Mat.identity(a.rows)
    p = a
    k = 1
    while p != ident:
        p = p @ a
        k += 1
        if k > cap:
            raise GroupNotFinite("element order exceeded the group cap")
    return k


def fold_upper(m: Mat) -> Mat:
    """Upper-triangular presentation of the quadratic form y^T m y."""
    rows = [[0] * m.cols for _ in range(m.rows)]
    for i in range(m.rows):
        rows[i][i] = m[i, i]
        for j in range(i + 1, m.cols):
            rows[i][j] = m[i, j] + m[j, i]
    return Mat.from_rows(rows, cols=m.cols)


def matrix_inverse_unimodular(a: Mat) -> Mat:
    inv = solve_columns(a, Mat.identity(a.rows))
    if inv is None:
        raise DeterminantError("matrix is not invertible over the integers")
    return inv


def validate(config: Mapping[str, object], *,
             closure_cap: int = DEFAULT_CLOSURE_CAP,
             allow_gcd_violation: bool = False) -> CoverDatum:
    """Validate a raw configuration and return the derived CoverDatum.

    `allow_gcd_violation` is a test hook that admits data with
    gcd(n, e) != 1; every other check still runs.
    """
    if not isinstance(config, Mapping):
        raise ConfigError("configuration must be a JSON object")
    for key in ("rank", "inertia_gens", "frobenius", "q", "n", "Q_upper"):
        if key not in config:
            raise ConfigError(f"missing required key {key!r}")
    rank = config["rank"]
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise ConfigError("rank must be a positive integer")
    q = config["q"]
    n = config["n"]
    if not isinstance(q, int) or isinstance(q, bool):
        raise ConfigError("q must be an integer")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ConfigError("n must be an integer >= 1")

    raw_gens = config["inertia_gens"]
    if not isinstance(raw_gens, list):
        raise ConfigError("inertia_gens must be a list of matrices")
    inertia_gens = tuple(parse_matrix(g, f"inertia_gens[{i}]", rank, rank)
                         for i, g in enumerate(raw_gens))
    frobenius = parse_matrix(config["frobenius"], "frobenius", rank, rank)
    q_upper = parse_matrix(config["Q_upper"], "Q_upper", rank, rank)
    for i in range(rank):
        for j in range(i):
            if q_upper[i, j]:
                raise ConfigError("Q_upper must be upper triangular")

    p, _ = prime_power_decomposition(q)
    if (q - 1) % n:
        raise RootsOfUnityError(f"n = {n} does not divide q - 1 = {q - 1}")

    for idx, g in enumerate(inertia_gens + (frobenius,)):
        d = g.det()
        if d not in (1, -1):
            which = "frobenius" if idx == len(inertia_gens) else f"inertia_gens[{idx}]"
            raise DeterminantError(f"{which} has determinant {d}, expected +-1")

    bilinear = q_upper + q_upper.transpose()
    for idx, g in enumerate(inertia_gens + (frobenius,)):
        which = "frobenius" if idx == len(inertia_gens) else f"inertia_gens[{idx}]"
        if g.transpose() @ bilinear @ g != bilinear:
            raise FormNotInvariant(f"bilinear form not invariant under {which}")
        twisted = g.transpose() @ q_upper @ g
        if any(twisted[i, i] != q_upper[i, i] for i in range(rank)):
            raise FormNotInvariant(f"quadratic form not invariant under {which}")

    inertia_elements = _close_group(inertia_gens, rank, closure_cap)
    e = len(inertia_elements)
    group_elements = _close_group(inertia_gens + (frobenius,), rank, closure_cap)

    inertia_set = set(inertia_elements)
    frob_inv = matrix_inverse_unimodular(frobenius)
    for i, g in enumerate(inertia_gens):
        if frobenius @ g @ frob_inv not in inertia_set:
            raise InertiaNotNormalized(
                f"frobenius does not normalize the inertia group (generator {i})")

    if not allow_gcd_violation and gcd(n, e) != 1:
        raise RamificationGcdError(
            f"cover degree n = {n} shares a factor with the ramification index e = {e}")

    exponent = 1
    for a in group_elements:
        exponent = lcm(exponent, _matrix_order(a, closure_cap))

    return CoverDatum(
        rank=rank,
        inertia_gens=inertia_gens,
        frobenius=frobenius,
        q=q,
        n=n,
        q_upper=q_upper,
        bilinear=bilinear,
        residue_char=p,
        group_elements=group_elements,
        inertia_elements=inertia_elements,
        e=e,
        gamma_exponent=exponent,
    )


def conjugated_config(config: Mapping[str, object], p: Mat) -> dict:
    """The same datum written in the basis whose columns are those of `p`.

    Generators become p^-1 A p and the quadratic form is re-presented as
    the upper-triangular fold of p^T Q_upper p.  `p` must be unimodular.
    """
    if not p.is_unimodular():
        raise ConfigError("base change matrix must be unimodular")
    rank = config["rank"]
    p_inv = matrix_inverse_unimodular(p)

    def conj(raw: Sequence[Sequence[int]]) -> list[list[int]]:
        a = Mat.from_rows(raw, cols=rank)
        return (p_inv @ a @ p).to_rows()

    q_upper = Mat.from_rows(config["Q_upper"], cols=rank)
    new_q = fold_upper(p.transpose() @ q_upper @ p)
    out = dict(config)
    out["inertia_gens"] = [conj(g) for g in config["inertia_gens"]]
    out["frobenius"] = conj(config["frobenius"])
    out["Q_upper"] = new_q.to_rows()
    return out
