"""Ingestion and validation of a cover datum.

A datum consists of a lattice rank r, integer matrices generating a finite
group of lattice automorphisms (inertia generators plus one Frobenius
lift), a residue size q (prime power), a cover degree n, and an
upper-triangular matrix presenting an invariant quadratic form on Z^r.
Validation enumerates the generated group as permutations of the finite
orbit of the basis vectors, derives the symmetrized bilinear form, and
checks every structural hypothesis before any computation runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import itemgetter
from typing import Mapping, Optional, Sequence

from .linalg import Mat, cached_attribute, column_hnf

DEFAULT_CLOSURE_CAP = 10 ** 6

# A group element as the permutation x of the basis-vector orbit with
# x . orbit[i] = orbit[x[i]].
Perm = tuple[int, ...]


class DatumError(ValueError):
    """Base class for datum validation failures."""


class ConfigError(DatumError):
    """Structurally malformed configuration."""


class DeterminantError(DatumError):
    """A generator is not a lattice automorphism (det != +-1)."""


class GroupNotFinite(DatumError):
    """The group is infinite, or larger than the configured cap."""


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


# Miller-Rabin with the first 13 primes as bases is deterministic below
# this bound (Sorenson and Webster, 2015); q at or above it is refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
Q_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer_root(x: int, k: int) -> int:
    """The largest y with y**k <= x, for x >= 1, by Newton's method from above."""
    y = 1 << -(-x.bit_length() // k)
    while True:
        z = ((k - 1) * y + x // y ** (k - 1)) // k
        if z >= y:
            return y
        y = z


def prime_power_decomposition(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p**k, p prime; raise NotPrimePower otherwise.

    q must be below Q_LIMIT (about 3.3e24), where the primality test is
    deterministic; a larger q is a ConfigError.
    """
    if q < 2:
        raise NotPrimePower(f"q = {q} is not a prime power >= 2")
    if q >= Q_LIMIT:
        raise ConfigError(f"q = {q} is not below the supported limit {Q_LIMIT}")
    for k in range(1, q.bit_length()):
        p = _integer_root(q, k)
        if p ** k == q and _is_prime(p):
            return p, k
    raise NotPrimePower(f"q = {q} is not a prime power")


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
    orbit: tuple[tuple[int, ...], ...]
    group_perms: frozenset[Perm]
    inertia_perms: frozenset[Perm]
    e: int
    gamma_exponent: int

    @property
    def generators(self) -> tuple[Mat, ...]:
        return self.inertia_gens + (self.frobenius,)

    @property
    def group_order(self) -> int:
        return len(self.group_perms)

    def _matrices(self, perms: frozenset[Perm]) -> tuple[Mat, ...]:
        """The matrices of `perms`, sorted by entries: column j is the image of e_j."""
        mats = (Mat.from_columns([self.orbit[x[j]] for j in range(self.rank)],
                                 rows=self.rank) for x in perms)
        return tuple(sorted(mats, key=lambda m: m.entries))

    @cached_attribute
    def group_elements(self) -> tuple[Mat, ...]:
        return self._matrices(self.group_perms)

    @cached_attribute
    def inertia_elements(self) -> tuple[Mat, ...]:
        return self._matrices(self.inertia_perms)

    @cached_attribute
    def _level_free(self) -> dict:
        """What `sharp` and `residue` derive from the datum alone: the fixed
        lattice, the sharp lattices keyed by their targets and, keyed by
        lattice, the generators' restrictions and the Smith data of the
        twisted conditions.  Filled by `_once`; like every cached attribute
        it is kept out of eq, hash and repr, and a `dataclasses.replace`
        copy starts empty."""
        return {}

    def _once(self, key, compute):
        """compute(), stored under `key` on the first call and read back on
        every later one; a call that raises stores nothing."""
        memo = self._level_free
        if key not in memo:
            memo[key] = compute()
        return memo[key]


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


def _int_text(x: int) -> str:
    """str(x), or its bit length where str() would pass Python's digit limit."""
    try:
        return str(x)
    except ValueError:
        return f"an integer of {x.bit_length()} bits"


def _mod3_test(t: Mat, seen: dict) -> None:
    """Raise GroupNotFinite when a different element in `seen` agrees with t mod 3.

    The kernel of GL_r(Z) -> GL_r(Z/3) is torsion free (Minkowski), so a
    finite group embeds mod 3: two distinct elements with the same
    reduction prove the group infinite.  Only `_basis_orbit` needs it.
    """
    if seen.setdefault(tuple(v % 3 for v in t.entries), t.entries) != t.entries:
        raise GroupNotFinite("group is infinite: two elements agree mod 3")


def _cap_exceeded(cap: int) -> GroupNotFinite:
    return GroupNotFinite(f"group closure exceeded the cap of {cap} elements")


def _basis_orbit(gens: Sequence[Mat], rank: int,
                 cap: int) -> tuple[tuple[tuple[int, ...], ...], list[Perm]]:
    """The orbit of e_1..e_r (listed first) and each generator as a permutation of it.

    Every new point w = g t e_j gets the group element g t as its
    transversal, and the transversals go through the mod-3 test, so an
    infinite group ends here rather than after rank * cap points.  A
    finite group has orbits of at most |G| points each.
    """
    ident = Mat.identity(rank)
    orbit = [ident.col(j) for j in range(rank)]
    index = {w: i for i, w in enumerate(orbit)}
    transversal = [ident] * rank
    seen: dict = {}
    _mod3_test(ident, seen)
    images: list[list[int]] = [[] for _ in gens]
    for i, w in enumerate(orbit):  # the loop visits the points it appends
        for g, row in zip(gens, images):
            y = g.apply(w)
            if y not in index:
                t = g @ transversal[i]
                _mod3_test(t, seen)
                index[y] = len(orbit)
                orbit.append(y)
                transversal.append(t)
                if len(orbit) > rank * cap:
                    raise _cap_exceeded(cap)
            row.append(index[y])
    return tuple(orbit), [tuple(row) for row in images]


def _close(elems: set[Perm], gens: Sequence[Perm], cap: int) -> None:
    """Grow the group `elems` into the group it generates with `gens`.

    Dimino's coset-by-coset closure (G. Butler, *Fundamental Algorithms for
    Permutation Groups*, LNCS 559, 1991): a generator g outside the group H
    so far makes <H, g> a union of right cosets H y.  A breadth-first search
    over the representatives y, from the identity, tries y s for every
    generator s used so far; a product outside the union starts the coset
    H (y s), formed whole.  The union is then closed under the generators,
    so it is <H, g>.  The product x @ s of orbit permutations is x[s[i]]
    at i; the cap is checked before each coset is formed.
    """
    for k, g in enumerate(gens):
        if g in elems:
            continue
        # g moves a point, so every permutation here has two or more points
        # and itemgetter(*s) maps x to the tuple x @ s
        steps = [itemgetter(*s) for s in gens[:k + 1]]
        subgroup, reps = list(elems), [tuple(range(len(g)))]
        for y in reps:  # the loop visits the representatives it appends
            for step in steps:
                z = step(y)
                if z not in elems:
                    if len(elems) + len(subgroup) > cap:
                        raise _cap_exceeded(cap)
                    elems.update(map(itemgetter(*z), subgroup))
                    reps.append(z)


def _exponent(group: set[Perm], gens: Sequence[Perm]) -> int:
    """The exponent of `group`, the lcm of the cycle lengths through one
    point of each <gens>-orbit in each element.

    That suffices: the cycle of g(i) under g x g^-1 is as long as the cycle
    of i under x, and g x g^-1 runs over the whole group as x does.
    """
    points: list[int] = []
    seen: set[int] = set()
    for i in range(len(gens[0])):
        if i not in seen:
            points.append(i)
            todo = {i}
            while todo:
                seen |= todo
                todo = {g[j] for g in gens for j in todo} - seen
    lengths = set()
    for x in group:
        for i in points:
            length, j = 1, x[i]
            while j != i:
                length, j = length + 1, x[j]
            lengths.add(length)
    return lcm(*lengths)


def fold_upper(m: Mat) -> Mat:
    """Upper-triangular presentation of the quadratic form y^T m y."""
    rows = [[0] * m.cols for _ in range(m.rows)]
    for i in range(m.rows):
        rows[i][i] = m[i, i]
        for j in range(i + 1, m.cols):
            rows[i][j] = m[i, j] + m[j, i]
    return Mat.from_rows(rows, cols=m.cols)


def matrix_inverse_unimodular(a: Mat) -> Mat:
    """a^-1: the column HNF of [a; I] is [I; a^-1] exactly when a is square
    and unimodular (Cohen, GTM 138, section 2.4)."""
    h = column_hnf(a.vstack(Mat.identity(a.cols)))
    if Mat(a.rows, h.cols, h.entries[:a.rows * h.cols]) != Mat.identity(a.cols):
        raise DeterminantError("matrix is not invertible over the integers")
    return Mat(a.cols, h.cols, h.entries[a.rows * h.cols:])


def validate(config: Mapping[str, object], *,
             closure_cap: int = DEFAULT_CLOSURE_CAP) -> CoverDatum:
    """Validate a raw configuration and return the derived CoverDatum.

    Every returned datum satisfies gcd(n, e) = 1; CoverDatum itself runs
    no checks, so data violating that hypothesis are built by
    `dataclasses.replace` on a validated datum.
    """
    if closure_cap < 1:
        raise ConfigError(f"closure_cap must be >= 1, got {closure_cap}")
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

    gens = inertia_gens + (frobenius,)
    names = [f"inertia_gens[{i}]" for i in range(len(inertia_gens))] + ["frobenius"]
    for which, g in zip(names, gens):
        d = g.det()
        if d not in (1, -1):
            raise DeterminantError(f"{which} has determinant {_int_text(d)}, expected +-1")

    bilinear = q_upper + q_upper.transpose()
    for which, g in zip(names, gens):
        if g.transpose() @ bilinear @ g != bilinear:
            raise FormNotInvariant(f"bilinear form not invariant under {which}")

    # Each generator permutes a finite orbit that spans Z^r, so the group is
    # finite and embeds mod 3 (Minkowski): past here no mod-3 test can fire.
    orbit, perms = _basis_orbit(gens, rank, closure_cap)
    ident = tuple(range(len(orbit)))
    inertia = {ident}
    _close(inertia, perms[:-1], closure_cap)
    e = len(inertia)

    frob = perms[-1]
    frob_inv = sorted(range(len(frob)), key=frob.__getitem__)
    for i, g in enumerate(perms[:-1]):
        if tuple(frob[g[j]] for j in frob_inv) not in inertia:
            raise InertiaNotNormalized(
                f"frobenius does not normalize the inertia group (generator {i})")
    # the group is I together with its cosets I F^j, closed one coset at a time
    group = set(inertia)
    _close(group, perms, closure_cap)

    if gcd(n, e) != 1:
        raise RamificationGcdError(
            f"cover degree n = {n} shares a factor with the ramification index e = {e}")

    return CoverDatum(
        rank=rank,
        inertia_gens=inertia_gens,
        frobenius=frobenius,
        q=q,
        n=n,
        q_upper=q_upper,
        bilinear=bilinear,
        residue_char=p,
        orbit=orbit,
        group_perms=frozenset(group),
        inertia_perms=frozenset(inertia),
        e=e,
        gamma_exponent=_exponent(group, perms),
    )


def conjugated_config(config: Mapping[str, object], p: Mat) -> dict:
    """The same datum written in the basis whose columns are those of `p`.

    Generators become p^-1 A p and the quadratic form is re-presented as
    the upper-triangular fold of p^T Q_upper p.  `p` must be unimodular
    and rank x rank.
    """
    rank = config["rank"]
    if (p.rows, p.cols) != (rank, rank):
        raise ConfigError(f"base change matrix is {p.rows} x {p.cols}, "
                          f"expected {rank} x {rank} for the datum's rank")
    try:
        p_inv = matrix_inverse_unimodular(p)
    except DeterminantError:
        raise ConfigError("base change matrix must be unimodular") from None

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
