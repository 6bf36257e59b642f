"""Seeded random generators for datum configurations and tame modules.

Used by the property suites and the experiment scripts.  All functions
take an explicit random.Random so runs are reproducible.
"""

from __future__ import annotations

import random
from math import gcd

from .cohomology import TameModule
from .datum import (CoverDatum, conjugated_config, fold_upper,
                    matrix_inverse_unimodular, validate)
from .linalg import Mat, Sublattice

# Residue field sizes drawn for random data.
_DATUM_QS = (3, 5, 7, 13)


def random_unimodular(rng: random.Random, r: int, ops: int = 6) -> Mat:
    """Product of random elementary row operations; determinant +-1."""
    rows = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    for _ in range(ops):
        kind = rng.randrange(3)
        i, j = rng.randrange(r), rng.randrange(r)
        if kind == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        elif kind == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 2:
            rows[i] = [-x for x in rows[i]]
    return Mat.from_rows(rows, cols=r)


def random_signed_permutation(rng: random.Random, r: int) -> Mat:
    perm = list(range(r))
    rng.shuffle(perm)
    rows = [[0] * r for _ in range(r)]
    for i, p in enumerate(perm):
        rows[i][p] = rng.choice([-1, 1])
    return Mat.from_rows(rows, cols=r)


def _cycle_with_reverser(r: int, k: int) -> tuple[Mat, Mat]:
    """A k-cycle on the first k coordinates and a permutation inverting it."""
    rows = [[0] * r for _ in range(r)]
    for i in range(r):
        if i < k:
            rows[(i + 1) % k][i] = 1
        else:
            rows[i][i] = 1
    cycle = Mat.from_rows(rows, cols=r)
    rev = [[0] * r for _ in range(r)]
    for i in range(r):
        rev[(k - i) % k if i < k else i][i] = 1
    return cycle, Mat.from_rows(rev, cols=r)


def invariant_q_upper(rng: random.Random, group: tuple[Mat, ...], r: int) -> Mat:
    """Upper-triangular form invariant under the group, by averaging a seed
    form with entries in [-2, 2]."""
    seed_rows = [[rng.randint(-2, 2) if j >= i else 0 for j in range(r)]
                 for i in range(r)]
    q0 = Mat.from_rows(seed_rows, cols=r)
    total = Mat.zeros(r, r)
    for g in group:
        total = total + g.transpose() @ q0 @ g
    return fold_upper(total)


def _admissible_degrees(q: int, e: int) -> list[int]:
    return [n for n in range(1, q) if (q - 1) % n == 0 and gcd(n, e) == 1]


def random_split_config(rng: random.Random) -> dict:
    """Split datum of rank 1..4: trivial action, random invariant form and
    degree n <= 12."""
    r = rng.choice((1, 2, 3, 4))
    q = rng.choice(_DATUM_QS)
    n = rng.choice(_admissible_degrees(q, 1))
    ident = Mat.identity(r)
    q_upper = invariant_q_upper(rng, (ident,), r)
    return {"rank": r, "inertia_gens": [], "frobenius": ident.to_rows(),
            "q": q, "n": n, "Q_upper": q_upper.to_rows()}


def random_config(rng: random.Random, *, ranks=(1, 2, 3)) -> dict:
    """Random valid datum configuration.

    Structures drawn: split, unramified (finite-order Frobenius only),
    abelian ramified (commuting inertia and Frobenius), and dihedral
    (Frobenius inverting a cyclic inertia).  Everything is conjugated by
    a random unimodular matrix, and the form is produced by averaging a
    random seed form over the group.  The degree n is drawn from the
    divisors of q - 1 prime to e, so `validate` accepts every draw.
    """
    r = rng.choice(list(ranks))
    q = rng.choice(_DATUM_QS)
    ident = Mat.identity(r)
    style = rng.choice(["split", "unramified", "abelian", "dihedral"])
    inertia: list[Mat]
    if style == "split":
        inertia, frob = [], ident
    elif style == "unramified":
        inertia, frob = [], random_signed_permutation(rng, r)
    elif style == "abelian":
        sigma = random_signed_permutation(rng, r)
        inertia = [sigma]
        # a power of sigma commutes with it and keeps the group abelian
        frob = sigma if rng.random() < 0.5 else ident
        if rng.random() < 0.5:
            frob = frob @ sigma
    else:  # dihedral: frobenius conjugates the cycle to its inverse
        if r == 1:
            inertia, frob = [Mat.from_rows([[-1]])], ident
        else:
            cycle, rev = _cycle_with_reverser(r, rng.randint(2, r))
            inertia, frob = [cycle], rev
    p = random_unimodular(rng, r)
    base = {"rank": r, "inertia_gens": [g.to_rows() for g in inertia],
            "frobenius": frob.to_rows(), "q": q,
            "n": 1, "Q_upper": Mat.zeros(r, r).to_rows()}
    probe = validate(base)
    base["n"] = rng.choice(_admissible_degrees(q, probe.e))
    if rng.random() < 0.4:
        # scaled identity form; invariant since the generators above
        # are all signed permutations before the base change
        q_upper = Mat.identity(r).scale(rng.randint(1, 3))
    else:
        q_upper = invariant_q_upper(rng, probe.group_elements, r)
    base["Q_upper"] = q_upper.to_rows()
    return conjugated_config(base, p)


def random_valid_datum(rng: random.Random, **kw) -> CoverDatum:
    return validate(random_config(rng, **kw))


def random_tame_module(rng: random.Random) -> TameModule:
    """Random tame module of order at most 1000 over q in {3, 5, 7}, built
    from scalar, shift, and mixed blocks.

    Block types: trivial sigma with a random invertible phi; scalar sigma
    of order dividing both e and q - 1; a k-cycle shift with phi acting
    by index multiplication by q (which conjugates the shift to its q-th
    power).  The presentation is then hidden behind a random unimodular
    change of basis.
    """
    q = rng.choice((3, 5, 7))
    candidates = [e for e in (1, 2, 3, 4, 5, 6) if gcd(e, q) == 1]
    e = rng.choice(candidates)
    blocks: list[tuple[int, list[list[int]], list[list[int]]]] = []
    order = 1
    for _ in range(rng.randint(1, 3)):
        d = rng.choice([2, 3, 4, 5, 7, 8, 9])
        if gcd(d, q) != 1 or gcd(d, e) != 1:
            # keep the exponent prime to e so a counting degree n exists
            continue
        style = rng.choice(["plain", "scalar", "shift"])
        if style == "shift":
            k = rng.choice([k for k in (2, 3) if e % k == 0 and gcd(q, k) == 1] or [1])
        else:
            k = 1
        if order * d ** k > 1000:
            continue
        order *= d ** k
        if style == "plain" or k == 1 and style == "shift":
            units = [u for u in range(1, d) if gcd(u, d) == 1]
            sigma_b = [[1]]
            phi_b = [[rng.choice(units)]]
        elif style == "scalar":
            units = [u for u in range(1, d) if gcd(u, d) == 1]
            good = [u for u in units if pow(u, e, d) == 1 and pow(u, q - 1, d) == 1]
            sigma_b = [[rng.choice(good or [1])]]
            phi_b = [[rng.choice(units)]]
        else:
            sigma_b = [[1 if (i - 1) % k == j else 0 for j in range(k)]
                       for i in range(k)]
            phi_b = [[1 if (i * pow(q, -1, k)) % k == j else 0 for j in range(k)]
                     for i in range(k)] if k > 1 else [[1]]
        blocks.append((d, sigma_b, phi_b))
    if not blocks:
        d = next(d for d in (2, 3, 5, 7, 11) if gcd(d, q * e) == 1)
        blocks = [(d, [[1]], [[1]])]
    size = sum(len(s) for _, s, _ in blocks)
    rel_cols = []
    sigma_rows = [[0] * size for _ in range(size)]
    phi_rows = [[0] * size for _ in range(size)]
    at = 0
    for d, sigma_b, phi_b in blocks:
        k = len(sigma_b)
        for i in range(k):
            col = [0] * size
            col[at + i] = d
            rel_cols.append(col)
            for j in range(k):
                sigma_rows[at + i][at + j] = sigma_b[i][j]
                phi_rows[at + i][at + j] = phi_b[i][j]
        at += k
    p = random_unimodular(rng, size)
    p_inv = matrix_inverse_unimodular(p)
    rel = Sublattice.from_matrix(p @ Mat.from_columns(rel_cols, rows=size))
    sigma = p @ Mat.from_rows(sigma_rows, cols=size) @ p_inv
    phi = p @ Mat.from_rows(phi_rows, cols=size) @ p_inv
    return TameModule(rel, sigma, phi, e, q)
