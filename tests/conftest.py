import dataclasses
import json
import random
from pathlib import Path

import pytest

from packetgroup.datum import (CoverDatum, RamificationGcdError, conjugated_config,
                               validate)
from packetgroup.linalg import Mat, fixed_point_conditions
from packetgroup.randomgen import (invariant_q_upper, random_config,
                                   random_signed_permutation, random_unimodular)

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"

# Stabilized packet groups of the bundled data, derived by brute-force
# enumeration (see scripts/regen_expected.py).
BUNDLED_EXPECTED_S = {
    "split_r2_q5_n4": (),
    "swap_q3_n2": (),
    "ramified_r1_q7_n3": (),
    "minus_one_r2_q5_n4": (2, 2),
    "rot4_r2_q5_n4": (2,),
    "s3_ramified_q7_n2": (),
}

# Per-level values for the two small bundled data, derived by enumerating
# (Z/N)^r elementwise; note the odd/even oscillation for the swap datum.
SWAP_LEVEL_S = {1: (2,), 2: (), 3: (2,), 4: ()}
RAMIFIED_R1_LEVEL_S = {1: (), 2: (), 3: (), 4: ()}

# A ramified datum with a nontrivial packet group: inertia the 3-cycle on
# Z^3 and Frobenius minus the transposition inverting it, so e = 3 and
# |Gamma| = 6; S = Z/2, checked against the oracle at levels 1 and 2.  It is
# kept out of configs/, whose files are the benchmark's oracle inputs.
RAMIFIED_CYCLE3 = {"rank": 3, "inertia_gens": [[[0, 0, 1], [1, 0, 0], [0, 1, 0]]],
                   "frobenius": [[-1, 0, 0], [0, 0, -1], [0, -1, 0]],
                   "q": 5, "n": 4, "Q_upper": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}


def load_config(name: str) -> dict:
    return json.loads((CONFIG_DIR / f"{name}.json").read_text())


def gcd_violating_datum(config: dict) -> CoverDatum:
    """The datum of `config` with its degree n kept even where gcd(n, e) > 1.

    `validate` rejects such data, but n enters it only through (q - 1) % n
    and gcd(n, e), and CoverDatum runs no checks of its own: validating at
    n = 1 and then replacing n gives the datum the hypothesis excludes.
    """
    return dataclasses.replace(validate(config | {"n": 1}), n=config["n"])


def random_unramified_config(rng: random.Random) -> dict:
    """An unramified datum of rank 1..4 whose packet group is often nontrivial.

    Frobenius is a random signed permutation, q is 5 or 13 and n is 2 or 4;
    the form and the base change follow `random_config`.  Of 300 draws from
    random.Random(4), 54 have S != 1 (Z/2 x39, (Z/2)^2 x14, (Z/2)^3 x1),
    where `random_config` gives S != 1 about once in 200 draws.
    """
    r = rng.choice((1, 2, 3, 4))
    q = rng.choice((5, 13))
    n = rng.choice((2, 4))
    frob = random_signed_permutation(rng, r)
    base = {"rank": r, "inertia_gens": [], "frobenius": frob.to_rows(),
            "q": q, "n": n, "Q_upper": Mat.zeros(r, r).to_rows()}
    if rng.random() < 0.4:
        q_upper = Mat.identity(r).scale(rng.randint(1, 3))
    else:
        q_upper = invariant_q_upper(rng, validate(base).group_elements, r)
    base["Q_upper"] = q_upper.to_rows()
    return conjugated_config(base, random_unimodular(rng, r))


def permutation_group_config(family: str, r: int) -> dict:
    """B_r (signed permutations) or S_r on Z^r, all of it as inertia."""
    def perm(images, signs=None):
        rows = [[0] * r for _ in range(r)]
        for i, p in enumerate(images):
            rows[p][i] = signs[i] if signs else 1
        return rows

    cycle = perm([(i + 1) % r for i in range(r)])
    gens = [perm([1, 0] + list(range(2, r))), cycle]
    if family == "B":
        gens.append(perm(list(range(r)), [-1] + [1] * (r - 1)))
    return {"rank": r, "inertia_gens": gens, "frobenius": cycle,
            "q": 23, "n": 11, "Q_upper": perm(list(range(r)))}


def twisted_stack(config: dict) -> Mat:
    """Each inertia generator and q times Frobenius, minus I, stacked: the
    twisted fixed-point conditions on the whole of Z^rank."""
    mats = [Mat.from_rows(g) for g in config["inertia_gens"]]
    mats.append(Mat.from_rows(config["frobenius"]).scale(config["q"]))
    return fixed_point_conditions(mats, config["rank"])


def direct_sum(configs):
    """The block-diagonal sum of data with one (q, n): each part's inertia
    generators act on its block, and Frobenius and the form are blockwise."""
    r = sum(c["rank"] for c in configs)
    offsets = [sum(c["rank"] for c in configs[:i]) for i in range(len(configs))]

    def blocks(mats):
        rows = []
        for off, a in zip(offsets, mats):
            rows += [[0] * off + list(row) + [0] * (r - off - len(row)) for row in a]
        return rows

    def ident(k):
        return [[int(i == j) for j in range(k)] for i in range(k)]

    gens = [blocks([g if j == i else ident(c["rank"]) for j, c in enumerate(configs)])
            for i, part in enumerate(configs) for g in part["inertia_gens"]]
    return {"rank": r, "inertia_gens": gens,
            "frobenius": blocks([c["frobenius"] for c in configs]),
            "q": configs[0]["q"], "n": configs[0]["n"],
            "Q_upper": blocks([c["Q_upper"] for c in configs])}


def ramified_sums(rng, count):
    """RAMIFIED_CYCLE3 (S = Z/2) plus random_config draws moved to its q = 5
    and n = 4, under a random base change; draws with gcd(4, e) > 1 are
    skipped, since validate refuses them."""
    sums = []
    while len(sums) < count:
        part = random_config(rng, ranks=(1, 2)) | {"q": 5, "n": 4}
        total = direct_sum([RAMIFIED_CYCLE3, part])
        try:
            sums.append(validate(conjugated_config(
                total, random_unimodular(rng, total["rank"]))))
        except RamificationGcdError:
            continue
    return sums


@pytest.fixture(scope="session")
def bundled_configs() -> dict:
    return {p.stem: json.loads(p.read_text())
            for p in sorted(CONFIG_DIR.glob("*.json"))}
