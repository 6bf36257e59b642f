import dataclasses
import json
from pathlib import Path

import pytest

from packetgroup.datum import CoverDatum, validate

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


@pytest.fixture(scope="session")
def bundled_configs() -> dict:
    return {p.stem: json.loads(p.read_text())
            for p in sorted(CONFIG_DIR.glob("*.json"))}
