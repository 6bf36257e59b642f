#!/usr/bin/env python3
"""Recompute the brute-force reference values frozen in the test suite.

Prints the stabilized packet group of each bundled config and the
per-level values of the two small data, all recomputed by elementwise
enumeration, so the constants in tests/conftest.py can be audited.  Every
level of each trace is enumerated in (Z/M)^r, M the n-primary part of
q**m - 1 (found by repeated division), and the per-level tables in the
full (Z/N)^r.  Exits 1, naming the config and the level, when an
enumerated group differs from the main path's: from the level trace of
`packet_group`, or from `packet_group_level` for the per-level tables.

    python3 scripts/regen_expected.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from packetgroup import oracle
from packetgroup.datum import validate
from packetgroup.residue import packet_group, packet_group_level
from packetgroup.sharp import y_gamma_sharp, y_sharp

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def brute_level(d, modulus):
    return oracle.brute_level_group(d, y_gamma_sharp(d), y_sharp(d), modulus)


def main() -> int:
    mismatches = []

    def compare(name, m, enumerated, main_path, source):
        if enumerated != main_path.invariant_factors:
            mismatches.append(f"{name} level {m}: enumeration {enumerated}, "
                              f"{source} {main_path.invariant_factors}")

    print("BUNDLED_EXPECTED_S = {")
    for path in sorted(CONFIG_DIR.glob("*.json")):
        d = validate(json.loads(path.read_text()))
        group, trace = packet_group(d)
        confirmations = []
        for m, traced in trace:
            modulus = oracle.n_primary_part(d.q ** m - 1, d.n)
            enumerated = brute_level(d, modulus).invariant_factors
            confirmations.append((m, enumerated))
            compare(path.stem, m, enumerated, traced, "trace")
        print(f"    {path.stem!r}: {group.invariant_factors!r},"
              f"  # enumeration: {confirmations}")
    print("}")

    for name in ("swap_q3_n2", "ramified_r1_q7_n3"):
        d = validate(json.loads((CONFIG_DIR / f"{name}.json").read_text()))
        table = {m: brute_level(d, d.q ** m - 1).invariant_factors for m in (1, 2, 3, 4)}
        print(f"{name} per-level: {table}")
        for m, enumerated in table.items():
            compare(name, m, enumerated, packet_group_level(d, m), "packet_group_level")

    for line in mismatches:
        print(f"mismatch: {line}", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
