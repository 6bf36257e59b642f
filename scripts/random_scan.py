#!/usr/bin/env python3
"""Scan random valid data and histogram the resulting packet groups, then
count per structure (split, unramified, abelian or nonabelian ramified) the
data with a nontrivial packet group.

Usage: python scripts/random_scan.py [COUNT] [SEED]
"""

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import random

from packetgroup.datum import CoverDatum
from packetgroup.linalg import Mat
from packetgroup.randomgen import random_valid_datum
from packetgroup.residue import packet_group

STRUCTURES = ("split", "unramified", "abelian ramified", "nonabelian ramified")


def structure(d: CoverDatum) -> str:
    if d.e == 1:
        return "split" if d.frobenius == Mat.identity(d.rank) else "unramified"
    gens = d.generators
    if all(a @ b == b @ a for a in gens for b in gens):
        return "abelian ramified"
    return "nonabelian ramified"


def main() -> None:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    rng = random.Random(seed)
    hist: Counter = Counter()
    examples = {}
    per_structure: Counter = Counter()
    nontrivial: Counter = Counter()
    for _ in range(count):
        d = random_valid_datum(rng, ranks=(1, 2, 3, 4))
        group, trace = packet_group(d)
        key = group.invariant_factors
        hist[key] += 1
        kind = structure(d)
        per_structure[kind] += 1
        nontrivial[kind] += bool(key)
        if key not in examples:
            examples[key] = (d.rank, d.q, d.n, d.e, [m for m, _ in trace])
    print(f"{count} random data (seed {seed}):")
    for key, cnt in sorted(hist.items()):
        r, q, n, e, levels = examples[key]
        label = "1" if not key else " + ".join(f"Z/{d}" for d in key)
        print(f"  S = {label:<12} x{cnt:<5} e.g. r={r} q={q} n={n} e={e} "
              f"levels={levels}")
    print("per structure (data, with S != 1):")
    for kind in STRUCTURES:
        print(f"  {kind:<20} {per_structure[kind]:>5} {nontrivial[kind]:>5}")


if __name__ == "__main__":
    main()
