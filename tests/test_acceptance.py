"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is exact; the timed criteria assert their wall
clock budgets.
"""

import dataclasses
import json
import random
import time
from math import gcd

from packetgroup import oracle
from packetgroup.cli import main as cli_main
from packetgroup.cohomology import (counting_checks, exactness_failures, h0_h1,
                                    image_of_connecting, residue_sharp_sequence)
from packetgroup.datum import conjugated_config, validate
from packetgroup.linalg import Mat, Sublattice
from packetgroup.randomgen import (random_config, random_split_config,
                                   random_tame_module, random_unimodular,
                                   random_valid_datum)
from packetgroup.residue import packet_group, packet_group_level
from packetgroup.sharp import radical_of_induced_form, y_gamma_sharp, y_sharp
from packetgroup.symbols import (TameField, elt_mul, elt_neg, hilbert,
                                 split_center_image, steinberg_violations)

from conftest import BUNDLED_EXPECTED_S, CONFIG_DIR, gcd_violating_datum

ORACLE_CAP = 10 ** 6


def report(criterion: str, ok: bool) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_split_packet_groups_trivial():
    """50 randomized split data: the packet group is trivial; < 5 s."""
    rng = random.Random(101)
    start = time.monotonic()
    for _ in range(50):
        cfg = random_split_config(rng)
        group, _ = packet_group(validate(cfg))
        assert group.is_trivial, cfg
    elapsed = time.monotonic() - start
    report(f"criterion 1 (split data trivial, {elapsed:.2f}s)", elapsed < 5.0)


def test_criterion_02_oracle_equivalence_bundled(bundled_configs):
    """Main path agrees with brute force on every bundled datum; < 60 s."""
    start = time.monotonic()
    for name, cfg in sorted(bundled_configs.items()):
        d = validate(cfg)
        levels = sorted({*range(1, 9), d.gamma_exponent, 2 * d.gamma_exponent})
        levels = [m for m in levels
                  if (d.q ** m - 1) ** d.rank <= ORACLE_CAP]
        assert levels, name
        sharp_lat, gamma_lat = y_sharp(d), y_gamma_sharp(d)
        for m in levels:
            n_mod = d.q ** m - 1
            brute_imgs = []
            for sub in (Sublattice.full(d.rank), sharp_lat, gamma_lat):
                from packetgroup.residue import invariant_points, iota_image
                lg = invariant_points(d, sub, m)
                gens = [lg.lattice.basis.col(j) for j in range(lg.lattice.rank)]
                points = oracle.brute_invariant_points(d, sub, m)
                assert oracle.subgroup_from_generators(n_mod, sub.rank, gens) == \
                    points, (name, m)
                img = iota_image(d, sub, m)
                img_gens = [img.lattice.basis.col(j)
                            for j in range(img.lattice.rank)]
                brute_imgs.append(oracle.brute_iota_image(points, sub, n_mod))
                assert oracle.subgroup_from_generators(n_mod, d.rank, img_gens) == \
                    brute_imgs[-1], (name, m)
            level_group = packet_group_level(d, m)
            # the brute quotient reuses the sharp and gamma-sharp images above
            brute = oracle.brute_quotient(n_mod, brute_imgs[2], brute_imgs[1])
            assert level_group == brute, (name, m)
        # radical against brute force
        assert radical_of_induced_form(d, sharp_lat, sharp_lat).is_trivial
        if d.n ** d.rank <= ORACLE_CAP:
            sharp_gens = [sharp_lat.basis.col(j) for j in range(sharp_lat.rank)]
            assert oracle.subgroup_from_generators(d.n, d.rank, sharp_gens) == \
                oracle.brute_radical(d.bilinear.to_rows(), d.n), name
    elapsed = time.monotonic() - start
    report(f"criterion 2 (oracle equivalence, {elapsed:.2f}s)", elapsed < 60.0)


def test_criterion_03_n_torsion_across_suite():
    """Every invariant factor of every computed packet group divides n."""
    rng = random.Random(303)
    checked = 0
    for _ in range(200):
        d = random_valid_datum(rng)
        group, trace = packet_group(d)
        for _, level_group in trace:
            assert all(d.n % f == 0 for f in level_group.invariant_factors), d
        checked += 1
    report(f"criterion 3 (n-torsion over {checked} data)", checked == 200)


def test_criterion_04_base_change_invariance(bundled_configs):
    """50 unimodular conjugations of each bundled datum leave S unchanged."""
    rng = random.Random(404)
    for name, cfg in sorted(bundled_configs.items()):
        base, _ = packet_group(validate(cfg))
        assert base.invariant_factors == BUNDLED_EXPECTED_S[name]
        for _ in range(50):
            p = random_unimodular(rng, cfg["rank"])
            moved, _ = packet_group(validate(conjugated_config(cfg, p)))
            assert moved == base, (name, p)
    report("criterion 4 (base-change invariance, 6 x 50 conjugations)", True)


def test_criterion_05_connecting_surrogate():
    """Exactness and full connecting image for 100 valid data; failures
    observed on data whose degree n shares a factor with e."""
    rng = random.Random(505)
    for _ in range(100):
        d = random_valid_datum(rng, ranks=(1, 2, 3))
        ses = residue_sharp_sequence(d, d.gamma_exponent)
        assert exactness_failures(ses) == (), d
        assert image_of_connecting(ses) == h0_h1(ses.left)[1], d

    # constructed gcd-violating data: hand-built controls plus random draws
    # with n replaced by a divisor of q - 1 sharing a factor with e
    violating = [gcd_violating_datum(cfg) for cfg in (
        {"rank": 2, "inertia_gens": [[[-1, 0], [0, -1]]],
         "frobenius": [[1, 0], [0, 1]], "q": 5, "n": 2,
         "Q_upper": [[0, 1], [0, 0]]},
        {"rank": 2, "inertia_gens": [[[-1, 0], [0, -1]]],
         "frobenius": [[0, 1], [1, 0]], "q": 13, "n": 4,
         "Q_upper": [[1, 0], [0, 1]]},
        {"rank": 1, "inertia_gens": [[[-1]]], "frobenius": [[1]],
         "q": 13, "n": 2, "Q_upper": [[1]]},
    )]
    while len(violating) < 12:
        d = validate(random_config(rng))
        degrees = [n for n in range(2, d.q) if (d.q - 1) % n == 0 and gcd(n, d.e) > 1]
        if degrees:
            violating.append(dataclasses.replace(d, n=rng.choice(degrees)))
    failures = 0
    for d in violating:
        assert gcd(d.n, d.e) > 1
        ses = residue_sharp_sequence(d, d.gamma_exponent)
        if exactness_failures(ses):
            failures += 1
        else:
            surjective = image_of_connecting(ses) == h0_h1(ses.left)[1]
            if not surjective:
                failures += 1
    report(f"criterion 5 (sequence surrogate; {failures}/{len(violating)} "
           "hypothesis-violating data fail)", failures >= 1)


def test_criterion_06_counting_identities():
    """200 random tame modules satisfy all three counting identities; < 30 s."""
    rng = random.Random(606)
    start = time.monotonic()
    for _ in range(200):
        m = random_tame_module(rng)
        n = m.exponent if m.exponent > 1 else 2
        while gcd(n, m.q) != 1 or gcd(n, m.e) != 1:
            n += max(m.exponent, 1)
        rep = counting_checks(m, n)
        assert rep.euler_ok and rep.duality_ok and rep.unramified_factorization_ok, \
            (m, rep)
    elapsed = time.monotonic() - start
    report(f"criterion 6 (counting identities, {elapsed:.2f}s)", elapsed < 30.0)


def test_criterion_07_radical_trivial():
    """Radical of the induced pairing is trivial on 100 random instances,
    cross-checked by brute force where n^r <= 10^4."""
    rng = random.Random(707)
    brute_checked = 0
    for _ in range(100):
        d = random_valid_datum(rng, ranks=(1, 2, 3, 4))
        sharp_lat = y_sharp(d)
        assert radical_of_induced_form(d, sharp_lat, sharp_lat).is_trivial, d
        if d.n ** d.rank <= 10 ** 4:
            gens = [sharp_lat.basis.col(j) for j in range(sharp_lat.rank)]
            assert oracle.subgroup_from_generators(d.n, d.rank, gens) == \
                oracle.brute_radical(d.bilinear.to_rows(), d.n), d
            brute_checked += 1
    report(f"criterion 7 (radical trivial; {brute_checked} brute checks)",
           brute_checked > 0)


def test_criterion_08_symbol_laws():
    """Symbol laws exhaustively for q in {3,5,7,9,13}; Steinberg for all
    primes q <= 101; < 10 s."""
    start = time.monotonic()
    for q in (3, 5, 7, 9, 13):
        for n in [d for d in range(1, q) if (q - 1) % d == 0]:
            f = TameField(q, n)
            grid = [f.element(v, u) for v in (-2, -1, 0, 1, 2)
                    for u in range(q - 1)]
            for a in grid:
                assert hilbert(f, a, elt_neg(f, a)) == 0
                for b in grid:
                    assert (hilbert(f, a, b) + hilbert(f, b, a)) % n == 0
            small = [f.element(v, u) for v in (-1, 0, 1) for u in range(q - 1)]
            for a in small:
                for a2 in small:
                    prod = elt_mul(f, a, a2)
                    for b in small:
                        assert hilbert(f, prod, b) == \
                            (hilbert(f, a, b) + hilbert(f, a2, b)) % n
    primes = [p for p in range(3, 102) if all(p % d for d in range(2, p))]
    for q in primes:
        for n in [d for d in range(1, q) if (q - 1) % d == 0]:
            assert steinberg_violations(TameField(q, n)) == []
    elapsed = time.monotonic() - start
    report(f"criterion 8 (symbol laws, {elapsed:.2f}s)", elapsed < 10.0)


def test_criterion_09_split_center():
    """Radical equals the sharp image for 100 random split-torus pairings."""
    rng = random.Random(909)
    for _ in range(100):
        q = rng.choice([3, 5, 7, 9, 13, 25])
        divisors = [d for d in range(1, q) if (q - 1) % d == 0]
        n = rng.choice(divisors)
        r = rng.randint(1, 3)
        rows = [[rng.randint(-5, 5) for _ in range(r)] for _ in range(r)]
        rep = split_center_image(TameField(q, n), Mat.from_rows(rows))
        assert rep.equal, (q, n, rows)
    report("criterion 9 (split center radical = sharp image)", True)


def test_criterion_10_cli_determinism(capsys):
    """Byte-identical reports for repeated runs of every CLI command."""
    module_json = json.dumps({"relations": [[3]], "sigma": [[1]],
                              "phi": [[7]], "q": 7, "e": 2})
    import tempfile, os
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        fh.write(module_json)
        module_path = fh.name
    try:
        commands = [
            ["validate", str(CONFIG_DIR / "swap_q3_n2.json"), "--seed", "11"],
            ["sharp", str(CONFIG_DIR / "s3_ramified_q7_n2.json"), "--seed", "11"],
            ["packet-group", str(CONFIG_DIR / "rot4_r2_q5_n4.json"), "--seed", "11"],
            ["cohomology", module_path, "--seed", "11"],
            ["hilbert", "--q", "13", "--n", "4", "--a", "2,5", "--b", "0,7",
             "--seed", "11"],
            ["commutator", "--q", "7", "--n", "3", "--form", "[[1,1],[0,2]]",
             "--s", "[[1,0],[0,2]]", "--t", "[[0,1],[1,1]]", "--seed", "11"],
            ["oracle-check", str(CONFIG_DIR / "swap_q3_n2.json"),
             "--level", "2", "--seed", "11"],
        ]
        for argv in commands:
            outputs = []
            for fmt in ("json", "text"):
                runs = []
                for _ in range(2):
                    code = cli_main(argv + ["--format", fmt])
                    out = capsys.readouterr().out.encode()
                    assert code == 0, argv
                    runs.append(out)
                assert runs[0] == runs[1], argv
                outputs.append(runs[0])
    finally:
        os.unlink(module_path)
    report("criterion 10 (CLI determinism)", True)
