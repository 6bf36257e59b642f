import random
import time

import pytest

from packetgroup import residue
from packetgroup.cohomology import residue_sharp_sequence
from packetgroup.datum import conjugated_config, validate
from packetgroup.linalg import LatticeError, Mat, Sublattice, quotient_invariants
from packetgroup.oracle import n_primary_part
from packetgroup.randomgen import invariant_q_upper, random_unimodular, random_valid_datum
from packetgroup.residue import (LevelError, LevelGroup, NotStabilized,
                                 StabilizationPolicy, invariant_points, iota_image,
                                 n_primary_modulus, packet_group, packet_group_level)
from packetgroup.sharp import radical_of_induced_form, y_gamma_sharp, y_sharp

from conftest import (BUNDLED_EXPECTED_S, RAMIFIED_CYCLE3, RAMIFIED_R1_LEVEL_S,
                      SWAP_LEVEL_S, direct_sum, load_config, ramified_sums,
                      random_unramified_config)


def test_invariant_points_swap_level1():
    d = validate(load_config("swap_q3_n2"))
    lg = invariant_points(d, Sublattice.full(2), 1)
    assert lg.modulus == 2
    assert lg.lattice == Sublattice.from_columns(2, [[1, 1], [0, 2]])
    assert lg.order == 2


def test_invariant_points_split_levels():
    d = validate(load_config("split_r2_q5_n4"))
    # level 1: everything is fixed
    lg = invariant_points(d, Sublattice.full(2), 1)
    assert lg.lattice.is_full and lg.order == (d.q - 1) ** 2
    # higher level: coordinate-wise (q-1)-torsion
    lg = invariant_points(d, Sublattice.full(2), 2)
    n_mod = d.q ** 2 - 1
    step = n_mod // (d.q - 1)
    assert lg.lattice == Sublattice.from_columns(
        2, [[step, 0], [0, step], [n_mod, 0], [0, n_mod]])
    assert lg.order == (d.q - 1) ** 2


def test_invariant_points_ramified_r1():
    d = validate(load_config("ramified_r1_q7_n3"))
    lg = invariant_points(d, Sublattice.full(1), 1)
    assert lg.modulus == 6
    assert lg.lattice == Sublattice.from_columns(1, [[3]])
    assert lg.order == 2


def test_invariant_points_requires_stable_lattice():
    d = validate(load_config("swap_q3_n2"))
    with pytest.raises(LatticeError):
        invariant_points(d, Sublattice.from_columns(2, [[1, 0]]), 1)
    # Frobenius-stable but not inertia-stable: the inertia restriction refuses
    d = validate(load_config("s3_ramified_q7_n2"))
    with pytest.raises(LatticeError):
        invariant_points(d, Sublattice.from_columns(2, [[1, 1], [0, 2]]), 1)


def test_a_call_that_raises_raises_again():
    # nothing is kept from a call that raises; the level is checked before
    # any lattice work, so level 0 on an unstable lattice is a LevelError
    d = validate(load_config("swap_q3_n2"))
    unstable = Sublattice.from_columns(2, [[1, 0]])
    for _ in range(2):
        with pytest.raises(LatticeError, match="not stable"):
            invariant_points(d, unstable, 1)
        with pytest.raises(LatticeError, match="not stable"):
            iota_image(d, unstable, 2)
        with pytest.raises(LevelError):
            invariant_points(d, unstable, 0)
        with pytest.raises(LevelError):
            iota_image(d, y_sharp(d), 0)
    assert invariant_points(d, y_sharp(d), 1) == \
        invariant_points(validate(load_config("swap_q3_n2")), y_sharp(d), 1)


def test_iota_image_examples():
    d = validate(load_config("swap_q3_n2"))
    # full sublattice: image equals the invariant points themselves
    assert iota_image(d, Sublattice.full(2), 1).lattice == \
        invariant_points(d, Sublattice.full(2), 1).lattice
    # gamma-sharp at level 1, derived by enumeration at N = 2
    img = iota_image(d, y_gamma_sharp(d), 1)
    assert img.lattice == Sublattice.from_columns(2, [[1, 1], [0, 2]])

    split = validate(load_config("split_r2_q5_n4"))
    ny = Sublattice.scaled(2, split.n)
    img = iota_image(split, ny, 1)
    assert img.lattice == Sublattice.from_columns(2, [[4, 0], [0, 4]])


def test_packet_levels_frozen_values(bundled_configs):
    swap = validate(bundled_configs["swap_q3_n2"])
    for m, factors in SWAP_LEVEL_S.items():
        assert packet_group_level(swap, m).invariant_factors == factors
    ram = validate(bundled_configs["ramified_r1_q7_n3"])
    for m, factors in RAMIFIED_R1_LEVEL_S.items():
        assert packet_group_level(ram, m).invariant_factors == factors


def test_packet_group_bundled(bundled_configs):
    for name, cfg in bundled_configs.items():
        d = validate(cfg)
        group, trace = packet_group(d)
        assert group.invariant_factors == BUNDLED_EXPECTED_S[name], name
        assert len(trace) >= 3
        assert [m for m, _ in trace][:2] == [d.gamma_exponent, 2 * d.gamma_exponent]


def test_ramified_cycle3_packet_group():
    d = validate(RAMIFIED_CYCLE3)
    assert (d.e, d.group_order, d.gamma_exponent) == (3, 6, 6)
    _, trace = packet_group(d)
    assert [(m, g.invariant_factors) for m, g in trace] == [(6, (2,)), (12, (2,)), (24, (2,))]
    rng = random.Random(303)
    for _ in range(3):
        moved = conjugated_config(RAMIFIED_CYCLE3, random_unimodular(rng, 3))
        assert packet_group(validate(moved))[0].invariant_factors == (2,)


@pytest.mark.parametrize("change, expected", [
    ({"Q_upper": [[2, 0, 0], [0, 2, 0], [0, 0, 2]]}, ()),
    ({"frobenius": [[1, 0, 0], [0, 0, 1], [0, 1, 0]]}, ()),
    ({"q": 17, "n": 4}, (2,)),
    ({"q": 17, "n": 16}, (2,)),
], ids=["form_2I", "frobenius_plus_transposition", "q17_n4", "q17_n16"])
def test_ramified_cycle3_variants(change, expected):
    group, _ = packet_group(validate(RAMIFIED_CYCLE3 | change))
    assert group.invariant_factors == expected


def test_packet_group_split_and_degree_one():
    split = validate(load_config("split_r2_q5_n4"))
    group, trace = packet_group(split)
    assert group.is_trivial
    # with a single-agreement policy the split datum needs only one level
    group, trace = packet_group(split, StabilizationPolicy(stable_repeats=1))
    assert group.is_trivial and len(trace) == 1
    cfg = load_config("minus_one_r2_q5_n4") | {"n": 1}
    group, _ = packet_group(validate(cfg))
    assert group.is_trivial


def test_not_stabilized():
    d = validate(load_config("swap_q3_n2"))
    with pytest.raises(NotStabilized) as exc:
        packet_group(d, StabilizationPolicy(start_level=1, max_level=2))
    assert len(exc.value.trace) == 2


def test_first_level_above_max_level():
    d = validate(load_config("rot4_r2_q5_n4"))
    for policy, first in ((StabilizationPolicy(start_level=8, max_level=4), 8),
                          (StabilizationPolicy(max_level=2), d.gamma_exponent)):
        with pytest.raises(LevelError, match=f"first level {first} is above max_level"):
            packet_group(d, policy)


def test_policy_validation():
    with pytest.raises(LevelError):
        StabilizationPolicy(start_level=0)
    with pytest.raises(LevelError):
        StabilizationPolicy(stable_repeats=0)
    with pytest.raises(LevelError):
        StabilizationPolicy(max_level=0)


def test_level_group_order():
    d = validate(load_config("swap_q3_n2"))
    lg = invariant_points(d, Sublattice.full(2), 2)
    assert lg.order == 8
    with pytest.raises(LatticeError):
        LevelGroup(level=1, modulus=4,
                   lattice=Sublattice.from_columns(2, [[1, 0], [0, 3]]))


def test_torsion_divides_degree():
    rng = random.Random(99)
    for _ in range(30):
        d = random_valid_datum(rng)
        group, trace = packet_group(d)
        assert all(d.n % f == 0 for f in group.invariant_factors)
        # each traced level is the quotient of the one-shot images
        big, small = y_gamma_sharp(d), y_sharp(d)
        for m, level_group in trace:
            assert level_group == quotient_invariants(
                iota_image(d, big, m).lattice, iota_image(d, small, m).lattice), m


def test_level_compatibility_embedding():
    # for m | m', the level-m subgroup is the intersection of the level-m'
    # subgroup with the embedded mu_{q^m - 1} torsion
    rng = random.Random(555)
    data = [validate(load_config(name)) for name in
            ("swap_q3_n2", "ramified_r1_q7_n3", "rot4_r2_q5_n4")]
    data += [random_valid_datum(rng, ranks=(1, 2)) for _ in range(10)]
    for d in data:
        for sub in (Sublattice.full(d.rank), y_sharp(d), y_gamma_sharp(d)):
            for m, mp in ((1, 2), (2, 4), (1, 3)):
                small = invariant_points(d, sub, m)
                big = invariant_points(d, sub, mp)
                mult = big.modulus // small.modulus
                k = sub.rank
                embedded = Sublattice.from_columns(
                    k, [[mult * x for x in small.lattice.basis.col(j)]
                        for j in range(small.lattice.rank)]
                    + [[big.modulus if i == j else 0 for i in range(k)]
                       for j in range(k)])
                image_of_torsion = Sublattice.from_columns(
                    k, [[mult if i == j else 0 for i in range(k)] for j in range(k)])
                meet = big.lattice.meet(image_of_torsion)
                assert meet == embedded, (d.q, d.n, m, mp)


def test_base_change_invariance_spot():
    rng = random.Random(123)
    cfg = load_config("minus_one_r2_q5_n4")
    base, _ = packet_group(validate(cfg))
    for _ in range(5):
        p = random_unimodular(rng, 2)
        moved, _ = packet_group(validate(conjugated_config(cfg, p)))
        assert moved == base


def test_rank_24_cycle_budget():
    # Frobenius the r-cycle e_i -> e_(i+1), no inertia, q = 5, n = 4: the
    # levels reach m = 4r, and the images are spanned modulo the 2-primary
    # part M of 5^m - 1 (2^(2 + v_2(m)), 8 bits at r = 24), so no entry
    # outgrows M and 5^m - 1 is never formed.  The sharp
    # lattices are congruences mod n spanned modulo n; the rank-32 seed-2
    # form took about 100 s when they came from an exact Smith form.
    cases = [(24, 0, ())] + [(32, seed, (2,) if seed in (2, 3) else (4,)) for seed in range(8)]
    for r, seed, want in cases:
        cycle = Mat.from_rows([[1 if i == (j + 1) % r else 0 for j in range(r)]
                               for i in range(r)])
        powers = [Mat.identity(r)]
        while len(powers) < r:
            powers.append(powers[-1] @ cycle)
        form = invariant_q_upper(random.Random(seed), tuple(powers), r)
        d = validate({"rank": r, "inertia_gens": [], "frobenius": cycle.to_rows(),
                      "q": 5, "n": 4, "Q_upper": form.to_rows()})
        start = time.perf_counter()
        group, trace = packet_group(d)
        assert time.perf_counter() - start < 10, (r, seed)
        assert [(m, g.invariant_factors) for m, g in trace] == \
            [(r, want), (2 * r, want), (4 * r, want)], (r, seed)
        assert group.invariant_factors == want


def _elementary_divisors(factors):
    """The prime powers of a finite abelian group, sorted: a product of
    groups has the union of its factors' prime powers."""
    out = []
    for d in factors:
        p = 2
        while d > 1:
            pk = 1
            while d % p == 0:
                d //= p
                pk *= p
            if pk > 1:
                out.append(pk)
            p += 1
    return sorted(out)


FIVE_FOUR = ("split_r2_q5_n4", "minus_one_r2_q5_n4", "rot4_r2_q5_n4")


@pytest.mark.parametrize("names", [
    FIVE_FOUR,
    (FIVE_FOUR * 3)[:8],
    (FIVE_FOUR * 6)[:16],
    ("s3_ramified_q7_n2",) * 2,
    ("s3_ramified_q7_n2",) * 4,
    ("swap_q3_n2",) * 16,
    ("ramified_r1_q7_n3",) * 4,
], ids=lambda names: f"{names[0]}-x{len(names)}" if len(set(names)) == 1
   else f"q5_n4-x{len(names)}")
def test_direct_sum_splits_the_packet_group(names):
    # S(D1 + ... + Dk) = S(D1) x ... x S(Dk) level by level, in a basis
    # that hides the blocks from every normal form.  Both sides run through
    # the same linalg as the main path, so this is a metamorphic check, not
    # an independent one; it reaches ranks (to 32) that the oracle cannot.
    parts = [load_config(name) for name in names]
    total = direct_sum(parts)
    r = total["rank"]
    rng = random.Random(r)
    d = validate(conjugated_config(total, random_unimodular(rng, r, ops=3 * r)))
    part_data = {name: validate(load_config(name)) for name in set(names)}
    for m in (1, 2, 3, 4):
        each = {name: packet_group_level(pd, m).invariant_factors
                for name, pd in part_data.items()}
        want = sorted(x for name in names for x in _elementary_divisors(each[name]))
        assert _elementary_divisors(packet_group_level(d, m).invariant_factors) == want, m


def _prime_powers(bound):
    """Every prime power q <= bound."""
    primes = [p for p in range(2, bound + 1) if all(p % k for k in range(2, p))]
    return sorted(p ** a for p in primes for a in range(1, bound.bit_length())
                  if p ** a <= bound)


def test_n_primary_modulus_matches_repeated_division():
    cases = 0
    for q in _prime_powers(125):
        for n in (n for n in range(1, q) if (q - 1) % n == 0):
            for m in range(1, 65):
                assert n_primary_modulus(q, n, m) == n_primary_part(q ** m - 1, n), (q, n, m)
                cases += 1
    assert cases > 10 ** 4


def test_n_primary_levels_match_the_full_modulus(bundled_configs):
    # the loop takes a level modulo the n-primary part M of N = q**m - 1;
    # the one-shot images are taken modulo N itself, so their quotient
    # covers the primes of N that the loop never sees
    rng = random.Random(5)
    data = [validate(cfg) for cfg in bundled_configs.values()]
    data.append(validate(RAMIFIED_CYCLE3))
    data += [random_valid_datum(rng, ranks=(1, 2, 3, 4)) for _ in range(300)]
    data += ramified_sums(random.Random(55), 12)
    nontrivial = 0
    for d in data:
        big, small = y_gamma_sharp(d), y_sharp(d)
        for m in (1, 2, 3, 4, 6, 8, 12):
            level_group = packet_group_level(d, m)
            assert level_group == quotient_invariants(
                iota_image(d, big, m).lattice, iota_image(d, small, m).lattice), (d, m)
            nontrivial += not level_group.is_trivial
    assert nontrivial > 100


def test_packet_group_works_modulo_the_n_primary_part(monkeypatch, bundled_configs):
    # the loop never forms q**m - 1, and evaluates each distinct modulus
    # once: for odd n, M is the same at m0, 2*m0 and 4*m0
    def refuse(q, m):
        raise AssertionError("level_modulus called")

    monkeypatch.setattr(residue, "level_modulus", refuse)
    for cfg in bundled_configs.values():
        packet_group(validate(cfg))
    packet_group(validate(RAMIFIED_CYCLE3))

    calls = []
    congruence = residue.congruence_lattice

    def counted(*args):
        calls.append(args[-1])
        return congruence(*args)

    monkeypatch.setattr(residue, "congruence_lattice", counted)
    for name, want in (("ramified_r1_q7_n3", [3, 3]),
                       ("swap_q3_n2", [8, 8, 16, 16, 32, 32])):
        calls.clear()
        _, trace = packet_group(validate(bundled_configs[name]))
        assert len(trace) == 3
        assert calls == want, name


# the entry points that read the datum's level-free data, each on the
# lattices it is given fresh
ENTRY_POINTS = {
    "invariant_points": lambda d: [invariant_points(d, sub, 1) for sub in _lattices(d)],
    "iota_image": lambda d: [iota_image(d, sub, 2) for sub in _lattices(d)],
    "packet_group_level": lambda d: packet_group_level(d, 1),
    "packet_group": packet_group,
    "radical_of_induced_form": lambda d: radical_of_induced_form(d, y_sharp(d), y_sharp(d)),
    "residue_sharp_sequence": lambda d: residue_sharp_sequence(d, d.gamma_exponent),
}


def _lattices(d):
    return Sublattice.full(d.rank), y_sharp(d), y_gamma_sharp(d)


def test_entry_points_do_not_depend_on_call_order(bundled_configs):
    # each entry point gives on a fresh datum what it gives after the other
    # five ran on the same datum, in forward and in reverse order
    rng = random.Random(11)
    configs = list(bundled_configs.values()) + [RAMIFIED_CYCLE3]
    configs += [random_unramified_config(rng) for _ in range(40)]
    for cfg in configs:
        fresh = {name: f(validate(cfg)) for name, f in ENTRY_POINTS.items()}
        for name, f in ENTRY_POINTS.items():
            others = [g for other, g in ENTRY_POINTS.items() if other != name]
            for order in (others, others[::-1]):
                d = validate(cfg)
                for g in order:
                    g(d)
                assert f(d) == fresh[name], (cfg, name)
