import random
import time
from itertools import product
from math import gcd, lcm, prod

import pytest

from packetgroup.datum import conjugated_config, validate
from packetgroup.linalg import Sublattice, restrict_endomorphism
from packetgroup.oracle import (CapExceeded, NotASubgroup, OracleError, _restrictions, brute_invariant_points,
                                brute_iota_image, brute_level_group, brute_quotient,
                                brute_radical, n_primary_part, subgroup_from_generators)
from packetgroup.randomgen import random_unimodular, random_valid_datum
from packetgroup.residue import invariant_points, packet_group
from packetgroup.sharp import y_gamma_sharp, y_sharp

from conftest import BUNDLED_EXPECTED_S, RAMIFIED_CYCLE3, load_config

# largest N^k at which the per-element reference below is run, on the
# bundled data and on random data
BUNDLED_REFERENCE_SIZE = 2 * 10 ** 4
RANDOM_REFERENCE_SIZE = 2 * 10 ** 3


def _reference_invariant_points(d, sub, m):
    """The per-element definition: apply each action mod N, compare tuples."""
    n_mod = d.q ** m - 1
    actions = _restrictions(d, sub)

    def fixed(vec):
        return all(tuple(sum(a * v for a, v in zip(row, vec)) % n_mod
                         for row in rows) == vec for rows in actions)

    return frozenset(filter(fixed, product(range(n_mod), repeat=sub.rank)))


def _reference_levels(d, sub, bound):
    """Every level whose (Z/N)^k has at most `bound` elements."""
    m = 1
    while (d.q ** m - 1) ** sub.rank <= bound:
        yield m
        m += 1


def _lattices(d):
    return (Sublattice.full(d.rank), y_sharp(d), y_gamma_sharp(d))


def test_brute_invariant_points_examples():
    swap = validate(load_config("swap_q3_n2"))
    assert brute_invariant_points(swap, Sublattice.full(2), 1) == \
        frozenset({(0, 0), (1, 1)})
    split = validate(load_config("split_r2_q5_n4"))
    pts = brute_invariant_points(split, Sublattice.full(2), 1)
    assert len(pts) == 16
    ram = validate(load_config("ramified_r1_q7_n3"))
    assert brute_invariant_points(ram, Sublattice.full(1), 1) == \
        frozenset({(0,), (3,)})


def test_brute_cap():
    split = validate(load_config("split_r2_q5_n4"))
    with pytest.raises(CapExceeded):
        brute_invariant_points(split, Sublattice.full(2), 4, cap=100)


def test_brute_radical_cap_past_the_digit_limit():
    with pytest.raises(CapExceeded, match=r"^n\^k = 1331 exceeds the cap 10$"):
        brute_radical([[0] * 3] * 3, 11, cap=10)
    bits = (10 ** 6000).bit_length()
    with pytest.raises(CapExceeded, match=rf"^n\^k = an integer of {bits} bits exceeds the cap 10$"):
        brute_radical([[0] * 300] * 300, 10 ** 20, cap=10)


def test_brute_quotient_examples():
    full = {(a, b) for a in range(2) for b in range(2)}
    assert brute_quotient(2, full, {(0, 0), (1, 1)}).invariant_factors == (2,)
    assert brute_quotient(2, full, full).is_trivial
    z6 = {(i,) for i in range(6)}
    assert brute_quotient(6, z6, {(0,), (3,)}).invariant_factors == (3,)


def test_brute_quotient_structures():
    z12 = {(i,) for i in range(12)}
    assert brute_quotient(12, z12, {(0,)}).invariant_factors == (12,)
    grid = {(a, b) for a in range(4) for b in (0, 2)}
    assert brute_quotient(4, grid, {(0, 0)}).invariant_factors == (2, 4)
    klein = {(a, b) for a in range(2) for b in range(2)}
    assert brute_quotient(2, klein, {(0, 0)}).invariant_factors == (2, 2)


def test_brute_quotient_errors():
    with pytest.raises(NotASubgroup):
        brute_quotient(4, {(0,), (1,), (2,), (3,)}, {(1,)})
    with pytest.raises(NotASubgroup):
        brute_quotient(4, {(0,), (2,)}, {(0,), (1,)})


def test_brute_quotient_subgroup_check_is_not_quadratic():
    # the 2401-element subgroup of (Z/196)^2 spanned by (4, 0) and (0, 4):
    # an oracle-check on split_r2_q5_n4 at q = 197 meets sets of this size
    group = frozenset((a, b) for a in range(0, 196, 4) for b in range(0, 196, 4))
    start = time.perf_counter()
    assert brute_quotient(196, group, group).is_trivial
    assert time.perf_counter() - start < 1.0
    holed = group - {(4, 8)}
    with pytest.raises(NotASubgroup, match="not closed under addition"):
        brute_quotient(196, holed, {(0, 0)})
    with pytest.raises(NotASubgroup, match="not closed under addition"):
        brute_quotient(196, group, holed)
    # the same at q = 397: 9801 elements, where a copy of the span per
    # generator makes the closure check quadratic
    group = frozenset((a, b) for a in range(0, 396, 4) for b in range(0, 396, 4))
    start = time.perf_counter()
    assert brute_quotient(396, group, group).is_trivial
    assert time.perf_counter() - start < 1.0
    # (Z/396 x 4Z/396)/0 = Z/99 + Z/396: 39204 cosets, of orders up to 396,
    # and 20 abelian groups of that order
    amb = frozenset((a, b) for a in range(396) for b in range(0, 396, 4))
    start = time.perf_counter()
    assert brute_quotient(396, amb, {(0, 0)}).invariant_factors == (99, 396)
    assert time.perf_counter() - start < 1.0


def _invariant_chain(orders):
    """Invariant factors of the sum of Z/c over `orders`, prime by prime."""
    primes = {p for c in orders for p in range(2, c + 1)
              if c % p == 0 and all(p % f for f in range(2, p))}
    chain = [1] * len(orders)
    for p in primes:
        parts = []
        for c in orders:
            part = 1
            while c % (part * p) == 0:
                part *= p
            parts.append(part)
        # the largest p-parts go to the largest factors
        for i, part in enumerate(sorted(parts)):
            chain[i] *= part
    return tuple(sorted(c for c in chain if c > 1))


def _direct_sum(orders, modulus, multipliers):
    """The sum of multipliers[i] (Z/orders[i]) inside (Z/modulus)^s."""
    steps = [modulus // a * b % modulus for a, b in zip(orders, multipliers)]
    return frozenset(tuple(x * step % modulus for x, step in zip(xs, steps))
                     for xs in product(*(range(a) for a in orders)))


def test_brute_quotient_on_direct_sums():
    rng = random.Random(2718)
    choices = (2, 3, 4, 6, 8, 9, 12, 18, 24, 36)
    cases = [((12, 18, 4), (1, 1, 1)), ((12, 18, 4), (12, 18, 4)),
             ((12, 18, 4), (2, 3, 2)), ((36, 12, 6), (4, 6, 1))]
    while len(cases) < 60:
        orders = tuple(rng.choice(choices) for _ in range(rng.randint(1, 3)))
        if prod(orders) <= 5000:
            cases.append((orders, tuple(rng.randrange(1, 2 * a) for a in orders)))
    mixed = 0
    for orders, mults in cases:
        modulus = lcm(*orders)
        amb = _direct_sum(orders, modulus, [1] * len(orders))
        zero = {(0,) * len(orders)}
        assert brute_quotient(modulus, amb, zero).invariant_factors == \
            _invariant_chain(orders), orders
        sub = _direct_sum(orders, modulus, mults)
        assert brute_quotient(modulus, amb, sub).invariant_factors == \
            _invariant_chain([gcd(a, b) for a, b in zip(orders, mults)]), (orders, mults)
        mixed += len(_invariant_chain(orders)) > 1 and modulus % 6 == 0
    assert _invariant_chain((12, 18, 4)) == (2, 12, 36)
    assert mixed > 10


def _bfs_closure(modulus, rank, gens):
    zero = (0,) * rank
    seen, queue = {zero}, [zero]
    for x in queue:
        for g in gens:
            y = tuple((a + b) % modulus for a, b in zip(x, g))
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


def test_subgroup_closure_against_breadth_first_search():
    rng = random.Random(31)
    sizes = set()
    for _ in range(200):
        modulus, rank = rng.randint(1, 12), rng.randint(0, 3)
        gens = [tuple(rng.randrange(-modulus, 2 * modulus) for _ in range(rank))
                for _ in range(rng.randint(0, 3))]
        gens.insert(rng.randint(0, len(gens)), (0,) * rank)
        gens.append(rng.choice(gens))
        rng.shuffle(gens)
        want = _bfs_closure(modulus, rank, gens)
        assert subgroup_from_generators(modulus, rank, gens, cap=len(want)) == want, \
            (modulus, rank, gens)
        # the trivial span forms no element, so no cap refuses it
        if len(want) > 1:
            with pytest.raises(CapExceeded, match="^subgroup closure exceeded the cap "
                                                  f"{len(want) - 1}$"):
                subgroup_from_generators(modulus, rank, gens, cap=len(want) - 1)
        sizes.add(len(want))
    assert subgroup_from_generators(5, 0, [(), ()], cap=1) == frozenset({()})
    assert len(sizes) > 20


def test_brute_radical_examples():
    assert brute_radical([[0, 0], [0, 0]], 2) == \
        frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    assert brute_radical([[1, 0], [0, 1]], 2) == frozenset({(0, 0)})
    assert brute_radical([[0, 1], [1, 0]], 2) == frozenset({(0, 0)})


def test_brute_sharp_and_subgroup_closure():
    sharp = brute_radical([[0, 1], [1, 0]], 2)
    assert sharp == frozenset({(0, 0)})
    sub = subgroup_from_generators(4, 2, [(1, 2)])
    assert sub == frozenset({(0, 0), (1, 2), (2, 0), (3, 2)})


def test_brute_iota_image_swap():
    swap = validate(load_config("swap_q3_n2"))
    for lat, want in ((y_gamma_sharp(swap), {(0, 0), (1, 1)}),
                      (y_sharp(swap), {(0, 0)})):
        points = brute_invariant_points(swap, lat, 1)
        assert brute_iota_image(points, lat, swap.q - 1) == frozenset(want)


def test_brute_invariant_points_match_the_per_element_definition():
    rng = random.Random(1414)
    cases = 0
    for name in sorted(BUNDLED_EXPECTED_S):
        cfg = load_config(name)
        d = validate(conjugated_config(cfg, random_unimodular(rng, cfg["rank"])))
        for sub in _lattices(d):
            for m in _reference_levels(d, sub, BUNDLED_REFERENCE_SIZE):
                assert brute_invariant_points(d, sub, m) == \
                    _reference_invariant_points(d, sub, m), (name, sub, m)
                cases += 1
    for _ in range(100):
        d = random_valid_datum(rng)
        for sub in _lattices(d):
            for m in _reference_levels(d, sub, RANDOM_REFERENCE_SIZE):
                assert brute_invariant_points(d, sub, m) == \
                    _reference_invariant_points(d, sub, m), (d, sub, m)
                cases += 1
    assert cases > 600


def test_restrictions_intertwine_the_basis():
    """B A = s g B for each generator g (s = q for Frobenius, else 1), and A
    agrees with the lattice kernel's restriction."""
    rng = random.Random(2020)
    data = [validate(load_config(name)) for name in sorted(BUNDLED_EXPECTED_S)]
    data += [random_valid_datum(rng) for _ in range(50)]
    cases = 0
    for d in data:
        gens = list(d.inertia_gens) + [d.frobenius]
        scales = [1] * len(d.inertia_gens) + [d.q]
        for sub in _lattices(d):
            mats = _restrictions(d, sub)
            assert len(mats) == len(gens)
            basis = sub.basis.to_rows()
            for g, s, a in zip(gens, scales, mats):
                ba = [[sum(b * a[l][j] for l, b in enumerate(brow)) for j in range(sub.rank)]
                      for brow in basis]
                assert ba == (g @ sub.basis).scale(s).to_rows(), (d, sub)
                assert a == restrict_endomorphism(g, sub).scale(s).to_rows(), (d, sub)
                cases += 1
    assert cases >= 3 * len(data)


@pytest.mark.parametrize("columns", [[[1, 0]], [[2, 0], [0, 1]]],
                         ids=["not-spanned", "not-integral"])
def test_restrictions_refuse_an_unstable_basis(columns):
    # the swap sends (1, 0) outside its span, and (0, 1) to half of (2, 0)
    swap = validate(load_config("swap_q3_n2"))
    with pytest.raises(OracleError, match="^basis is not stable under the action$"):
        _restrictions(swap, Sublattice.from_columns(2, columns))


def test_brute_invariant_points_rank_zero():
    swap = validate(load_config("swap_q3_n2"))
    assert brute_invariant_points(swap, Sublattice.zero(2), 3) == frozenset({()})


def test_brute_radical_is_the_left_radical():
    """x^T G = 0, not G x = 0: the seeded Gram matrices are not symmetric."""
    rng = random.Random(77)
    one_sided = 0
    for _ in range(300):
        k, n = rng.randint(1, 3), rng.randint(1, 12)
        gram = [[rng.randrange(-n, n + 1) for _ in range(k)] for _ in range(k)]
        elems = list(product(range(n), repeat=k))
        left = frozenset(x for x in elems
                         if all(sum(x[i] * gram[i][j] for i in range(k)) % n == 0
                                for j in range(k)))
        right = frozenset(x for x in elems
                          if all(sum(gram[i][j] * x[j] for j in range(k)) % n == 0
                                 for i in range(k)))
        assert brute_radical(gram, n) == left, (gram, n)
        one_sided += left != right
    # a scan that transposed the condition fails on these
    assert one_sided > 20
    assert brute_radical([], 5) == frozenset({()})


def test_brute_invariant_points_budget():
    """All three lattices of swap_q3_n2 at level 6: N^2 = 529984 each, < 1.5 s."""
    swap = validate(load_config("swap_q3_n2"))
    lattices = _lattices(swap)
    assert all(sub.rank == 2 for sub in lattices)
    start = time.monotonic()
    points = [brute_invariant_points(swap, sub, 6) for sub in lattices]
    elapsed = time.monotonic() - start
    for sub, pts in zip(lattices, points):
        lg = invariant_points(swap, sub, 6)
        gens = [lg.lattice.basis.col(j) for j in range(lg.lattice.rank)]
        assert subgroup_from_generators(728, 2, gens) == pts, sub
    assert elapsed < 1.5, elapsed


def test_brute_level_group_confirms_every_trace_level(bundled_configs):
    # each traced level, enumerated in (Z/M)^r for M the n-primary part of
    # N = q**m - 1; where (Z/N)^r is small enough, the full N gives the same
    # group and N / M, the primes outside n, a trivial one
    data = {name: validate(cfg) for name, cfg in bundled_configs.items()}
    data["RAMIFIED_CYCLE3"] = validate(RAMIFIED_CYCLE3)
    levels = full = 0
    for name, d in data.items():
        lattices = (y_gamma_sharp(d), y_sharp(d))
        _, trace = packet_group(d)
        for m, traced in trace:
            n_mod = d.q ** m - 1
            modulus = n_primary_part(n_mod, d.n)
            assert brute_level_group(d, *lattices, modulus) == traced, (name, m)
            levels += 1
            if n_mod ** d.rank <= 10 ** 5:
                assert brute_level_group(d, *lattices, n_mod) == traced, (name, m)
                assert brute_level_group(d, *lattices, n_mod // modulus).is_trivial
                full += 1
    assert (levels, full) == (21, 7)


def test_n_primary_part_examples():
    assert n_primary_part(3 ** 4 - 1, 2) == 16
    assert n_primary_part(7 ** 6 - 1, 3) == 9
    assert n_primary_part(2 ** 2 * 3 ** 3 * 5 * 7, 6) == 108
    assert n_primary_part(80, 1) == 1
