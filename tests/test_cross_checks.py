"""Dual-route checks pitting the lattice paths against element enumeration."""

import random
from itertools import product
from math import lcm

from packetgroup.cohomology import (FrobModule, ShortExactSequence, connecting,
                                    exactness_failures, h0_h1, h1_class,
                                    image_of_connecting, residue_sharp_sequence)
from packetgroup.datum import conjugated_config, validate
from packetgroup.linalg import Mat, Sublattice, quotient_invariants
from packetgroup.oracle import (brute_invariant_points, brute_iota_image, brute_level_group,
                                brute_quotient, n_primary_part, subgroup_from_generators)
from packetgroup.randomgen import random_config, random_unimodular, random_valid_datum
from packetgroup.residue import iota_image, packet_group, packet_group_level
from packetgroup.sharp import y_gamma_sharp, y_sharp

from conftest import (load_config, permutation_group_config, ramified_sums,
                      random_unramified_config)


def test_residue_sequence_exact_at_every_small_level():
    # exactness needs only gcd(n, e) = 1, not a stabilized level
    rng = random.Random(6161)
    data = [validate(load_config(n)) for n in
            ("swap_q3_n2", "ramified_r1_q7_n3", "s3_ramified_q7_n2")]
    data += [random_valid_datum(rng, ranks=(1, 2)) for _ in range(15)]
    for d in data:
        for m in (1, 2, 3):
            ses = residue_sharp_sequence(d, m)
            assert exactness_failures(ses) == (), (d.q, d.n, d.e, m)
            # the connecting image always lands inside h1 of the left term
            img = image_of_connecting(ses)
            full = h0_h1(ses.left)[1]
            assert full.order % img.order == 0


def test_quotient_invariants_against_coset_enumeration():
    rng = random.Random(7272)
    for _ in range(20):
        k = rng.randint(1, 2)
        diag = [rng.randint(1, 2) for _ in range(k)]
        extra = [rng.randint(2, 3) for _ in range(k)]
        sup_cols = [[diag[i] if i == j else 0 for i in range(k)] for j in range(k)]
        sub_cols = [[diag[i] * extra[i] if i == j else 0 for i in range(k)]
                    for j in range(k)]
        u = random_unimodular(rng, k)
        sup = Sublattice.from_matrix(u @ Mat.from_columns(sup_cols, rows=k))
        sub = Sublattice.from_matrix(u @ Mat.from_columns(sub_cols, rows=k))
        main = quotient_invariants(sup, sub)
        # reduce modulo M with M Z^k inside sub, so the quotient is unchanged
        modulus = 1
        for d, e in zip(diag, extra):
            modulus *= d * e
        amb = subgroup_from_generators(
            modulus, k, [sup.basis.col(j) for j in range(sup.rank)])
        subset = subgroup_from_generators(
            modulus, k, [sub.basis.col(j) for j in range(sub.rank)])
        assert brute_quotient(modulus, amb, subset) == main, (diag, extra)


def enumerate_module(mod):
    """All canonical representatives of Z^k / R (R full rank, triangular)."""
    rel = mod.relations
    bounds = [rel.basis[j, j] for j in range(rel.rank)]
    return [rel.reduce_vector(vec) for vec in product(*[range(b) for b in bounds])]


def brute_connecting_classes(ses, c):
    """Connecting values over every lift of c, by pure enumeration."""
    left, mid, right = ses.left, ses.mid, ses.right
    f, g = ses.inject, ses.project
    target = right.relations.reduce_vector(c)
    values = set()
    for b in enumerate_module(mid):
        if right.relations.reduce_vector(g.apply(b)) != target:
            continue
        w = (mid.phi - Mat.identity(mid.ambient_rank)).apply(b)
        for a in enumerate_module(left):
            diff = tuple(x - y for x, y in zip(w, f.apply(a)))
            if mid.relations.contains_vector(diff):
                values.add(h1_class(left, a))
    return values


def test_connecting_against_lift_enumeration_small():
    ses = ShortExactSequence(
        left=FrobModule(Sublattice.scaled(1, 2), Mat.from_rows([[1]]), 3),
        mid=FrobModule(Sublattice.scaled(1, 4), Mat.from_rows([[3]]), 3),
        right=FrobModule(Sublattice.scaled(1, 2), Mat.from_rows([[1]]), 3),
        inject=Mat.from_rows([[2]]), project=Mat.from_rows([[1]]))
    for c in ((0,), (1,)):
        assert brute_connecting_classes(ses, c) == {connecting(ses, c)}


def test_connecting_against_lift_enumeration_residue():
    d = validate(load_config("swap_q3_n2"))
    ses = residue_sharp_sequence(d, 2)
    assert exactness_failures(ses) == ()
    right = ses.right
    delta = right.phi - Mat.identity(right.ambient_rank)
    fixed = [c for c in enumerate_module(right)
             if right.relations.contains_vector(delta.apply(c))]
    assert fixed
    values = set()
    for c in fixed:
        brute = brute_connecting_classes(ses, c)
        assert brute == {connecting(ses, c)}, c
        values |= brute
    # the connecting map is onto h1 of the left term, so the value set is
    # the whole group of classes
    assert len(values) == h0_h1(ses.left)[1].order


def _matrix_closure(gens, r):
    """Every product of the generators, by breadth-first search on matrices."""
    ident = Mat.identity(r)
    elems = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = g @ x
                if y not in elems:
                    elems.add(y)
                    fresh.append(y)
        assert len(elems) <= 10 ** 4, "test closure is meant for small groups"
        frontier = fresh
    return elems


def _matrix_order(a):
    ident = Mat.identity(a.rows)
    power, k = a, 1
    while power != ident:
        power, k = power @ a, k + 1
    return k


def test_group_closure_against_matrix_closure(bundled_configs):
    # validate closes the group on permutations of the basis-vector orbit;
    # this closure multiplies matrices and shares no code with it
    rng = random.Random(4242)
    configs = list(bundled_configs.values())
    configs += [random_config(rng, ranks=(1, 2, 3, 4)) for _ in range(100)]
    for family, r in (("S", 3), ("S", 4), ("B", 2), ("B", 3), ("B", 4)):
        configs.append(conjugated_config(permutation_group_config(family, r),
                                         random_unimodular(rng, r)))
    for cfg in configs:
        r = cfg["rank"]
        inertia_gens = [Mat.from_rows(g, cols=r) for g in cfg["inertia_gens"]]
        gens = inertia_gens + [Mat.from_rows(cfg["frobenius"], cols=r)]
        group = _matrix_closure(gens, r)
        inertia = _matrix_closure(inertia_gens, r)
        d = validate(cfg)
        assert d.group_elements == tuple(sorted(group, key=lambda m: m.entries))
        assert d.inertia_elements == tuple(sorted(inertia, key=lambda m: m.entries))
        assert d.group_order == len(group) and d.e == len(inertia)
        assert d.gamma_exponent == lcm(*map(_matrix_order, group))


# largest (Z/N)^r on which the random level cross-check enumerates
RANDOM_LEVEL_SIZE = 10 ** 6


def test_level_groups_against_the_oracle_on_random_data():
    # random_config almost never gives S != 1, so most data come from the
    # unramified generator, where about one draw in six does
    rng = random.Random(4)
    configs = [random_unramified_config(rng) for _ in range(60)]
    configs += [random_config(rng) for _ in range(20)]
    seen = set()
    for cfg in configs:
        d = validate(cfg)
        lattices = {"full": Sublattice.full(d.rank), "sharp": y_sharp(d),
                    "gamma_sharp": y_gamma_sharp(d)}
        for m in (1, 2):
            n_mod = d.q ** m - 1
            if n_mod ** d.rank > RANDOM_LEVEL_SIZE:
                continue
            images = {}
            for name, sub in lattices.items():
                points = brute_invariant_points(d, sub, m)
                images[name] = brute_iota_image(points, sub, n_mod)
                main = subgroup_from_generators(
                    n_mod, d.rank, iota_image(d, sub, m).lattice.basis.columns())
                assert main == images[name], (cfg, m, name)
            level_group = packet_group_level(d, m)
            assert level_group == brute_quotient(
                n_mod, images["gamma_sharp"], images["sharp"]), (cfg, m)
            seen.add(level_group.is_trivial)
    assert seen == {True, False}


# largest (Z/M)^r on which the random trace levels are enumerated
RANDOM_TRACE_SIZE = 10 ** 5


def test_random_trace_levels_against_the_oracle():
    # the 80 data of the test above, drawn the same way; every level of the
    # packet-group trace, enumerated in (Z/M)^r for M the n-primary part of
    # q**m - 1, wherever that is small enough
    rng = random.Random(4)
    configs = [random_unramified_config(rng) for _ in range(60)]
    configs += [random_config(rng) for _ in range(20)]
    checked = []
    for cfg in configs:
        d = validate(cfg)
        lattices = (y_gamma_sharp(d), y_sharp(d))
        for m, traced in packet_group(d)[1]:
            modulus = n_primary_part(d.q ** m - 1, d.n)
            if modulus ** d.rank > RANDOM_TRACE_SIZE:
                continue
            assert brute_level_group(d, *lattices, modulus) == traced, (cfg, m)
            checked.append(traced.is_trivial)
    # 209 of the 240 trace levels are in reach, 20 of them nontrivial
    assert (len(checked), checked.count(False)) == (209, 20)


def test_ramified_sum_trace_levels_against_the_oracle():
    # ramified data of rank 4 and 5 whose S contains RAMIFIED_CYCLE3's Z/2:
    # every trace level within reach of enumeration, checked as above
    checked = []
    for d in ramified_sums(random.Random(56), 12):
        lattices = (y_gamma_sharp(d), y_sharp(d))
        for m, traced in packet_group(d)[1]:
            modulus = n_primary_part(d.q ** m - 1, d.n)
            if modulus ** d.rank > RANDOM_TRACE_SIZE:
                continue
            assert brute_level_group(d, *lattices, modulus) == traced, (d, m)
            checked.append(traced.is_trivial)
    # 21 of the 36 trace levels are in reach, all of them nontrivial
    assert (len(checked), checked.count(False)) == (21, 21)
