import dataclasses
import random
from collections import Counter
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packetgroup.cohomology import (ExactnessError, FrobModule, ModuleError,
                                    NotInH0, ShortExactSequence, TameModule,
                                    connecting, counting_checks, dual_module,
                                    exactness_failures, h0_h1, h1_class,
                                    image_of_connecting, residue_sharp_sequence,
                                    tame_h, tate_twist, twisted_coinvariants,
                                    unramified_part)
from packetgroup.datum import NotPrimePower, validate
from packetgroup.linalg import AmbientMismatch, Mat, Sublattice, preimage_lattice, solve_modulo
from packetgroup.randomgen import random_tame_module

from conftest import CONFIG_DIR, RAMIFIED_CYCLE3, gcd_violating_datum, load_config


def cyclic(n, mult, q):
    return FrobModule(Sublattice.scaled(1, n), Mat.from_rows([[mult]]), q)


def test_h0_h1_examples():
    h0, h1 = h0_h1(cyclic(5, 1, 2))
    assert h0.invariant_factors == (5,) and h1.invariant_factors == (5,)
    h0, h1 = h0_h1(cyclic(5, 2, 3))
    assert h0.is_trivial and h1.is_trivial
    m = FrobModule(Sublattice.from_columns(2, [[4, 0], [0, 2]]), Mat.identity(2), 3)
    h0, h1 = h0_h1(m)
    assert h0.invariant_factors == (2, 4) and h1.invariant_factors == (2, 4)


def test_module_validation():
    with pytest.raises(ModuleError):
        FrobModule(Sublattice.from_columns(1, []), Mat.zeros(1, 1), 2)
    with pytest.raises(ModuleError, match="^phi is not invertible on the module$"):
        FrobModule(Sublattice.scaled(1, 4), Mat.from_rows([[2]]), 3)
    with pytest.raises(ModuleError):
        FrobModule(Sublattice.scaled(1, 6), Mat.identity(1), 3)  # order not prime to q
    with pytest.raises(NotPrimePower):
        cyclic(5, 2, 6)
    m = cyclic(5, 7, 2)
    assert m.phi == Mat.from_rows([[2]])  # stored reduced mod the exponent


# Z/2 x Z/4, whose relation lattice the coordinate swap does not preserve
TWO_FOUR = Sublattice.from_columns(2, [[2, 0], [0, 4]])
SWAP = Mat.from_rows([[0, 1], [1, 0]])
KILL_SECOND = Mat.from_rows([[1, 0], [0, 5]])  # preserves 5 Z^2, not invertible


@pytest.mark.parametrize("build, message", [
    (lambda: FrobModule(TWO_FOUR, SWAP, 3), "phi does not preserve the relation lattice"),
    (lambda: FrobModule(Sublattice.scaled(2, 5), KILL_SECOND, 3),
     "phi is not invertible on the module"),
    (lambda: TameModule(TWO_FOUR, Mat.identity(2), SWAP, 1, 3),
     "phi does not preserve the relation lattice"),
    (lambda: TameModule(Sublattice.scaled(2, 5), Mat.identity(2), KILL_SECOND, 1, 3),
     "phi is not invertible on the module"),
    # sigma is checked first, so its fault is the one reported
    (lambda: TameModule(TWO_FOUR, SWAP, SWAP, 2, 3),
     "sigma does not preserve the relation lattice"),
    (lambda: TameModule(Sublattice.scaled(2, 5), KILL_SECOND, Mat.zeros(2, 2), 2, 3),
     "sigma is not invertible on the module"),
    (lambda: TameModule(TWO_FOUR, Mat.from_rows([[1, 0], [0, 2]]), SWAP, 2, 3),
     "sigma is not invertible on the module"),
], ids=["frob-preserve", "frob-invert", "tame-phi-preserve",
        "tame-phi-invert", "tame-sigma-first-preserve", "tame-sigma-first-invert",
        "tame-sigma-invert-before-phi-preserve"])
def test_module_action_errors(build, message):
    with pytest.raises(ModuleError, match=f"^{message}$"):
        build()


@given(st.integers(0, 4), st.booleans(), st.data())
@settings(deadline=None, max_examples=200)
def test_action_check_matches_the_preimage_criterion(k, preserving, data):
    # the module checks mat @ R in R, then R + mat @ Z^k = Z^k; the
    # criterion it replaced read the preimage of R: it holds R, then is R
    square = st.lists(st.integers(-3, 3), min_size=k * k, max_size=k * k).map(
        lambda cells: Mat(k, k, tuple(cells)))
    rel = Sublattice.from_matrix(data.draw(square.filter(lambda m: m.det() != 0)))
    mat = data.draw(square)
    if preserving:
        # c + (a map into R) preserves R, and is invertible iff c is a unit mod the exponent
        mat = Mat.identity(k).scale(data.draw(st.integers(-4, 4))) + rel.basis @ mat
    pre = preimage_lattice(mat, rel)
    if not pre.contains(rel):
        message = "phi does not preserve the relation lattice"
    elif pre != rel:
        message = "phi is not invertible on the module"
    else:
        message = None
    q = 10007  # a prime beyond every |det| of a 4 x 4 matrix with entries in -3..3
    if message is None:
        assert FrobModule(rel, mat, q).relations == rel
    else:
        with pytest.raises(ModuleError, match=f"^{message}$"):
            FrobModule(rel, mat, q)


def test_tate_twist_examples():
    m = cyclic(5, 3, 2)
    assert tate_twist(m, 1).phi == Mat.from_rows([[1]])
    assert tate_twist(m, 0) == m
    assert tate_twist(cyclic(7, 1, 3), -1).phi == Mat.from_rows([[5]])


def test_tate_twist_group_action():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.choice([4, 5, 7, 9])
        q = rng.choice([2, 3, 5])
        if gcd(n, q) != 1:
            continue
        mult = rng.choice([u for u in range(1, n) if gcd(u, n) == 1])
        m = cyclic(n, mult, q)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        assert tate_twist(tate_twist(m, a), b) == tate_twist(m, a + b)
        assert tate_twist(tate_twist(m, a), -a) == m


def four_term_sequence():
    a = cyclic(2, 1, 3)
    b = cyclic(4, 3, 3)
    c = cyclic(2, 1, 3)
    return ShortExactSequence(a, b, c, Mat.from_rows([[2]]), Mat.from_rows([[1]]))


def test_connecting_example():
    ses = four_term_sequence()
    assert exactness_failures(ses) == ()
    # the two lifts of 1 are 1 and 3; (phi-1) sends both to 2 mod 4,
    # pulling back to the nonzero class of h1(Z/2)
    assert connecting(ses, (1,)) == (1,)
    assert connecting(ses, (0,)) == (0,)
    assert image_of_connecting(ses).invariant_factors == (2,)


def test_connecting_zero_when_phi_trivial_on_middle():
    ses = ShortExactSequence(cyclic(2, 1, 5), cyclic(4, 1, 5), cyclic(2, 1, 5),
                             Mat.from_rows([[2]]), Mat.from_rows([[1]]))
    assert connecting(ses, (1,)) == (0,)
    assert image_of_connecting(ses).is_trivial


def test_image_of_connecting_trivial_right_term():
    a = cyclic(3, 1, 2)
    trivial = FrobModule(Sublattice.scaled(1, 1), Mat.identity(1), 2)
    ses = ShortExactSequence(a, cyclic(3, 1, 2), trivial,
                             Mat.identity(1), Mat.zeros(1, 1))
    assert exactness_failures(ses) == ()
    assert image_of_connecting(ses).is_trivial


def test_connecting_rejects_non_fixed_class():
    a = cyclic(5, 1, 2)
    b = FrobModule(Sublattice.scaled(2, 5),
                   Mat.from_rows([[1, 0], [0, 2]]), 2)
    c = cyclic(5, 2, 2)
    ses = ShortExactSequence(a, b, c,
                             Mat.from_columns([[1, 0]], rows=2),
                             Mat.from_rows([[0, 1]], cols=2))
    assert exactness_failures(ses) == ()
    with pytest.raises(NotInH0):
        connecting(ses, (1,))


def test_connecting_additive():
    ses = four_term_sequence()
    a = ses.left
    for c1 in ((0,), (1,)):
        for c2 in ((0,), (1,)):
            total = tuple(x + y for x, y in zip(c1, c2))
            lhs = connecting(ses, total)
            rhs = h1_class(a, tuple(x + y for x, y in
                                    zip(connecting(ses, c1), connecting(ses, c2))))
            assert lhs == rhs


def test_exactness_failure_detection():
    a = cyclic(2, 1, 3)
    b = cyclic(4, 3, 3)
    c = cyclic(2, 1, 3)
    # injection with a kernel: multiply by 0
    ses = ShortExactSequence(a, b, c, Mat.from_rows([[0]]), Mat.from_rows([[1]]))
    assert any("kernel" in f or "image" in f for f in exactness_failures(ses))
    # non-surjective projection: compose with multiplication by 2
    ses = ShortExactSequence(a, b, c, Mat.from_rows([[2]]), Mat.from_rows([[2]]))
    fails = exactness_failures(ses)
    assert fails
    with pytest.raises(ExactnessError):
        connecting(ses, (1,))
    # phi mismatch
    b_bad = cyclic(4, 1, 3)
    ses = ShortExactSequence(a, b_bad, cyclic(2, 1, 3),
                             Mat.from_rows([[2]]), Mat.from_rows([[1]]))
    assert exactness_failures(ses) == ()
    # genuinely non-commuting phi needs a different middle action
    ses = ShortExactSequence(cyclic(3, 1, 5), cyclic(3, 2, 5), cyclic(3, 1, 5),
                             Mat.from_rows([[1]]), Mat.from_rows([[1]]))
    assert any("commute" in f or "kernel" in f or "image" in f
               for f in exactness_failures(ses))


def test_residue_sequence_bundled():
    from packetgroup.linalg import quotient_invariants
    from packetgroup.sharp import y_sharp
    for name in ("swap_q3_n2", "ramified_r1_q7_n3", "s3_ramified_q7_n2",
                 "minus_one_r2_q5_n4", "rot4_r2_q5_n4", "split_r2_q5_n4"):
        d = validate(load_config(name))
        ses = residue_sharp_sequence(d, d.gamma_exponent)
        assert exactness_failures(ses) == (), name
        assert image_of_connecting(ses) == h0_h1(ses.left)[1], name
        # the left term is the inertia-fixed part of the n-torsion quotient
        sharp_lat = y_sharp(d)
        fixed = Sublattice.full(d.rank)
        for g in d.inertia_gens:
            cond = preimage_lattice(g - Mat.identity(d.rank), sharp_lat)
            fixed = fixed.meet(cond)
        expect = quotient_invariants(fixed, sharp_lat).order
        assert ses.left.order == expect, name


def sequence_data(bundled_configs):
    return [(name, validate(config))
            for name, config in [*bundled_configs.items(), ("cycle3", RAMIFIED_CYCLE3)]]


def test_sequence_eliminates_each_block_once(monkeypatch, bundled_configs):
    import packetgroup.linalg as linalg
    real, calls = linalg._hermite_block, Counter()

    # keyed by object, not value: on minus_one_r2_q5_n4 the right term's
    # relations come from an (I, 24 Z^2) block equal to the projection's
    def counted(m, target, modulus):
        calls[id(m), id(target)] += 1
        return real(m, target, modulus)

    monkeypatch.setattr(linalg, "_hermite_block", counted)
    for name, d in sequence_data(bundled_configs):
        calls.clear()
        ses = residue_sharp_sequence(d, d.gamma_exponent)
        assert exactness_failures(ses) == (), name
        assert image_of_connecting(ses) == h0_h1(ses.left)[1], name
        assert calls[id(ses.inject), id(ses.mid.relations)] == 1, name
        assert calls[id(ses.project), id(ses.right.relations)] == 1, name


def test_sequence_copies_rebuild_the_same_blocks(bundled_configs):
    for name, d in sequence_data(bundled_configs):
        ses = residue_sharp_sequence(d, d.gamma_exponent)
        assert {"_inject_block", "_project_block"} <= set(vars(ses)), name
        hand = ShortExactSequence(ses.left, ses.mid, ses.right, ses.inject, ses.project)
        copy = dataclasses.replace(ses)
        classes = ses.right.phi_fixed.basis.columns()
        for other in (hand, copy):
            # a copy starts with no blocks and builds its own, modulo each exponent
            assert other == ses and "_inject_block" not in vars(other), name
            assert exactness_failures(other) == exactness_failures(ses) == (), name
            assert other.projection_kernel == ses.projection_kernel, name
            assert [connecting(other, c) for c in classes] == \
                [connecting(ses, c) for c in classes], name
            assert image_of_connecting(other) == image_of_connecting(ses), name


def test_residue_sequence_gcd_violation_fails():
    bad = gcd_violating_datum({"rank": 2, "inertia_gens": [[[-1, 0], [0, -1]]],
                               "frobenius": [[1, 0], [0, 1]],
                               "q": 5, "n": 2, "Q_upper": [[0, 1], [0, 0]]})
    assert gcd(bad.n, bad.e) == 2
    ses = residue_sharp_sequence(bad, bad.gamma_exponent)
    fails = exactness_failures(ses)
    assert any("surjective" in f for f in fails)


def test_unramified_and_twisted_parts():
    swap = Mat.from_rows([[0, 1], [1, 0]])
    m = TameModule(Sublattice.scaled(2, 5), swap, Mat.identity(2), 2, 3)
    unr = unramified_part(m)
    assert unr.group().invariant_factors == (5,)
    tw = twisted_coinvariants(m)
    assert tw.group().invariant_factors == (5,)


@pytest.mark.parametrize("vec", [(5, 1, 2), ()], ids=["long", "short"])
def test_h1_class_refuses_the_wrong_length(vec):
    m = cyclic(3, 1, 2)
    assert h1_class(m, (5,)) == (2,)
    with pytest.raises(AmbientMismatch, match="^vector length differs from ambient rank$"):
        h1_class(m, vec)


@pytest.mark.parametrize("n", [0, -3])
def test_dual_module_refuses_n_below_1(n):
    m = TameModule(Sublattice.scaled(1, 3), Mat.identity(1), Mat.from_rows([[2]]), 2, 7)
    assert dual_module(m, 3).order == 3
    for check in (dual_module, counting_checks):
        with pytest.raises(ModuleError, match="^n must be >= 1$"):
            check(m, n)


def test_tame_module_validation():
    swap = Mat.from_rows([[0, 1], [1, 0]])
    with pytest.raises(ModuleError):
        TameModule(Sublattice.scaled(2, 5), swap, Mat.identity(2), 3, 3)  # swap^3 != 1
    with pytest.raises(ModuleError):
        TameModule(Sublattice.scaled(2, 5), swap, Mat.identity(2), 2, 4)  # gcd(e, q) = 2
    with pytest.raises(NotPrimePower):
        TameModule(Sublattice.scaled(2, 5), swap, Mat.identity(2), 1, 6)
    sigma = Mat.from_rows([[0, -1], [1, 0]])
    with pytest.raises(ModuleError):
        # phi = id does not conjugate a quarter turn to its cube
        TameModule(Sublattice.scaled(2, 5), sigma, Mat.identity(2), 4, 3)
    TameModule(Sublattice.scaled(2, 5), sigma, swap, 4, 3)


def test_trivial_modules():
    # rank 0, and exponent 1 with a sigma other than the identity
    rank0 = FrobModule(Sublattice.full(0), Mat.zeros(0, 0), 3)
    tame0 = TameModule(Sublattice.full(0), Mat.zeros(0, 0), Mat.zeros(0, 0), 1, 3)
    swap = Mat.from_rows([[0, 1], [1, 0]])
    tame1 = TameModule(Sublattice.full(2), swap, Mat.from_rows([[2, 1], [1, 1]]), 2, 5)
    for m in (rank0, tame0, tame1):
        k = m.ambient_rank
        assert m.group().is_trivial and m.order == 1 and m.exponent == 1
        assert all(getattr(m, name) == Mat.zeros(k, k) for name in m.ACTIONS)
        assert all(g.is_trivial for g in h0_h1(m))
        frob = FrobModule(m.relations, m.phi, m.q)
        assert all(tate_twist(frob, j) == frob for j in (-3, 0, 2))
    for m in (tame0, tame1):
        assert tame_h(m).sizes == (1, 1, 1)
        assert counting_checks(m, 1).ok
        assert dual_module(m, 1).order == 1


def test_tame_h_examples():
    m = TameModule(Sublattice.scaled(1, 5), Mat.identity(1), Mat.from_rows([[3]]), 1, 3)
    assert tame_h(m).sizes == (1, 5, 5)
    m = TameModule(Sublattice.scaled(1, 3), Mat.identity(1), Mat.from_rows([[7]]), 2, 7)
    th = tame_h(m)
    assert th.sizes[0] == 3
    trivial = TameModule(Sublattice.scaled(1, 1), Mat.identity(1), Mat.identity(1), 1, 3)
    assert tame_h(trivial).sizes == (1, 1, 1)


def test_dual_examples():
    m = TameModule(Sublattice.scaled(1, 4), Mat.identity(1), Mat.identity(1), 1, 5)
    assert dual_module(m, 4).phi == Mat.from_rows([[5 % 4]])
    m = TameModule(Sublattice.scaled(1, 3), Mat.identity(1), Mat.identity(1), 1, 5)
    assert dual_module(m, 3).phi == Mat.from_rows([[2]])
    swap = Mat.from_rows([[0, 1], [1, 0]])
    m = TameModule(Sublattice.scaled(2, 2), swap, Mat.identity(2), 2, 5)
    d = dual_module(m, 2)
    assert d.sigma == swap
    assert tame_h(dual_module(d, 2)).sizes == tame_h(m).sizes
    with pytest.raises(ModuleError):
        dual_module(m, 3)  # exponent 2 does not divide 3


def test_counting_checks_examples():
    m = TameModule(Sublattice.scaled(1, 3), Mat.identity(1), Mat.from_rows([[7]]), 2, 7)
    rep = counting_checks(m, 3)
    assert rep.ok
    assert rep.sizes_module == (3, 9, 3)
    trivial = TameModule(Sublattice.scaled(1, 1), Mat.identity(1), Mat.identity(1), 1, 3)
    rep = counting_checks(trivial, 2)
    assert rep.ok and rep.sizes_module == (1, 1, 1)
    with pytest.raises(ModuleError, match="^n must be prime to e$"):
        counting_checks(m, 6)


@pytest.mark.parametrize("n, message", [
    (4, "exponent of the module must divide n"),  # also shares 2 with e
    (21, "n must be prime to q"),
    (42, "n must be prime to q"),  # also shares 2 with e
    (-2, "n must be >= 1"),  # also misses the exponent and shares 2 with e
], ids=["exponent", "q", "q-and-e", "three-rules"])
def test_counting_checks_refusals(n, message):
    # Z/3 with q = 7 and e = 2, as in the examples above; the first rule
    # broken is the one reported (n = 0 and -3: test_dual_module_refuses_n_below_1)
    m = TameModule(Sublattice.scaled(1, 3), Mat.identity(1), Mat.from_rows([[7]]), 2, 7)
    with pytest.raises(ModuleError, match=f"^{message}$"):
        counting_checks(m, n)


def test_counting_random_suite():
    rng = random.Random(2024)
    for _ in range(60):
        m = random_tame_module(rng)
        n = m.exponent if m.exponent > 1 else 2
        while gcd(n, m.q) != 1 or gcd(n, m.e) != 1:
            n += max(m.exponent, 1)
        rep = counting_checks(m, n)
        assert rep.ok


def test_herbrand_equality_random():
    rng = random.Random(11)
    for _ in range(40):
        m = random_tame_module(rng)
        unr = unramified_part(m)
        h0, h1 = h0_h1(unr)
        assert h0.order == h1.order


def _agreement_cases():
    """(matrix, target module) pairs: every action and action - 1 of 60 random
    tame modules and of the residue-sequence terms, and the sequences' maps."""
    rng = random.Random(22)
    modules, cases = [random_tame_module(rng) for _ in range(60)], []
    for config in [load_config(p.stem) for p in sorted(CONFIG_DIR.glob("*.json"))] + \
            [RAMIFIED_CYCLE3]:
        d = validate(config)
        ses = residue_sharp_sequence(d, d.gamma_exponent)
        modules += [ses.left, ses.mid, ses.right]
        cases += [(ses.inject, ses.mid), (ses.project, ses.right)]
    for m in modules:
        for a in (getattr(m, name) for name in m.ACTIONS):
            cases += [(a, m), (a - Mat.identity(m.ambient_rank), m)]
    return cases


def test_modular_block_agrees_with_the_exact_one():
    # a relation lattice contains exponent * Z^k, so every preimage, span and
    # solve modulo the exponent must equal its exact counterpart
    outcomes, scanned = set(), 0
    for a, m in _agreement_cases():
        rel, e = m.relations, m.exponent
        pre = preimage_lattice(a, rel, modulus=e)
        assert pre == preimage_lattice(a, rel)
        assert rel.join(a, modulus=e) == rel.join(a)
        for t in Mat.identity(a.rows).columns() + a.columns():
            t = Mat.from_columns([t], rows=a.rows)
            sol = solve_modulo(a, t, rel, modulus=e)
            assert (sol is None) == (solve_modulo(a, t, rel) is None)
            assert sol is None or all(map(rel.contains_vector, (a @ sol - t).columns()))
            outcomes.add(sol is None)
        if e ** a.cols <= 10 ** 4:
            scanned += 1
            for x in product(range(e), repeat=a.cols):
                assert pre.contains_vector(x) == rel.contains_vector(a.apply(x)), x
    assert outcomes == {True, False} and scanned > 200


def test_cached_attributes_compute_once_and_keep_no_failure(monkeypatch):
    import packetgroup.cohomology as cohomology_mod
    real, calls = cohomology_mod.preimage_lattice, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    def failing(*args, **kwargs):
        calls.append(args)
        raise ModuleError("injected")

    def module():
        return FrobModule(Sublattice.from_columns(2, [[4, 0], [0, 2]]), Mat.identity(2), 3)

    m, fresh = module(), module()
    monkeypatch.setattr(cohomology_mod, "preimage_lattice", counted)
    assert m.phi_fixed is m.phi_fixed and len(calls) == 1 and "phi_fixed" in vars(m)
    assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
    # a compute that raises stores nothing and runs again on the next read
    monkeypatch.setattr(cohomology_mod, "preimage_lattice", failing)
    for _ in range(2):
        with pytest.raises(ModuleError, match="injected"):
            fresh.phi_fixed
    assert len(calls) == 3 and "phi_fixed" not in vars(fresh)
    monkeypatch.setattr(cohomology_mod, "preimage_lattice", real)
    assert fresh.phi_fixed == m.phi_fixed
