import dataclasses
import random
import time
from math import factorial, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packetgroup.datum import (ConfigError, CoverDatum, DeterminantError,
                               FormNotInvariant, GroupNotFinite, InertiaNotNormalized,
                               NotPrimePower, RamificationGcdError, RootsOfUnityError,
                               conjugated_config, fold_upper,
                               matrix_inverse_unimodular, prime_power_decomposition,
                               validate)
from packetgroup.linalg import Mat
from packetgroup.randomgen import (random_config, random_signed_permutation,
                                   random_unimodular)

from conftest import (RAMIFIED_CYCLE3, gcd_violating_datum, load_config,
                      permutation_group_config)


def test_validate_swap_example():
    d = validate(load_config("swap_q3_n2"))
    assert d.e == 1
    assert d.group_order == 2
    assert d.bilinear == Mat.from_rows([[0, 1], [1, 0]])
    assert d.gamma_exponent == 2


def test_validate_ramified_r1():
    d = validate(load_config("ramified_r1_q7_n3"))
    assert d.e == 2
    assert d.bilinear == Mat.from_rows([[2]])
    assert d.residue_char == 7


def test_gcd_violation_rejected():
    cfg = load_config("ramified_r1_q7_n3") | {"n": 2}
    with pytest.raises(RamificationGcdError, match="ramification index"):
        validate(cfg)
    d = gcd_violating_datum(cfg)
    assert d.n == 2 and d.e == 2


def test_prime_power_decomposition():
    assert prime_power_decomposition(7) == (7, 1)
    assert prime_power_decomposition(9) == (3, 2)
    assert prime_power_decomposition(32) == (2, 5)
    for bad in (1, 6, 12, 100):
        with pytest.raises(NotPrimePower):
            prime_power_decomposition(bad)


def test_determinant_error():
    cfg = {"rank": 1, "inertia_gens": [], "frobenius": [[2]],
           "q": 3, "n": 1, "Q_upper": [[0]]}
    with pytest.raises(DeterminantError):
        validate(cfg)


def test_group_not_finite():
    cfg = {"rank": 2, "inertia_gens": [], "frobenius": [[1, 1], [0, 1]],
           "q": 3, "n": 1, "Q_upper": [[0, 0], [0, 0]]}
    with pytest.raises(GroupNotFinite):
        validate(cfg, closure_cap=100)
    # at the default cap, two elements agreeing mod 3 end the closure early
    for frobenius in ([[2, 1], [1, 1]], [[1, 1], [0, 1]]):
        with pytest.raises(GroupNotFinite, match="mod 3"):
            validate(dict(cfg, frobenius=frobenius))


def test_finite_group_with_orbit_vectors_agreeing_mod_3():
    # g sends e_1 to (1, 3), which agrees with e_1 mod 3, yet g has order 2:
    # the mod-3 test must compare group elements, not orbit vectors
    cfg = {"rank": 2, "inertia_gens": [], "frobenius": [[1, 0], [3, -1]],
           "q": 3, "n": 1, "Q_upper": [[0, 0], [0, 0]]}
    d = validate(cfg)
    assert d.group_order == 2 and d.gamma_exponent == 2 and d.e == 1
    assert d.group_elements == (Mat.from_rows([[1, 0], [0, 1]]),
                                Mat.from_rows([[1, 0], [3, -1]]))
    with pytest.raises(GroupNotFinite, match="cap of 1 elements"):
        validate(cfg, closure_cap=1)


@pytest.mark.parametrize("family,r,order,exponent,budget_s", [
    ("S", 7, 5040, 420, 5.0),
    ("B", 6, 46080, 120, 5.0),
    ("S", 8, 40320, 840, 5.0),
])
def test_permutation_group_closed_forms(family, r, order, exponent, budget_s):
    # |S_r| = r!, exponent lcm(1..r); |B_r| = 2^r r!, exponent twice that
    start = time.perf_counter()
    d = validate(permutation_group_config(family, r))
    elapsed = time.perf_counter() - start
    assert (d.group_order, d.gamma_exponent, d.e) == (order, exponent, order)
    assert elapsed < budget_s, f"{family}_{r} closure took {elapsed:.1f} s"


def test_closure_cap_counts_group_elements():
    # B_3 has 48 elements on an orbit of 6 vectors
    cfg = permutation_group_config("B", 3)
    assert validate(cfg, closure_cap=48).group_order == 48
    with pytest.raises(GroupNotFinite, match="cap of 47 elements"):
        validate(cfg, closure_cap=47)


@pytest.mark.parametrize("cap", [0, -1])
def test_closure_cap_below_1_rejected(cap):
    # the split datum adds no element or orbit point, so no cap is ever hit
    split = load_config("split_r2_q5_n4")
    validate(split, closure_cap=1)
    with pytest.raises(ConfigError, match=f"^closure_cap must be >= 1, got {cap}$"):
        validate(split, closure_cap=cap)


def test_form_not_invariant():
    cfg = {"rank": 2, "inertia_gens": [], "frobenius": [[0, 1], [1, 0]],
           "q": 3, "n": 2, "Q_upper": [[1, 0], [0, 0]]}
    with pytest.raises(FormNotInvariant,
                       match="^bilinear form not invariant under frobenius$"):
        validate(cfg)
    # the swap changes the diagonal of the quadratic form, and with it
    # the diagonal of B = Q + Q^T: the bilinear check already refuses it
    cfg = {"rank": 2, "inertia_gens": [], "frobenius": [[0, 1], [1, 0]],
           "q": 3, "n": 2, "Q_upper": [[1, 2], [0, -1]]}
    with pytest.raises(FormNotInvariant,
                       match="^bilinear form not invariant under frobenius$"):
        validate(cfg)


@given(st.integers(1, 4), st.integers(0, 2 ** 32), st.booleans())
@settings(deadline=None)
def test_invariant_bilinear_form_fixes_the_quadratic_diagonal(r, seed, signed):
    # (g^T B g)_ii = 2 (g^T Q g)_ii and B_ii = 2 Q_ii for B = Q + Q^T, so
    # over Z an invariant B forces the quadratic form's diagonal to agree
    rng = random.Random(seed)
    q_upper = Mat.from_rows([[rng.randint(-3, 3) if j >= i else 0 for j in range(r)]
                             for i in range(r)], cols=r)
    g = random_signed_permutation(rng, r) if signed else random_unimodular(rng, r)
    b = q_upper + q_upper.transpose()
    twisted = g.transpose() @ q_upper @ g
    assert all((g.transpose() @ b @ g)[i, i] == 2 * twisted[i, i] for i in range(r))
    if g.transpose() @ b @ g == b:
        assert all(twisted[i, i] == q_upper[i, i] for i in range(r))


def test_inertia_not_normalized():
    cfg = {"rank": 2, "inertia_gens": [[[1, 0], [0, -1]]],
           "frobenius": [[0, 1], [1, 0]],
           "q": 3, "n": 1, "Q_upper": [[1, 0], [0, 1]]}
    with pytest.raises(InertiaNotNormalized):
        validate(cfg)


def test_normalization_checked_before_the_group_is_closed():
    # the group would have 8 elements; a cap of 4 still reports the real fault
    cfg = {"rank": 2, "inertia_gens": [[[1, 0], [0, -1]]],
           "frobenius": [[0, 1], [1, 0]],
           "q": 3, "n": 1, "Q_upper": [[1, 0], [0, 1]]}
    with pytest.raises(InertiaNotNormalized):
        validate(cfg, closure_cap=4)


def test_roots_of_unity_error():
    cfg = {"rank": 1, "inertia_gens": [], "frobenius": [[1]],
           "q": 3, "n": 3, "Q_upper": [[1]]}
    with pytest.raises(RootsOfUnityError):
        validate(cfg)


def test_not_prime_power():
    cfg = {"rank": 1, "inertia_gens": [], "frobenius": [[1]],
           "q": 6, "n": 1, "Q_upper": [[1]]}
    with pytest.raises(NotPrimePower):
        validate(cfg)


def test_config_errors():
    with pytest.raises(ConfigError):
        validate({"rank": 1})
    with pytest.raises(ConfigError):
        validate({"rank": 0, "inertia_gens": [], "frobenius": [],
                  "q": 3, "n": 1, "Q_upper": []})
    with pytest.raises(ConfigError):
        validate({"rank": 2, "inertia_gens": [], "frobenius": [[1, 0], [0, 1]],
                  "q": 3, "n": 1, "Q_upper": [[1, 0], [1, 1]]})
    with pytest.raises(ConfigError):
        validate({"rank": 1, "inertia_gens": [], "frobenius": [[1]],
                  "q": 3, "n": 1, "Q_upper": [[True]]})


def test_fold_upper():
    m = Mat.from_rows([[1, 2], [3, 4]])
    assert fold_upper(m) == Mat.from_rows([[1, 5], [0, 4]])


def test_base_change_equivariance():
    rng = random.Random(7)
    cfg = load_config("s3_ramified_q7_n2")
    d = validate(cfg)
    for _ in range(10):
        p = random_unimodular(rng, cfg["rank"])
        moved = conjugated_config(cfg, p)
        d2 = validate(moved)
        assert d2.e == d.e
        assert d2.group_order == d.group_order
        assert d2.gamma_exponent == d.gamma_exponent
    # invalid data stay invalid under base change
    bad = load_config("ramified_r1_q7_n3") | {"n": 2}
    moved = conjugated_config(bad, Mat.from_rows([[-1]]))
    with pytest.raises(RamificationGcdError):
        validate(moved)


def test_group_closure_contents():
    d = validate(load_config("s3_ramified_q7_n2"))
    assert d.e == 3
    assert d.group_order == 6
    assert d.gamma_exponent == 6
    assert d.group_order % d.e == 0


def test_inertia_order_divides_group_order():
    from packetgroup.randomgen import random_valid_datum
    rng = random.Random(17)
    for _ in range(30):
        d = random_valid_datum(rng)
        assert len(d.inertia_elements) == d.e
        assert d.group_order % d.e == 0
        assert all(g in set(d.group_elements) for g in d.inertia_elements)


def _matrix_closure(gens, rank):
    """Every product of the matrices `gens`, by breadth-first search."""
    ident = Mat.identity(rank)
    elems, frontier = {ident}, [ident]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = x @ g
                if y not in elems:
                    elems.add(y)
                    fresh.append(y)
        frontier = fresh
    return tuple(sorted(elems, key=lambda m: m.entries))


def _matrix_order(g):
    ident = Mat.identity(g.rows)
    power, order = g, 1
    while power != ident:
        power, order = power @ g, order + 1
    return order


def _assert_closure_matches_matrices(d):
    group = _matrix_closure(d.generators, d.rank)
    inertia = _matrix_closure(d.inertia_gens, d.rank)
    assert d.group_elements == group
    assert d.inertia_elements == inertia
    assert d.e == len(inertia)
    assert d.gamma_exponent == lcm(*map(_matrix_order, group))
    return group


def test_closure_matches_matrix_products_on_random_data():
    styles = set()
    for seed in range(3):
        rng = random.Random(seed)
        for _ in range(15):
            d = validate(random_config(rng, ranks=(1, 2, 3, 4)))
            group = _assert_closure_matches_matrices(d)
            abelian = all(a @ b == b @ a for a in group for b in group)
            styles.add((d.e > 1, abelian))
    # ramified data with an abelian group and with a dihedral one both occur
    assert {(True, True), (True, False)} <= styles


@pytest.mark.parametrize("family,r", [("B", r) for r in range(2, 6)]
                         + [("S", r) for r in range(3, 7)])
def test_closure_matches_matrix_products_on_permutation_groups(family, r):
    d = validate(permutation_group_config(family, r))
    _assert_closure_matches_matrices(d)
    # |B_r| = 2^r r! with exponent 2 lcm(1..r); |S_r| = r! with exponent lcm(1..r)
    order, exponent = factorial(r), lcm(*range(1, r + 1))
    if family == "B":
        order, exponent = 2 ** r * order, 2 * exponent
    assert (d.group_order, d.e, d.gamma_exponent) == (order, order, exponent)


def test_exponent_reads_every_orbit_of_the_basis():
    # a 3-cycle on e1..e3 as inertia and the swap of e4, e5 as Frobenius:
    # the basis orbit splits into two group orbits, whose cycle lengths 3
    # and 2 are both needed for the exponent 6
    def perm(images):
        return [[int(images[j] == i) for j in range(5)] for i in range(5)]

    cfg = {"rank": 5, "inertia_gens": [perm([1, 2, 0, 3, 4])],
           "frobenius": perm([0, 1, 2, 4, 3]), "q": 5, "n": 4, "Q_upper": perm(range(5))}
    d = validate(cfg)
    _assert_closure_matches_matrices(d)  # the exponent is also the lcm of matrix orders
    assert (d.group_order, d.e, d.gamma_exponent) == (6, 3, 6)


def test_closure_cap_binds_at_the_frobenius_cosets():
    # e = 3 fits a cap of 3; the first coset of inertia would make 6
    assert validate(RAMIFIED_CYCLE3, closure_cap=6).group_order == 6
    for cap in (3, 5):
        with pytest.raises(GroupNotFinite, match=f"cap of {cap} elements"):
            validate(RAMIFIED_CYCLE3, closure_cap=cap)


@given(st.integers(1, 6), st.integers(0, 2 ** 32))
@settings(deadline=None)
def test_matrix_inverse_roundtrip(r, seed):
    a = random_unimodular(random.Random(seed), r, ops=4 * r)
    inv = matrix_inverse_unimodular(a)
    assert a @ inv == Mat.identity(r) == inv @ a


@pytest.mark.parametrize("rows", [[[1, 2], [2, 4]], [[2, 0], [0, 1]], [[0]],
                                  [[1, 0]], [[1], [0]]])
def test_matrix_inverse_refuses_non_unimodular(rows):
    # singular, det 2, zero, and two non-square shapes
    with pytest.raises(DeterminantError, match="not invertible over the integers"):
        matrix_inverse_unimodular(Mat.from_rows(rows))


def test_conjugated_config_refuses_non_unimodular():
    cfg = load_config("swap_q3_n2")
    for rows in ([[2, 0], [0, 1]], [[1, 2], [2, 4]]):
        with pytest.raises(ConfigError, match="^base change matrix must be unimodular$"):
            conjugated_config(cfg, Mat.from_rows(rows))


def test_conjugated_config_refuses_wrong_size():
    # a unimodular p of another size used to fail inside a matrix product;
    # a p that is not rank x rank gets this message, square or not
    cfg = load_config("swap_q3_n2")
    wrong = [Mat.identity(1), Mat.identity(3), Mat.from_rows([[1, 0]]),
             Mat.from_rows([[1, 0, 0], [0, 1, 0]]), Mat.from_rows([[1, 0], [0, 1], [0, 0]])]
    for p in wrong:
        with pytest.raises(ConfigError, match=f"^base change matrix is {p.rows} x {p.cols}, "
                                              "expected 2 x 2 for the datum's rank$"):
            conjugated_config(cfg, p)



def test_group_elements_are_computed_once_per_datum(monkeypatch):
    d = dataclasses.replace(validate(load_config("rot4_r2_q5_n4")))
    real, calls = CoverDatum._matrices, []

    def counted(self, perms):
        calls.append(perms)
        return real(self, perms)

    monkeypatch.setattr(CoverDatum, "_matrices", counted)
    assert d.group_elements is d.group_elements and len(calls) == 1
    assert len(d.group_elements) == d.group_order == 4 and "group_elements" in vars(d)
    copy = dataclasses.replace(d)
    assert "group_elements" not in vars(copy) and copy == d and hash(copy) == hash(d)
    assert copy.group_elements == d.group_elements and len(calls) == 2
