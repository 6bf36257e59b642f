import random
import time

import pytest

from packetgroup.datum import (ConfigError, DeterminantError, FormNotInvariant,
                               GroupNotFinite, InertiaNotNormalized, NotPrimePower,
                               RamificationGcdError, RootsOfUnityError,
                               conjugated_config, fold_upper,
                               prime_power_decomposition, validate)
from packetgroup.linalg import Mat
from packetgroup.randomgen import random_unimodular

from conftest import load_config, permutation_group_config


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
    d = validate(cfg, allow_gcd_violation=True)
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
    with pytest.raises(FormNotInvariant):
        validate(cfg)
    # invariant bilinear form but quadratic diagonal differs
    cfg = {"rank": 2, "inertia_gens": [], "frobenius": [[0, 1], [1, 0]],
           "q": 3, "n": 2, "Q_upper": [[1, 2], [0, -1]]}
    with pytest.raises(FormNotInvariant):
        validate(cfg)


def test_inertia_not_normalized():
    cfg = {"rank": 2, "inertia_gens": [[[1, 0], [0, -1]]],
           "frobenius": [[0, 1], [1, 0]],
           "q": 3, "n": 1, "Q_upper": [[1, 0], [0, 1]]}
    with pytest.raises(InertiaNotNormalized):
        validate(cfg)


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
