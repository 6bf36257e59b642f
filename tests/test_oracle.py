import pytest

from packetgroup.datum import validate
from packetgroup.linalg import Sublattice
from packetgroup.oracle import (CapExceeded, NotASubgroup, _abelian_chains,
                                brute_invariant_points, brute_iota_image,
                                brute_quotient, brute_radical, subgroup_from_generators)

from conftest import load_config


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


def test_abelian_chains():
    assert set(_abelian_chains(4)) == {(4,), (2, 2)}
    assert set(_abelian_chains(12)) == {(12,), (2, 6)}
    assert set(_abelian_chains(8)) == {(8,), (2, 4), (2, 2, 2)}
    assert _abelian_chains(1) == [()]


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
    from packetgroup.sharp import y_gamma_sharp, y_sharp
    for lat, want in ((y_gamma_sharp(swap), {(0, 0), (1, 1)}),
                      (y_sharp(swap), {(0, 0)})):
        points = brute_invariant_points(swap, lat, 1)
        assert brute_iota_image(points, lat, swap.q - 1) == frozenset(want)
