import dataclasses
import random

import pytest

from packetgroup.datum import validate
from packetgroup.linalg import Mat, NotASublattice, Sublattice
from packetgroup.oracle import brute_radical, subgroup_from_generators
from packetgroup.randomgen import random_valid_datum
from packetgroup.sharp import (fixed_lattice, radical_of_induced_form, sharp,
                               y_gamma_sharp, y_sharp)

from conftest import load_config


def test_fixed_lattice_examples():
    swap = validate(load_config("swap_q3_n2"))
    assert fixed_lattice(swap).basis.columns() == [(1, 1)]
    ram = validate(load_config("ramified_r1_q7_n3"))
    assert fixed_lattice(ram).rank == 0
    split = validate(load_config("split_r2_q5_n4"))
    assert fixed_lattice(split).is_full


def test_sharp_examples():
    b = Mat.from_rows([[0, 1], [1, 0]])
    assert sharp(b, 2, Sublattice.full(2)) == Sublattice.scaled(2, 2)
    assert sharp(b, 2, Sublattice.from_columns(2, [[1, 1]])) == \
        Sublattice.from_columns(2, [[1, 1], [0, 2]])
    assert sharp(b, 1, Sublattice.full(2)).is_full
    assert sharp(Mat.zeros(2, 2), 5, Sublattice.full(2)).is_full


def test_sharp_chain_and_stability():
    rng = random.Random(31)
    for _ in range(40):
        d = random_valid_datum(rng)
        s = y_sharp(d)
        g = y_gamma_sharp(d)
        n_lat = Sublattice.scaled(d.rank, d.n)
        assert s.contains(n_lat)
        assert g.contains(s)
        assert Sublattice.full(d.rank).contains(g)
        for a in d.generators:
            assert s.image_under(a) == s
            assert g.image_under(a) == g


def test_sharp_antitone():
    rng = random.Random(77)
    for _ in range(30):
        d = random_valid_datum(rng)
        small = Sublattice.scaled(d.rank, 2)
        big = Sublattice.full(d.rank)
        assert sharp(d.bilinear, d.n, small).contains(sharp(d.bilinear, d.n, big))


def test_radical_examples():
    swap = validate(load_config("swap_q3_n2"))
    rad = radical_of_induced_form(swap, y_sharp(swap), y_sharp(swap))
    assert rad.is_trivial

    # n = 1: trivial quotients, trivial radical
    cfg = load_config("swap_q3_n2") | {"n": 1}
    d1 = validate(cfg)
    assert radical_of_induced_form(d1, y_sharp(d1), y_sharp(d1)).is_trivial

    # zero form: full annihilators, trivial radical on trivial quotients
    cfg = {"rank": 2, "inertia_gens": [], "frobenius": [[1, 0], [0, 1]],
           "q": 3, "n": 2, "Q_upper": [[0, 0], [0, 0]]}
    d0 = validate(cfg)
    assert radical_of_induced_form(d0, Sublattice.full(2),
                                   Sublattice.full(2)).is_trivial


def test_radical_precondition():
    swap = validate(load_config("swap_q3_n2"))
    with pytest.raises(NotASublattice):
        radical_of_induced_form(swap, Sublattice.full(2), y_sharp(swap))


def test_radical_brute_cross_check():
    rng = random.Random(4242)
    for _ in range(25):
        d = random_valid_datum(rng, ranks=(1, 2, 3))
        rad = radical_of_induced_form(d, y_sharp(d), y_sharp(d))
        assert rad.is_trivial
        if d.n ** d.rank <= 10 ** 4:
            brute = brute_radical(d.bilinear.to_rows(), d.n)
            lat = y_sharp(d)
            gens = [lat.basis.col(j) for j in range(lat.rank)]
            assert subgroup_from_generators(d.n, d.rank, gens) == brute



def test_replaced_datum_recomputes_its_sharp_lattices():
    # the level-free data live on the datum, out of eq, hash and repr, and a
    # dataclasses.replace copy starts without them
    cfg = load_config("rot4_r2_q5_n4")
    d = validate(cfg)
    kept = y_sharp(d)
    plain = validate(cfg)
    assert (d, hash(d), repr(d)) == (plain, hash(plain), repr(plain))
    copy, fresh = dataclasses.replace(d, n=2), validate(cfg | {"n": 2})
    assert y_sharp(copy) == y_sharp(fresh) != kept
    assert y_gamma_sharp(copy) == y_gamma_sharp(fresh)
    assert y_sharp(d) is kept
