import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packetgroup.datum import NotPrimePower
from packetgroup.linalg import Mat, Sublattice
from packetgroup.oracle import brute_radical, subgroup_from_generators
from packetgroup.symbols import (SymbolError, TameField, commutator, dlog_table,
                                 elt_mul, elt_neg, hilbert, split_center_image,
                                 steinberg_violations)


def test_field_validation():
    TameField(9, 4)
    with pytest.raises(SymbolError):
        TameField(7, 4)
    with pytest.raises(NotPrimePower):
        TameField(6, 1)


def test_hilbert_examples():
    f = TameField(3, 2)
    assert hilbert(f, f.element(0, 0), f.element(0, 1)) == 0
    assert hilbert(f, f.element(1, 0), f.element(1, 0)) == 1
    f = TameField(7, 3)
    assert hilbert(f, f.element(1, 0), f.element(0, 1)) == 2


def test_minus_one_dlog():
    assert TameField(9, 8).minus_one_dlog == 4
    assert TameField(4, 3).minus_one_dlog == 0
    assert TameField(7, 6).minus_one_dlog == 3


fields = st.sampled_from([(q, n) for q in (3, 5, 7, 9, 13)
                          for n in range(1, q) if (q - 1) % n == 0])


@given(fields, st.integers(-3, 3), st.integers(0, 12), st.integers(-3, 3),
       st.integers(0, 12), st.integers(-3, 3), st.integers(0, 12))
@settings(deadline=None)
def test_symbol_laws(field, va, ua, vb, ub, vc, uc):
    q, n = field
    f = TameField(q, n)
    a, b, c = f.element(va, ua), f.element(vb, ub), f.element(vc, uc)
    assert (hilbert(f, a, b) + hilbert(f, b, a)) % n == 0
    assert hilbert(f, a, elt_neg(f, a)) == 0
    assert hilbert(f, elt_mul(f, a, c), b) == \
        (hilbert(f, a, b) + hilbert(f, c, b)) % n


def test_steinberg_primes():
    for q in (2, 3, 5, 7, 11, 13, 101):
        for n in [d for d in range(1, q) if (q - 1) % d == 0]:
            assert steinberg_violations(TameField(q, n)) == []


def test_dlog_table():
    table = dlog_table(7)
    # 3 is the least primitive root mod 7
    assert table[3] == 1 and table[1] == 0
    for x in range(1, 7):
        assert pow(3, table[x], 7) == x
    with pytest.raises(NotPrimePower):
        dlog_table(9)
    # F_2^x = {1} is generated by 1
    assert dlog_table(2) == (-1, 0)


def test_dlog_table_over_the_primes_below_300():
    primes = [q for q in range(2, 300) if all(q % p for p in range(2, q))]
    for q in primes:
        # the least g whose powers reach every unit
        g = next(g for g in range(1, q) if len({pow(g, i, q) for i in range(q - 1)}) == q - 1)
        table = dlog_table(q)
        assert len(table) == q and table[0] == -1
        assert all(pow(g, table[x], q) == x for x in range(1, q)), q


def test_commutator_examples():
    f = TameField(3, 2)
    b = Mat.from_rows([[0, 1], [0, 0]])
    s = [f.element(1, 0), f.element(0, 0)]
    t = [f.element(0, 0), f.element(1, 0)]
    assert commutator(f, b, s, t) == 1
    assert commutator(f, Mat.zeros(2, 2), s, t) == 0
    # even form in degree two is always zero
    f1 = TameField(3, 2)
    assert commutator(f1, Mat.from_rows([[2]]),
                      [f1.element(3, 1)], [f1.element(-2, 1)]) == 0
    with pytest.raises(SymbolError):
        commutator(f, b, s[:1], t)


def test_split_center_examples():
    rep = split_center_image(TameField(3, 2), Mat.identity(2).scale(2))
    assert rep.equal and rep.radical.is_full
    rep = split_center_image(TameField(3, 2), Mat.from_rows([[0, 1], [1, 0]]))
    assert rep.equal
    assert rep.radical == Sublattice.scaled(4, 2)
    rep = split_center_image(TameField(3, 2), Mat.from_rows([[2]]))
    assert rep.equal and rep.radical.is_full


def test_split_center_brute_cross_check():
    rng = random.Random(808)
    for _ in range(20):
        q = rng.choice([3, 5, 7, 9, 13])
        n = rng.choice([d for d in range(2, q) if (q - 1) % d == 0] or [1])
        r = rng.randint(1, 2)
        rows = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(r)]
        f = TameField(q, n)
        rep = split_center_image(f, Mat.from_rows(rows))
        assert rep.equal
        if n ** (2 * r) <= 10 ** 4:
            brute = brute_radical(rep.gram.to_rows(), n)
            gens = [rep.radical.basis.col(j) for j in range(rep.radical.rank)]
            assert subgroup_from_generators(n, 2 * r, gens) == brute
