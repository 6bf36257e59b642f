"""The exact kernel's normal forms against sympy's, an independent implementation.

sympy is used by these tests only; the package itself keeps no dependencies.
Matrices reach rank 8, modular spans rank 12, and entries of about 200 bits.
"""

import random
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form  # noqa: E402

from conftest import permutation_group_config, twisted_stack  # noqa: E402
from packetgroup.linalg import (Mat, Sublattice, column_hnf, congruence_lattice,  # noqa: E402
                                kernel_lattice, preimage_mod, quotient_invariants, smith)

BIG = 2 ** 195
small_entries = st.integers(-3, 3)
mixed_entries = st.one_of(st.integers(-9, 9), st.integers(-BIG, BIG))


def _mat(draw, rows, cols, elements):
    return Mat.from_rows(draw(st.lists(st.lists(elements, min_size=cols, max_size=cols),
                                       min_size=rows, max_size=rows)), cols=cols)


@st.composite
def structured_matrices(draw, max_dim=8):
    """A @ diag(s) @ B: any rank up to max_dim and nontrivial invariant factors."""
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    k = draw(st.integers(1, max_dim))
    a = _mat(draw, r, k, small_entries)
    s = draw(st.lists(st.integers(0, 12), min_size=k, max_size=k))
    b = _mat(draw, k, c, mixed_entries)
    return a @ Mat(k, k, tuple(s[i] if i == j else 0 for i in range(k) for j in range(k))) @ b


def _dense(rows, cols, seed):
    """A matrix of random 200-bit entries."""
    rng = random.Random(seed)
    return Mat(rows, cols, tuple(rng.getrandbits(200) - 2 ** 199 for _ in range(rows * cols)))


def _sympy(m):
    return sympy.Matrix(m.rows, m.cols, list(m.entries))


def _sympy_factors(m):
    """Nonzero invariant factors of m, by sympy's Smith normal form."""
    snf = smith_normal_form(_sympy(m), domain=sympy.ZZ)
    return tuple(abs(int(snf[i, i])) for i in range(min(m.rows, m.cols)) if snf[i, i])


def _flipped_sympy_hnf(m):
    """sympy's HNF of m with the order of rows and of columns reversed.

    sympy's HNF is upper triangular (Cohen, GTM 138, 2.4.2); the reversal
    turns it into this package's convention for m with its rows reversed,
    and both are canonical, so the bases agree exactly.
    """
    w = hermite_normal_form(_sympy(m))
    return Mat.from_rows([[int(x) for x in row[::-1]] for row in w.tolist()[::-1]],
                         cols=w.shape[1])


@given(structured_matrices())
@settings(deadline=None, max_examples=40)
def test_column_hnf_matches_sympy(m):
    want = _flipped_sympy_hnf(m)
    flipped = Mat.from_rows(m.to_rows()[::-1], cols=m.cols)
    assert column_hnf(flipped) == want
    assert Sublattice.from_matrix(flipped).basis == want


@given(structured_matrices(max_dim=12),
       st.one_of(st.integers(1, 60), st.integers(1, BIG).map(lambda x: 12 * x)))
@example(_dense(12, 12, 0), 2 ** 199 + 1)
@example(_dense(12, 12, 1), 12 * 2 ** 195)
@settings(deadline=None, max_examples=30)
def test_modular_span_matches_sympy(m, d):
    # span(m) + d Z^rows is the exact HNF of [d I | m], oriented as above;
    # sympy eliminates fast with the d I columns first
    want = _flipped_sympy_hnf(Mat.identity(m.rows).scale(d).hstack(m))
    flipped = Mat.from_rows(m.to_rows()[::-1], cols=m.cols)
    assert Sublattice.from_columns(m.rows, flipped.columns(), modulus=d).basis == want


@given(structured_matrices())
# a -1 pivot tied with later +-1 entries, a tall stack of twisted conditions
# and a non-unit pivot that needs the stray-entry fold
@example(Mat.from_rows([[3, -1, 1], [1, 2, -1], [-1, 1, 5]]))
@example(twisted_stack(permutation_group_config("B", 3)))
@example(Mat.from_rows([[2, 0], [0, 3]]))
@settings(deadline=None, max_examples=40)
def test_smith_matches_sympy(m):
    assert smith(m).d == _sympy_factors(m)


@given(structured_matrices(),
       st.one_of(st.just(0), st.integers(1, 60), st.integers(1, BIG).map(lambda x: 12 * x)))
@example(Mat.from_rows([[2]]), 4)
@example(Mat.from_rows([[6, 0], [0, 4]]), 8)
@settings(deadline=None, max_examples=40)
def test_congruence_lattice_matches_sympy(m, n):
    # n = 0 asks for the exact kernel, which kernel_lattice computes
    if n:
        dec = smith(m)
        lat = congruence_lattice(dec.V, dec.d, n)
        assert preimage_mod(m, n) == lat
    else:
        lat = kernel_lattice(m)
    basis = _sympy(lat.basis)
    # every basis vector solves m x == 0 mod n
    for col in lat.basis.columns():
        image = [sum(m.entries[i * m.cols + j] * x for j, x in enumerate(col))
                 for i in range(m.rows)]
        assert all((v % n if n else v) == 0 for v in image)
    if n == 0:
        # the kernel has rank cols - rank(m) and is saturated, so no larger
        # lattice of solutions exists
        assert lat.rank == m.cols - _sympy(m).rank()
        assert _sympy_factors(lat.basis) == (1,) * lat.rank
        return
    # [Z^c : L] = |m Z^c + n Z^r / n Z^r| = n^r / [Z^r : m Z^c + n Z^r]
    assert lat.rank == m.cols
    relations = m.hstack(Mat(m.rows, m.rows, tuple(
        n if i == j else 0 for i in range(m.rows) for j in range(m.rows))))
    assert abs(int(basis.det())) == n ** m.rows // prod(_sympy_factors(relations))


@given(structured_matrices(), st.data())
@settings(deadline=None, max_examples=40)
def test_quotient_invariants_matches_sympy(m, data):
    sup = Sublattice.from_matrix(m)
    k = sup.rank
    # lower triangular with a nonzero diagonal times unipotent upper
    # triangular: x is nonsingular
    low = _mat(data.draw, k, k, st.integers(-6, 6)).entries
    up = _mat(data.draw, k, k, st.integers(-6, 6)).entries
    diag = data.draw(st.lists(st.integers(1, 12), min_size=k, max_size=k))
    x = Mat(k, k, tuple(diag[i] if i == j else low[i * k + j] if j < i else 0
                        for i in range(k) for j in range(k))) @ Mat(
        k, k, tuple(1 if i == j else up[i * k + j] if j > i else 0
                    for i in range(k) for j in range(k)))
    sub = Sublattice.from_matrix(sup.basis @ x)
    # sup / sub is Z^k / x Z^k in the basis of sup
    want = tuple(f for f in _sympy_factors(x) if f != 1)
    assert quotient_invariants(sup, sub).invariant_factors == want
