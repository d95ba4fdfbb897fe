"""Twisted-loop arithmetic: products, inverses, evaluation, structure checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import psfront as pf
from psfront import loops
from psfront.loops import (ParityError, ScalarLaurent, SingularSeriesError,
                           TruncationOverflowError, TwistedLoop)

K_ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])
PAULI = np.array([[0.0, 1.0], [1.0, 0.0]], complex)


def random_twisted(rng, k_min, k_max, scale, anchor=False):
    """Parity-respecting loop with coefficients decaying like scale^|k|."""
    n = k_max - k_min + 1
    C = np.zeros((n, 2, 2), complex)
    for i in range(n):
        k = k_min + i
        z = (rng.normal(size=2) + 1j * rng.normal(size=2)) * scale ** abs(k)
        if k % 2 == 0:
            C[i, 0, 0], C[i, 1, 1] = z
        else:
            C[i, 0, 1], C[i, 1, 0] = z
    if anchor:
        C[-k_min, 0, 0] += 2.0
        C[-k_min, 1, 1] += 2.0
    return TwistedLoop(k_min, C)


# -- products ---------------------------------------------------------------

def test_identity_is_neutral():
    rng = np.random.default_rng(0)
    a = random_twisted(rng, -3, 3, 0.5)
    prod = pf.loop_mul(pf.identity_loop(), a)
    assert prod.window == a.window
    np.testing.assert_allclose(prod.coeffs, a.coeffs, atol=1e-15)


def test_degree_one_rotation_squares_to_minus_lambda_squared():
    a = pf.from_coeff(1, K_ROT)
    sq = pf.loop_mul(a, a)
    assert sq.window == (2, 2)
    np.testing.assert_allclose(sq.coeff(2), -np.eye(2), atol=1e-15)


@settings(max_examples=120, deadline=None)
@given(st.integers(-6, 0), st.integers(0, 5), st.integers(-6, 0),
       st.integers(0, 5), st.integers(-10, 0), st.integers(0, 12),
       st.integers(0, 2 ** 31 - 1))
def test_product_coefficients_match_brute_force(amin, alen, bmin, blen,
                                                outmin, outlen, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(alen + 1, 2, 2)) + 1j * rng.normal(size=(alen + 1, 2, 2))
    B = rng.normal(size=(blen + 1, 2, 2)) + 1j * rng.normal(size=(blen + 1, 2, 2))
    got = loops.mul_coeffs(A, B, amin, bmin, outmin, outlen + 1)
    want = np.zeros((outlen + 1, 2, 2), complex)
    for i in range(A.shape[0]):
        for j in range(B.shape[0]):
            d = amin + i + bmin + j - outmin
            if 0 <= d <= outlen:
                want[d] += A[i] @ B[j]
    assert loops.sup_abs(got - want) < 1e-13 * max(1.0, loops.sup_abs(want))


@settings(max_examples=120, deadline=None)
@given(st.integers(-6, 0), st.integers(0, 5), st.integers(-6, 0),
       st.integers(0, 5), st.integers(-10, 0), st.integers(0, 12),
       st.integers(0, 2 ** 31 - 1))
def test_packed_product_matches_full_product(amin, alen, bmin, blen,
                                             outmin, outlen, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, alen + 1)) + 1j * rng.normal(size=(3, alen + 1))
    b = rng.normal(size=(3, blen + 1)) + 1j * rng.normal(size=(3, blen + 1))
    A, B = loops.unpack(a, amin), loops.unpack(b, bmin)
    assert np.array_equal(loops.pack(A, amin), a)
    assert np.array_equal(loops.unpack(loops.pack(A, amin), amin), A)
    want = loops.mul_coeffs(A, B, amin, bmin, outmin, outlen + 1)
    got = loops.unpack(loops.packed_mul(a, b, amin, bmin, outmin, outlen + 1),
                       outmin)
    assert loops.sup_abs(got - want) < 1e-13 * max(1.0, loops.sup_abs(want))
    adj = loops.unpack(loops.packed_adjugate(a, amin), amin)
    assert np.array_equal(adj, loops.adjugate_coeffs(A))


@settings(max_examples=120, deadline=None)
@given(st.integers(-6, 0), st.integers(0, 5), st.floats(0.25, 4.0),
       st.integers(0, 2 ** 31 - 1))
def test_packed_eval_matches_full_eval(kmin, klen, lam, seed):
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(3, klen + 1)) + 1j * rng.normal(size=(3, klen + 1))
    C = loops.unpack(p, kmin)
    row, row_t = loops.packed_eval(p, kmin, lam)
    want = loops.eval_coeffs(C, kmin, lam)[:, 0]
    want_t = sum(k * lam ** k * C[:, i, 0]
                 for i, k in enumerate(range(kmin, kmin + klen + 1)))
    assert row.shape == row_t.shape == (3, 2)
    assert loops.sup_abs(row - want) < 1e-13 * max(1.0, loops.sup_abs(want))
    assert loops.sup_abs(row_t - want_t) < 1e-13 * max(1.0,
                                                       loops.sup_abs(want_t))


def test_product_parity_is_closed():
    rng = np.random.default_rng(5)
    a = random_twisted(rng, -2, 2, 0.7)
    b = random_twisted(rng, -2, 2, 0.7)
    prod = pf.loop_mul(a, b, window=(-4, 4))
    assert loops.parity_violation(prod.coeffs, prod.k_min) == 0.0


# -- determinant and reciprocal --------------------------------------------

def test_det_of_identity_is_one():
    d = pf.loop_det(pf.identity_loop())
    assert d.coeff(0) == 1.0 and abs(d.coeff(2)) == 0.0


def test_det_of_unit_diagonal_is_one():
    th = 0.83
    g = pf.from_coeff(0, np.diag([np.exp(1j * th), np.exp(-1j * th)]))
    d = pf.loop_det(g)
    assert abs(d.coeff(0) - 1.0) < 1e-15


def test_det_with_negative_degree_block():
    b = 0.7 - 0.4j
    Q = np.array([[0.0, b], [-np.conj(b), 0.0]])
    g = TwistedLoop(-1, np.stack([Q, np.eye(2)]))
    d = pf.loop_det(g)
    assert abs(d.coeff(0) - 1.0) < 1e-15
    assert abs(d.coeff(-2) - abs(b) ** 2) < 1e-15
    assert abs(d.coeff(-1)) < 1e-15


def test_scalar_reciprocal_geometric_series():
    eps = 0.3
    d = ScalarLaurent(-2, np.array([eps, 0.0, 1.0]))  # 1 + eps lam^-2
    r = pf.scalar_reciprocal(d, (-6, 0))
    for j in range(4):
        assert abs(r.coeff(-2 * j) - (-eps) ** j) < 1e-14


def test_scalar_reciprocal_random_residual():
    rng = np.random.default_rng(9)
    co = 0.1 * (rng.normal(size=7) + 1j * rng.normal(size=7))
    co[3] += 1.0                                # near-identity pivot
    d = ScalarLaurent(-3, co)
    r = pf.scalar_reciprocal(d, (-8, 8))
    prod = loops.scalar_conv(d.coeffs, r.coeffs, d.k_min, r.k_min, -5, 11)
    prod[5] -= 1.0
    assert np.abs(prod).max() < 1e-12


def test_scalar_reciprocal_divergent_neumann_sum_raises():
    d = ScalarLaurent(-1, np.array([0.9, 1.0, 0.9]))  # |e| = 1.8 on |lam| = 1
    with pytest.raises(SingularSeriesError, match="not converged"):
        pf.scalar_reciprocal(d, (-8, 8))


def test_scalar_reciprocal_requires_pivot():
    d = ScalarLaurent(0, np.array([0.0, 1.0]))  # plain lambda, no constant term
    with pytest.raises(SingularSeriesError):
        pf.scalar_reciprocal(d, (-2, 2))


def test_scalar_reciprocal_rejects_nan_pivot():
    with pytest.raises(SingularSeriesError, match="non-finite"):
        loops.recip_coeffs(np.array([0.1, np.nan, 0.1]), -1, -2, 5)


def test_scalar_reciprocal_rejects_non_finite_coefficient():
    d = ScalarLaurent(-1, np.array([np.inf, 1.0, 0.1]))   # finite pivot
    with pytest.raises(SingularSeriesError, match="non-finite"):
        pf.scalar_reciprocal(d, (-4, 4))


# -- inverses ----------------------------------------------------------------

def test_inverse_of_constant_rotation():
    th = 1.2
    g = pf.from_coeff(0, np.diag([np.exp(1j * th), np.exp(-1j * th)]))
    inv = pf.loop_inverse(g, window=(0, 0))
    np.testing.assert_allclose(
        inv.coeff(0), np.diag([np.exp(-1j * th), np.exp(1j * th)]), atol=1e-15)


def test_inverse_round_trip_on_window():
    rng = np.random.default_rng(11)
    a = random_twisted(rng, -3, 3, 0.25, anchor=True)
    inv = pf.loop_inverse(a, window=(-12, 12))
    prod = pf.loop_mul(a, inv, window=(-6, 6))
    target = np.zeros_like(prod.coeffs)
    target[6] = np.eye(2)
    assert loops.sup_abs(prod.coeffs - target) < 1e-12


def test_inverse_of_identity_plus_negative_part():
    b = 0.4 + 0.2j
    Q = np.array([[0.0, b], [-np.conj(b), 0.0]])
    g = TwistedLoop(-1, np.stack([Q, np.eye(2)]))
    inv = pf.loop_inverse(g, window=(-16, 0))
    prod = pf.loop_mul(g, inv, window=(-12, 0))
    target = np.zeros_like(prod.coeffs)
    target[12] = np.eye(2)
    assert loops.sup_abs(prod.coeffs - target) < 1e-12


# -- evaluation --------------------------------------------------------------

def test_eval_scales_degrees():
    a = pf.from_coeff(1, K_ROT)
    np.testing.assert_allclose(pf.loop_eval(a, 2.0), 2.0 * K_ROT, atol=1e-15)


def test_eval_rejects_zero():
    with pytest.raises(ValueError):
        pf.loop_eval(pf.identity_loop(), 0.0)


def exp_loop(xval, n_deg=16):
    """Truncated series of exp((i/2) x lam P) as a twisted loop."""
    C = np.zeros((n_deg + 1, 2, 2), complex)
    for k in range(n_deg + 1):
        C[k] = np.linalg.matrix_power(0.5j * xval * PAULI, k) / math.factorial(k)
    return TwistedLoop(0, C)


def test_eval_matches_matrix_exponential():
    a = exp_loop(1.0)
    assert loops.sup_abs(pf.loop_eval(a, 1.0) - expm(0.5j * PAULI)) < 1e-13


def test_eval_homomorphism_window_sweep():
    rng = np.random.default_rng(3)
    a = random_twisted(rng, -6, 6, 0.8)
    b = random_twisted(rng, -6, 6, 0.8)
    target = pf.loop_eval(a, 1.0) @ pf.loop_eval(b, 1.0)
    errs = []
    for w in (8, 16, 32):
        prod = pf.loop_mul(a, b, window=(-w, w))
        errs.append(loops.sup_abs(pf.loop_eval(prod, 1.0) - target))
    assert errs[0] > errs[1]            # window 8 clips real content
    assert errs[1] >= errs[2]
    assert errs[2] < 1e-12              # window 32 holds the full product


# -- unitarity ---------------------------------------------------------------

def test_truncated_exponential_is_unitary():
    a = exp_loop(1.0)
    assert pf.unitarity_check(a, (0.5, 1.0, 2.0)) < 1e-10


def test_scaled_identity_is_flagged():
    a = pf.from_coeff(0, 1.1 * np.eye(2))
    assert pf.unitarity_check(a, (1.0,)) >= 0.21 - 1e-12
    assert pf.unitarity_check(a, ()) == 0.0


@settings(max_examples=120, deadline=None)
@given(st.integers(-6, 0), st.integers(0, 5), st.floats(0.5, 2.0),
       st.integers(0, 1), st.integers(0, 2 ** 31 - 1))
def test_packed_unitarity_matches_unitarity_residual(kmin, klen, lam, entry,
                                                     seed):
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(3, klen + 1)) + 1j * rng.normal(size=(3, klen + 1))
    U = loops.eval_coeffs(loops.unpack(p, kmin), kmin, lam)
    row = U[:, 0]
    want = loops.unitarity_residual(U)
    assert abs(loops.packed_unitarity(row) - want) <= 1e-15 * max(1.0, want)
    row[1, entry] = np.nan
    assert math.isnan(loops.packed_unitarity(row))


@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_unitarity_residual_sees_nan_in_any_entry(entry):
    U = np.tile(np.eye(2, dtype=complex), (3, 1, 1))
    U[1][entry] = np.nan
    assert np.isnan(loops.unitarity_residual(U))


def test_unitarity_residual_matches_matrix_form():
    rng = np.random.default_rng(5)
    U = rng.normal(size=(40, 2, 2)) + 1j * rng.normal(size=(40, 2, 2))
    un = np.abs(U @ U.conj().swapaxes(-1, -2) - np.eye(2)).max()
    det = np.abs(np.linalg.det(U) - 1.0).max()
    assert loops.unitarity_residual(U) == pytest.approx(max(un, det),
                                                        rel=1e-14)


# -- structure validation ----------------------------------------------------

def test_parity_violation_raises():
    C = np.zeros((1, 2, 2), complex)
    C[0, 0, 1] = 1e-3                   # off-diagonal entry at even degree
    with pytest.raises(ParityError):
        TwistedLoop(0, C)
    C[0, 0, 1] = np.nan
    with pytest.raises(ParityError):
        TwistedLoop(0, C)


def test_small_parity_noise_is_cleaned():
    C = np.zeros((1, 2, 2), complex)
    C[0, 0, 0] = 1.0
    C[0, 0, 1] = 1e-14
    a = TwistedLoop(0, C)
    assert a.coeffs[0, 0, 1] == 0.0


def test_window_overflow_raises():
    with pytest.raises(TruncationOverflowError):
        TwistedLoop(0, np.zeros((loops.MAX_DEGREE + 2, 2, 2)))
    a = pf.from_coeff(0, np.eye(2))
    with pytest.raises(TruncationOverflowError):
        pf.loop_mul(a, a, window=(-80, 80))


def test_coeff_outside_window_is_zero():
    a = pf.from_coeff(1, K_ROT)
    assert np.all(a.coeff(3) == 0.0)
    assert a.window == (1, 1)
