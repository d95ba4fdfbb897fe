"""Laurent loop kernels: packed real-form loops against the 2x2 references,
and the reference products, inverses and evaluation themselves."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import psfront as pf
from psfront import loops
from psfront.loops import SingularSeriesError, TruncationOverflowError

I2 = np.eye(2, dtype=complex)
K_ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])
PAULI = np.array([[0.0, 1.0], [1.0, 0.0]], complex)


def random_twisted(rng, k_min, k_max, scale, anchor=False):
    """(D, 2, 2) parity-respecting coefficients on k_min..k_max, decaying
    like scale^|k|."""
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
    return C


def parity_zeros(k_min, n):
    """(n, 2, 2) mask of the entries the twist parity forces to zero."""
    odd = (k_min + np.arange(n)) % 2 == 1
    return np.eye(2, dtype=bool) == odd[:, None, None]


# -- products ---------------------------------------------------------------

def test_identity_is_neutral():
    rng = np.random.default_rng(0)
    a = random_twisted(rng, -3, 3, 0.5)
    prod = loops.mul_coeffs(I2[None], a, 0, -3, -3, 7)
    np.testing.assert_allclose(prod, a, atol=1e-15)


def test_degree_one_rotation_squares_to_minus_lambda_squared():
    a = K_ROT[None].astype(complex)
    sq = loops.mul_coeffs(a, a, 1, 1, 2, 1)
    np.testing.assert_allclose(sq[0], -I2, atol=1e-15)


@settings(max_examples=120)
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


@settings(max_examples=120)
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


@settings(max_examples=120)
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
    prod = loops.mul_coeffs(a, b, -2, -2, -4, 9)
    assert np.all(prod[parity_zeros(-4, 9)] == 0.0)


# -- determinant and reciprocal --------------------------------------------

def test_det_of_identity_is_one():
    d, dmin = loops.det_coeffs(I2[None], 0)
    assert dmin == 0 and np.array_equal(d, [1.0])


def test_det_of_unit_diagonal_is_one():
    th = 0.83
    g = np.diag([np.exp(1j * th), np.exp(-1j * th)])[None]
    d, _ = loops.det_coeffs(g, 0)
    assert abs(d[0] - 1.0) < 1e-15


def test_det_with_negative_degree_block():
    b = 0.7 - 0.4j
    Q = np.array([[0.0, b], [-np.conj(b), 0.0]])
    d, dmin = loops.det_coeffs(np.stack([Q, I2]), -1)
    assert dmin == -2
    assert abs(d[2] - 1.0) < 1e-15
    assert abs(d[0] - abs(b) ** 2) < 1e-15
    assert abs(d[1]) < 1e-15


def test_scalar_reciprocal_geometric_series():
    eps = 0.3
    d = np.array([eps, 0.0, 1.0])               # 1 + eps lam^-2
    r = loops.recip_coeffs(d, -2, -6, 7)
    for j in range(4):
        assert abs(r[6 - 2 * j] - (-eps) ** j) < 1e-14


def test_scalar_reciprocal_random_residual():
    rng = np.random.default_rng(9)
    co = 0.1 * (rng.normal(size=7) + 1j * rng.normal(size=7))
    co[3] += 1.0                                # near-identity pivot
    r = loops.recip_coeffs(co, -3, -8, 17)
    prod = loops.scalar_conv(co, r, -3, -8, -5, 11)
    prod[5] -= 1.0
    assert np.abs(prod).max() < 1e-12


def test_scalar_reciprocal_divergent_neumann_sum_raises():
    d = np.array([0.9, 1.0, 0.9])               # |e| = 1.8 on |lam| = 1
    with pytest.raises(SingularSeriesError, match="not converged"):
        loops.recip_coeffs(d, -1, -8, 17)


def test_scalar_reciprocal_requires_pivot():
    d = np.array([0.0, 1.0])                    # plain lambda, no constant term
    with pytest.raises(SingularSeriesError):
        loops.recip_coeffs(d, 0, -2, 5)


def test_scalar_reciprocal_rejects_nan_pivot():
    with pytest.raises(SingularSeriesError, match="non-finite"):
        loops.recip_coeffs(np.array([0.1, np.nan, 0.1]), -1, -2, 5)


def test_scalar_reciprocal_rejects_non_finite_coefficient():
    d = np.array([np.inf, 1.0, 0.1])            # finite pivot
    with pytest.raises(SingularSeriesError, match="non-finite"):
        loops.recip_coeffs(d, -1, -4, 9)


# -- inverses ----------------------------------------------------------------

def test_inverse_of_constant_rotation():
    th = 1.2
    g = np.diag([np.exp(1j * th), np.exp(-1j * th)])[None]
    inv = loops.inverse_coeffs(g, 0, 0, 1)
    np.testing.assert_allclose(
        inv[0], np.diag([np.exp(-1j * th), np.exp(1j * th)]), atol=1e-15)


def test_inverse_round_trip_on_window():
    rng = np.random.default_rng(11)
    a = random_twisted(rng, -3, 3, 0.25, anchor=True)
    inv = loops.inverse_coeffs(a, -3, -12, 25)
    prod = loops.mul_coeffs(a, inv, -3, -12, -6, 13)
    target = np.zeros_like(prod)
    target[6] = I2
    assert loops.sup_abs(prod - target) < 1e-12


def test_inverse_of_identity_plus_negative_part():
    b = 0.4 + 0.2j
    Q = np.array([[0.0, b], [-np.conj(b), 0.0]])
    g = np.stack([Q, I2])
    inv = loops.inverse_coeffs(g, -1, -16, 17)
    prod = loops.mul_coeffs(g, inv, -1, -16, -12, 13)
    target = np.zeros_like(prod)
    target[12] = I2
    assert loops.sup_abs(prod - target) < 1e-12


# -- evaluation --------------------------------------------------------------

def test_eval_scales_degrees():
    np.testing.assert_allclose(loops.eval_coeffs(K_ROT[None], 1, 2.0),
                               2.0 * K_ROT, atol=1e-15)


def exp_loop(xval, n_deg=16):
    """Truncated series of exp((i/2) x lam P) on degrees 0..n_deg."""
    C = np.zeros((n_deg + 1, 2, 2), complex)
    for k in range(n_deg + 1):
        C[k] = np.linalg.matrix_power(0.5j * xval * PAULI, k) / math.factorial(k)
    return C


def test_eval_matches_matrix_exponential():
    got = loops.eval_coeffs(exp_loop(1.0), 0, 1.0)
    assert loops.sup_abs(got - expm(0.5j * PAULI)) < 1e-13


def test_eval_homomorphism_window_sweep():
    rng = np.random.default_rng(3)
    a = random_twisted(rng, -6, 6, 0.8)
    b = random_twisted(rng, -6, 6, 0.8)
    target = loops.eval_coeffs(a, -6, 1.0) @ loops.eval_coeffs(b, -6, 1.0)
    errs = []
    for w in (8, 16, 32):
        prod = loops.mul_coeffs(a, b, -6, -6, -w, 2 * w + 1)
        errs.append(loops.sup_abs(loops.eval_coeffs(prod, -w, 1.0) - target))
    assert errs[0] > errs[1]            # window 8 clips real content
    assert errs[1] >= errs[2]
    assert errs[2] < 1e-12              # window 32 holds the full product


# -- unitarity ---------------------------------------------------------------

def test_truncated_exponential_is_unitary():
    C = exp_loop(1.0)
    assert max(loops.unitarity_residual(loops.eval_coeffs(C, 0, lam))
               for lam in (0.5, 1.0, 2.0)) < 1e-10


def test_scaled_identity_is_flagged():
    U = loops.eval_coeffs(1.1 * I2[None], 0, 1.0)
    assert loops.unitarity_residual(U) >= 0.21 - 1e-12


@settings(max_examples=120)
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


# -- degree cap --------------------------------------------------------------

def test_window_overflow_raises():
    # the ladder's truncation degree is the one window a caller chooses
    grid = np.linspace(-2, 2, 17)
    spec = pf.preset_by_name("pseudosphere")
    fam = pf.integrate_half_frame(spec, "x", grid, n_trunc=loops.MAX_DEGREE)
    assert fam.coeffs.shape == (17, loops.MAX_DEGREE + 1)
    with pytest.raises(TruncationOverflowError):
        pf.integrate_half_frame(spec, "x", grid, n_trunc=loops.MAX_DEGREE + 1)
