"""Truncated Laurent loops with the twist symmetry, in the SU(2) real form.

A loop is a finite Laurent series sum_k C_k lambda^k with 2x2 complex
coefficients. The twist symmetry g(-lambda) = Ad(sigma3) g(lambda) makes
even-degree coefficients diagonal and odd-degree ones anti-diagonal, and every
loop the frame pipeline makes also lies in the SU(2) real form, with
coefficients [[a, b], [-conj(b), conj(a)]]. Together that is one complex
scalar per degree, stored as a contiguous block plus its lowest degree: the
packed layout of every loop from the ladder to Sym. It cannot express a parity
violation. packed_mul multiplies, packed_adjugate inverts a loop of
determinant 1, packed_eval gives the first row (a, b) and its t-derivative,
packed_unitarity the defect of |a|^2 + |b|^2 = 1; pack and unpack convert to
and from (..., D, 2, 2) coefficient blocks.

Products run through scalar_conv, a shift-add over the coefficients of its
first factor on a fixed output window with free leading batch axes, except
U_hat = U_plus L_minus in frames._uhat: U_plus is fixed along an x row, so
that product is one matmul per row against a Toeplitz matrix of U_plus.
The general complex kernels on 2x2 coefficient blocks (mul_coeffs,
adjugate_coeffs, det_coeffs, recip_coeffs, inverse_coeffs, eval_coeffs,
unitarity_residual) are the references the packed kernels are tested
against; nothing in the pipeline calls them.
"""

import functools

import numpy as np

DEFAULT_TRUNC = 16
MAX_DEGREE = 64                     # hard cap on the ladder's truncation degree
PIVOT_TOL = 1e-12                   # smallest invertible degree-0 coefficient
NEUMANN_MAX_TERMS = 80


class TruncationOverflowError(ValueError):
    """Requested truncation degree exceeds MAX_DEGREE."""


class SingularSeriesError(ValueError):
    """Scalar series has no invertible degree-zero coefficient, or its
    Neumann reciprocal does not converge."""


def sup_abs(arr):
    """Matrix/array norm used throughout: largest absolute entry."""
    arr = np.asarray(arr)
    if arr.size == 0:
        return 0.0
    return float(np.abs(arr).max())


# ---------------------------------------------------------------------------
# batched coefficient kernels (leading axes free)

def scalar_conv(a, b, amin, bmin, outmin, outlen, astep=1):
    """Laurent product of scalar coefficient blocks on a fixed output window.

    a[..., i] multiplies lambda^(amin + astep i), b[..., j] lambda^(bmin + j).
    One batched multiply-add of a shifted slice of b per coefficient of a.
    """
    nb = b.shape[-1]
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (outlen,),
                   complex)
    for i in range(a.shape[-1]):
        shift = amin + astep * i + bmin - outmin      # output slot of b[..., 0]
        lo, hi = max(0, -shift), min(nb, outlen - shift)
        if lo < hi:
            out[..., lo + shift:hi + shift] += a[..., i, None] * b[..., lo:hi]
    return out


def mul_coeffs(A, B, amin, bmin, outmin, outlen):
    """Matrix loop product on a fixed output window. A, B: (..., D, 2, 2).

    The 8 entry products A[r, k] B[k, c] ride on batch axes (r, k, c) of one
    scalar_conv call, with the degree axis moved last.
    """
    A, B = np.moveaxis(A, -3, -1), np.moveaxis(B, -3, -1)
    out = scalar_conv(A[..., :, :, None, :], B[..., None, :, :, :],
                      amin, bmin, outmin, outlen)
    return np.moveaxis(out.sum(axis=-3), -1, -3)


def pack(C, kmin):
    """Packed real form of (..., D, 2, 2) coefficients: one scalar per degree,
    entry (0, 0) on even degrees and entry (0, 1) on odd degrees."""
    odd = (kmin + np.arange(C.shape[-3])) % 2
    return C[..., np.arange(C.shape[-3]), 0, odd]


def unpack(p, kmin):
    """Full (..., D, 2, 2) coefficients of a packed real-form loop."""
    e, o = kmin % 2, (kmin + 1) % 2
    C = np.zeros(p.shape + (2, 2), complex)
    C[..., e::2, 0, 0] = p[..., e::2]
    C[..., e::2, 1, 1] = p[..., e::2].conj()
    C[..., o::2, 0, 1] = p[..., o::2]
    C[..., o::2, 1, 0] = -p[..., o::2].conj()
    return C


def packed_mul(a, b, amin, bmin, outmin, outlen):
    """Product of packed real-form loops on a fixed output window.

    c = conv(a_even, b) + conv(a_odd, s conj(b)), with s = -1 on the odd
    degrees of b: an odd-degree factor on the left conjugates what follows.
    """
    e, o = amin % 2, (amin + 1) % 2
    sb = b.conj()
    sb[..., (bmin + 1) % 2::2] *= -1
    return (scalar_conv(a[..., e::2], b, amin + e, bmin, outmin, outlen, 2)
            + scalar_conv(a[..., o::2], sb, amin + o, bmin, outmin, outlen, 2))


def packed_adjugate(p, kmin):
    """Adjugate of a packed loop: conjugate on even degrees, negate on odd."""
    out = p.conj()
    o = (kmin + 1) % 2
    out[..., o::2] = -p[..., o::2]
    return out


def adjugate_coeffs(C):
    out = np.empty_like(C)
    out[..., 0, 0] = C[..., 1, 1]
    out[..., 1, 1] = C[..., 0, 0]
    out[..., 0, 1] = -C[..., 0, 1]
    out[..., 1, 0] = -C[..., 1, 0]
    return out


def det_coeffs(C, kmin):
    """Determinant series of a matrix loop; returns (coeffs, lowest degree)."""
    n = C.shape[-3]
    det = scalar_conv(C[..., 0, 0], C[..., 1, 1], kmin, kmin, 2 * kmin, 2 * n - 1)
    det -= scalar_conv(C[..., 0, 1], C[..., 1, 0], kmin, kmin, 2 * kmin, 2 * n - 1)
    return det, 2 * kmin


def recip_coeffs(d, dmin, outmin, outlen):
    """Reciprocal of a scalar series via the Neumann sum around its degree-0 term.

    Writes d = d0 (1 - e) with e carrying no degree-0 part, then accumulates
    (1/d0) sum_j e^j on the requested window. Terms outside the window are
    dropped; the error this introduces is of the same order as the window
    truncation already accepted everywhere else. A sum whose terms have not
    fallen below 1e-18 after NEUMANN_MAX_TERMS raises SingularSeriesError, as
    do a degree-0 coefficient below PIVOT_TOL and a NaN or infinite
    coefficient anywhere.
    """
    i0 = -dmin
    if not 0 <= i0 < d.shape[-1]:
        raise SingularSeriesError("series has no degree-0 coefficient")
    if not np.isfinite(d).all():
        raise SingularSeriesError("series has a non-finite coefficient")
    d0 = d[..., i0].copy()
    if not np.abs(d0).min() >= PIVOT_TOL:
        raise SingularSeriesError(
            f"degree-0 coefficient below {PIVOT_TOL:g}, series not invertible")
    e = -d / d0[..., None]
    e[..., i0] += 1.0                           # e = 1 - d/d0
    r = np.zeros(d.shape[:-1] + (outlen,), complex)
    if not outmin <= 0 <= outmin + outlen - 1:
        raise ValueError("reciprocal window must contain degree 0")
    r[..., -outmin] = 1.0
    term = r.copy()
    for _ in range(NEUMANN_MAX_TERMS):
        term = scalar_conv(term, e, outmin, dmin, outmin, outlen)
        if np.abs(term).max() < 1e-18:
            break
        r += term
    else:
        raise SingularSeriesError(
            f"Neumann series not converged after {NEUMANN_MAX_TERMS} terms: "
            f"largest term {np.abs(term).max():.3e}")
    return r / d0[..., None]


def inverse_coeffs(C, kmin, outmin, outlen):
    """Loop inverse as adjugate times determinant reciprocal, window truncated."""
    det, dmin = det_coeffs(C, kmin)
    kmax = kmin + C.shape[-3] - 1
    # adj has degrees [kmin, kmax]; reciprocal needs [outmin - kmax, outmax - kmin],
    # widened to contain 0 so the Neumann pivot sits inside the window
    rmin = min(outmin - kmax, 0)
    rmax = max(outmin + outlen - 1 - kmin, 0)
    recip = recip_coeffs(det, dmin, rmin, rmax - rmin + 1)
    # the four entries of adj times recip, on batch axes of one kernel call
    out = scalar_conv(np.moveaxis(adjugate_coeffs(C), -3, -1),
                      recip[..., None, None, :], kmin, rmin, outmin, outlen)
    return np.moveaxis(out, -1, -3)


def eval_coeffs(C, kmin, lam):
    """Evaluate the loop at a nonzero scalar lambda."""
    degs = kmin + np.arange(C.shape[-3])
    w = np.asarray(lam) ** degs.astype(float)
    return np.einsum("...dab,d->...ab", C, w.astype(complex))


@functools.lru_cache(maxsize=8)
def _eval_weights(kmin, n, lam):
    """packed_eval's read-only (n, 4) weights of degrees kmin.. at lam, built
    once per lam for a caller that evaluates block by block."""
    degs = kmin + np.arange(n)
    w = lam ** degs.astype(float)
    even = degs % 2 == 0
    W = np.stack([w * even, w * ~even, degs * w * even, degs * w * ~even],
                 -1).astype(complex)
    W.flags.writeable = False
    return W


def packed_eval(p, kmin, lam):
    """First rows (a, b) of U(lam) and (a_t, b_t) of dU/dt along lambda = e^t
    (degree k scaled by k) of packed real-form loops at a real lam, each
    (..., 2), from one contraction."""
    W = _eval_weights(kmin, p.shape[-1], float(lam))
    ab = (p @ W).reshape(p.shape[:-1] + (2, 2))
    return ab[..., 0, :], ab[..., 1, :]


def packed_unitarity(row):
    """sup | |a|^2 + |b|^2 - 1 | over first rows (..., 2), NaN if any is."""
    return sup_abs((row * row.conj()).real.sum(axis=-1) - 1.0)


def unitarity_residual(Ue):
    """max(|U U^H - I|, |det U - 1|) over a batch of evaluated loops; NaN
    if U has one. U U^H is Hermitian, so its (1, 0) entry is left out."""
    u00, u01, u10, u11 = Ue[..., 0, 0], Ue[..., 0, 1], Ue[..., 1, 0], Ue[..., 1, 1]
    return float(np.max([
        sup_abs(u00 * u00.conj() + u01 * u01.conj() - 1.0),
        sup_abs(u00 * u10.conj() + u01 * u11.conj()),
        sup_abs(u10 * u10.conj() + u11 * u11.conj() - 1.0),
        sup_abs(u00 * u11 - u01 * u10 - 1.0)]))
