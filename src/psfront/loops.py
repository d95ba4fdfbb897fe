"""Arithmetic for truncated matrix Laurent loops with the twist symmetry.

A loop here is a finite Laurent series sum_k C_k lambda^k with 2x2 complex
coefficients, stored as a contiguous block of coefficients plus the lowest
degree. The twist symmetry g(-lambda) = Ad(sigma3) g(lambda) forces even-degree
coefficients to be diagonal and odd-degree ones to be anti-diagonal; those
structural zeros are enforced at construction time.

Every loop the frame pipeline makes also lies in the SU(2) real form, with
coefficients [[a, b], [-conj(b), conj(a)]]: with the twist parity that is one
complex scalar per degree, the layout of every loop from the ladder to Sym:
packed_mul multiplies, packed_eval gives the first row (a, b) and its
t-derivative, packed_unitarity the defect of |a|^2 + |b|^2 = 1; only pack and
unpack convert it to and from 2x2 matrices.

All products and inverses are window-truncated and reduce to one kernel,
scalar_conv, a shift-add over the coefficients of its first factor, with
arbitrary leading batch axes so that a block of grid nodes is processed in
one call. The general complex product mul_coeffs is the reference for
packed_mul; the TwistedLoop class wraps a single loop for the public
operations.
"""

import numpy as np

DEFAULT_TRUNC = 16
MAX_DEGREE = 64                     # hard cap for any requested window bound
PARITY_TOL = 1e-12                  # structural-zero entries cleaned up to it
PIVOT_TOL = 1e-12                   # smallest invertible degree-0 coefficient
NEUMANN_MAX_TERMS = 80


class TruncationOverflowError(ValueError):
    """Requested degree window exceeds the configured maximum."""


class SingularSeriesError(ValueError):
    """Scalar series has no invertible degree-zero coefficient, or its
    Neumann reciprocal does not converge."""


class ParityError(ValueError):
    """Coefficients violate the twist parity pattern."""


def sup_abs(arr):
    """Matrix/array norm used throughout: largest absolute entry."""
    arr = np.asarray(arr)
    if arr.size == 0:
        return 0.0
    return float(np.abs(arr).max())


def _check_window(window):
    lo, hi = int(window[0]), int(window[1])
    if lo > hi:
        raise ValueError(f"empty window {window}")
    if max(abs(lo), abs(hi)) > MAX_DEGREE:
        raise TruncationOverflowError(
            f"window {window} exceeds maximum degree {MAX_DEGREE}")
    return lo, hi


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


def packed_eval(p, kmin, lam):
    """First rows (a, b) of U(lam) and (a_t, b_t) of dU/dt along lambda = e^t
    (degree k scaled by k) of packed real-form loops at a real lam, each
    (..., 2), from one contraction."""
    degs = kmin + np.arange(p.shape[-1])
    w = float(lam) ** degs.astype(float)
    even = degs % 2 == 0
    W = np.stack([w * even, w * ~even, degs * w * even, degs * w * ~even], -1)
    ab = (p @ W.astype(complex)).reshape(p.shape[:-1] + (2, 2))
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


def _parity_zeros(kmin, n):
    """(n, 2, 2) mask of the entries the twist parity forces to zero."""
    odd = (kmin + np.arange(n)) % 2 == 1
    return np.eye(2, dtype=bool) == odd[:, None, None]


def parity_violation(C, kmin):
    """Largest entry sitting on a structural zero of the twist pattern."""
    return sup_abs(C[..., _parity_zeros(kmin, C.shape[-3])])


# ---------------------------------------------------------------------------
# public wrappers

class ScalarLaurent:
    """Scalar Laurent polynomial: coefficient block plus lowest degree."""

    def __init__(self, k_min, coeffs):
        self.k_min = int(k_min)
        self.coeffs = np.asarray(coeffs, dtype=complex)
        if self.coeffs.ndim != 1:
            raise ValueError("scalar coefficients must be one-dimensional")

    @property
    def k_max(self):
        return self.k_min + len(self.coeffs) - 1

    def coeff(self, deg):
        i = deg - self.k_min
        if 0 <= i < len(self.coeffs):
            return complex(self.coeffs[i])
        return 0j

    def __call__(self, lam):
        degs = self.k_min + np.arange(len(self.coeffs))
        return complex(np.sum(self.coeffs * np.asarray(lam) ** degs.astype(float)))

    def __repr__(self):
        return f"ScalarLaurent(k_min={self.k_min}, n={len(self.coeffs)})"


class TwistedLoop:
    """Single twisted loop: (D, 2, 2) coefficient block plus lowest degree.

    Construction verifies the parity pattern; entries up to PARITY_TOL on
    structural zeros are cleaned to exact zeros, larger ones (or NaN) raise.
    """

    def __init__(self, k_min, coeffs):
        self.k_min = int(k_min)
        self.coeffs = np.array(coeffs, dtype=complex)
        if self.coeffs.ndim != 3 or self.coeffs.shape[-2:] != (2, 2):
            raise ValueError("coefficients must have shape (D, 2, 2)")
        if max(abs(self.k_min), abs(self.k_max)) > MAX_DEGREE:
            raise TruncationOverflowError(
                f"degrees [{self.k_min}, {self.k_max}] exceed {MAX_DEGREE}")
        viol = parity_violation(self.coeffs, self.k_min)
        if not viol <= PARITY_TOL:
            raise ParityError(f"parity violation {viol:.3e} > {PARITY_TOL:g}")
        self.coeffs[_parity_zeros(self.k_min, len(self.coeffs))] = 0.0

    @property
    def k_max(self):
        return self.k_min + self.coeffs.shape[0] - 1

    @property
    def window(self):
        return (self.k_min, self.k_max)

    def coeff(self, deg):
        i = deg - self.k_min
        if 0 <= i < self.coeffs.shape[0]:
            return self.coeffs[i].copy()
        return np.zeros((2, 2), complex)

    def __repr__(self):
        return f"TwistedLoop(window=({self.k_min}, {self.k_max}))"


def identity_loop():
    return TwistedLoop(0, np.eye(2)[None])


def from_coeff(deg, mat):
    """Loop with a single coefficient at the given degree."""
    return TwistedLoop(deg, np.asarray(mat, dtype=complex)[None])


def loop_mul(a, b, window=None):
    """Product of two twisted loops, truncated to the given degree window.

    Without a window the natural product window is used, clipped to the
    maximum degree. Twist parity is closed under products, so the result is
    constructed without re-validation noise (parity of the inputs is exact).
    """
    if window is None:
        lo = max(a.k_min + b.k_min, -MAX_DEGREE)
        hi = min(a.k_max + b.k_max, MAX_DEGREE)
    else:
        lo, hi = _check_window(window)
    out = mul_coeffs(a.coeffs, b.coeffs, a.k_min, b.k_min, lo, hi - lo + 1)
    return TwistedLoop(lo, out)


def loop_det(a):
    """Determinant of a twisted loop as a scalar Laurent polynomial."""
    det, dmin = det_coeffs(a.coeffs, a.k_min)
    return ScalarLaurent(dmin, det)


def scalar_reciprocal(d, window):
    """Reciprocal of a scalar Laurent polynomial on a degree window."""
    lo, hi = _check_window(window)
    if not lo <= 0 <= hi:
        raise ValueError("reciprocal window must contain degree 0")
    r = recip_coeffs(d.coeffs, d.k_min, lo, hi - lo + 1)
    return ScalarLaurent(lo, r)


def loop_inverse(a, window=None):
    """Inverse loop on a degree window (adjugate times det reciprocal)."""
    if window is None:
        lo, hi = -abs(a.k_min) - abs(a.k_max), abs(a.k_min) + abs(a.k_max)
        lo, hi = max(lo, -MAX_DEGREE), min(hi, MAX_DEGREE)
    else:
        lo, hi = _check_window(window)
    out = inverse_coeffs(a.coeffs, a.k_min, lo, hi - lo + 1)
    return TwistedLoop(lo, out)


def loop_eval(a, lam0):
    """Evaluate a loop at a nonzero scalar; returns a 2x2 matrix."""
    if lam0 == 0:
        raise ValueError("cannot evaluate at lambda = 0")
    return eval_coeffs(a.coeffs, a.k_min, lam0)


def unitarity_check(a, lam_samples):
    """Worst unitarity_residual of one loop over the sample points."""
    return max((unitarity_residual(eval_coeffs(a.coeffs, a.k_min, lam))
                for lam in lam_samples), default=0.0)
