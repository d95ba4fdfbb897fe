"""Geometric verification: fundamental forms, angle field, torsion, integrability.

Everything here consumes a SurfaceGrid and reports how well it satisfies the
identities a constant-curvature front must satisfy. The ops read S.fx, S.fy,
S.Nx and S.Ny: exact fields from Sym, or SurfaceGrid's order-2 differences
d_x and d_y for a surface given as arrays, so the same checks run on surfaces
from any source. CHECKS is the table of the residuals psfront verify gates,
each with its name and default tolerance.
"""

import warnings

import numpy as np

from .loops import sup_abs

REG_THRESHOLD = 0.01    # EG - F^2 = sin^2 omega: excludes |sin omega| <= 0.1
DET_TOL = 1e-8          # determinant defect of the adapted frames
TORSION_SKIP = 1e-3     # ||c' x c''|| at or below it: no torsion
CLOSURE_TOL = 1e-4      # cell circulation above it: normal not integrable


def d_x(F, h):
    """Order-2 derivative along axis 0, one-sided at the edges."""
    out = np.empty_like(F)
    out[1:-1] = (F[2:] - F[:-2]) / (2 * h)
    out[0] = (-3 * F[0] + 4 * F[1] - F[2]) / (2 * h)
    out[-1] = (3 * F[-1] - 4 * F[-2] + F[-3]) / (2 * h)
    return out


def d_y(F, h):
    return np.swapaxes(d_x(np.swapaxes(F, 0, 1), h), 0, 1)


def d_xy(F, hx, hy):
    """Centered mixed derivative on the interior; NaN on the boundary ring."""
    out = np.full_like(F, np.nan)
    out[1:-1, 1:-1] = (F[2:, 2:] - F[2:, :-2] - F[:-2, 2:] + F[:-2, :-2]) \
        / (4.0 * hx * hy)
    return out


def cumtrapz_origin(F, h, i0):
    """Cumulative trapezoid along axis 0, zeroed at node i0."""
    out = np.zeros_like(F)
    np.cumsum(0.5 * (F[1:] + F[:-1]) * h, axis=0, out=out[1:])
    out -= out[i0:i0 + 1]
    return out


def spacing(grid):
    """Steps (hx, hy) of a uniform grid: anything with x and y node arrays."""
    return float(grid.x[1] - grid.x[0]), float(grid.y[1] - grid.y[0])


def _dot(a, b):
    return np.einsum("...k,...k->...", a, b)


class GeometryReport:
    """First and second fundamental forms with the curvature field.

    K is NaN where the first form is degenerate (EG - F^2 at or below the
    regularity threshold); `regular` marks the nodes where it is defined.
    """

    def __init__(self, E, F, G, ell, m, n, K, regular, reg_threshold):
        self.E = E
        self.F = F
        self.G = G
        self.ell = ell
        self.m = m
        self.n = n
        self.K = K
        self.regular = regular
        self.reg_threshold = reg_threshold

    @property
    def regular_count(self):
        return int(self.regular.sum())

    def __repr__(self):
        return (f"GeometryReport(regular {self.regular_count}/{self.K.size}, "
                f"threshold {self.reg_threshold:g})")


def fundamental_forms(S):
    """Both fundamental forms and Gauss curvature of a surface grid.

    For the surfaces built here EG - F^2 = sin^2 of the asymptotic angle,
    so the regularity threshold REG_THRESHOLD = 0.01 excludes nodes within
    |sin| <= 0.1 of a cusp line.
    """
    fx, fy, Nx, Ny = S.fx, S.fy, S.Nx, S.Ny
    E = _dot(fx, fx)
    F = _dot(fx, fy)
    G = _dot(fy, fy)
    ell = -_dot(fx, Nx)
    m = -_dot(fx, Ny)
    n = -_dot(fy, Ny)
    denom = E * G - F * F
    regular = denom > REG_THRESHOLD
    K = np.full_like(E, np.nan)
    K[regular] = (ell * n - m * m)[regular] / denom[regular]
    return GeometryReport(E, F, G, ell, m, n, K, regular, REG_THRESHOLD)


# ---------------------------------------------------------------------------
# adapted frame and angle field

def _det_defect(a, b, N):
    """sup |det(a, b, N) - 1| over the nodes; NaN if any node is NaN."""
    return sup_abs(_dot(np.cross(a, b), N) - 1.0)


def tangent_frame(fx, N):
    """Unit x tangent tx and its in-plane normal rotation fxp = N x tx.

    fx and N are (..., 3) fields, a whole grid or one row of it. The x
    tangent is projected off the normal before normalizing, so the triple
    (tx, fxp, N) has unit determinant to rounding whether fx is exact or a
    finite difference; a defect above DET_TOL (or NaN) raises ValueError.
    """
    tx = fx - N * _dot(fx, N)[..., None]
    tx = tx / np.linalg.norm(tx, axis=-1, keepdims=True)
    fxp = np.cross(N, tx)
    defect = _det_defect(tx, fxp, N)
    if not defect <= DET_TOL:
        raise ValueError(f"adapted frame determinant defect {defect:.3e}")
    return tx, fxp


def angle_field(S):
    """Unwrapped angle from the x tangent to the y tangent of S.

    atan2 against the adapted frame, unwrapped column-wise along x and then
    along y, with the branch fixed so the origin value lands in [0, 2 pi).
    """
    tx, fxp = tangent_frame(S.fx, S.N)
    omega = np.arctan2(_dot(S.fy, fxp), _dot(S.fy, tx))
    omega = np.unwrap(np.unwrap(omega, axis=0), axis=1)
    omega -= 2.0 * np.pi * np.floor(omega[S.i0x, S.i0y] / (2.0 * np.pi))
    return omega


def complete_frame(fx, N, omega):
    """The adapted frame turned by half the angle field: (e1, e2).

    The asymptotic directions sit symmetrically about e1. Gated as
    tangent_frame, and then the turned triple (e1, e2, N) too: a determinant
    defect above DET_TOL (or a NaN angle) raises ValueError.
    """
    tx, fxp = tangent_frame(fx, N)
    theta = 0.5 * omega
    c, s = np.cos(theta)[..., None], np.sin(theta)[..., None]
    e1 = c * tx + s * fxp
    e2 = -s * tx + c * fxp
    defect = _det_defect(e1, e2, N)
    if not defect <= DET_TOL:
        raise ValueError(f"turned frame determinant defect {defect:.3e}")
    return e1, e2


# ---------------------------------------------------------------------------
# residual fields

def sine_gordon_residual(omega, hx, hy):
    """Mixed-derivative residual omega_xy - sin(omega); NaN on the boundary."""
    return d_xy(omega, hx, hy) - np.sin(omega)


def harmonicity_residual(S, omega):
    """Defect of the normal field against its mixed-derivative law.

    Returns (residual, h_harm): residual is the vector norm of
    N_xy - cos(omega) N per node, h_harm the scalar <N_xy, N> that should
    equal cos(omega). Both are NaN on the boundary ring.
    """
    N = S.N
    Nxy = d_xy(N, *spacing(S))
    residual = np.linalg.norm(Nxy - np.cos(omega)[..., None] * N, axis=-1)
    h_harm = _dot(Nxy, N)
    return residual, h_harm


def asymptotic_torsion(S, direction):
    """Torsion of the direction ("x" or "y") parameter curves, order-4
    stencils, margin of 3 nodes.

    Nodes whose curvature vector norm ||c' x c''|| falls at or below
    TORSION_SKIP are NaN (torsion is undefined on straight segments).
    Returns the torsion field, NaN at margins and skipped nodes.
    """
    f = S.f if direction == "x" else np.swapaxes(S.f, 0, 1)
    h = spacing(S)[0 if direction == "x" else 1]
    c = 3

    def sh(F, k):
        end = F.shape[0] - c + k
        return F[c + k: end if end != 0 else None]

    d1 = (-sh(f, 2) + 8 * sh(f, 1) - 8 * sh(f, -1) + sh(f, -2)) / (12 * h)
    d2 = (-sh(f, 2) + 16 * sh(f, 1) - 30 * sh(f, 0) + 16 * sh(f, -1)
          - sh(f, -2)) / (12 * h * h)
    d3 = (sh(f, -3) - 8 * sh(f, -2) + 13 * sh(f, -1) - 13 * sh(f, 1)
          + 8 * sh(f, 2) - sh(f, 3)) / (8 * h ** 3)
    cr = np.cross(d1, d2)
    cr2 = _dot(cr, cr)
    tau_core = np.full(cr2.shape, np.nan)
    ok = np.sqrt(cr2) > TORSION_SKIP
    tau_core[ok] = _dot(cr, d3)[ok] / cr2[ok]
    tau = np.full(f.shape[:2], np.nan)
    tau[c:-c] = tau_core
    if direction != "x":
        tau = np.swapaxes(tau, 0, 1)
    return tau


# ---------------------------------------------------------------------------
# the table of checked residuals

def _finite_sup(res, mask):
    """Largest |res| over the finite entries inside mask, 0 if there are none."""
    return sup_abs(res[mask & np.isfinite(res)])


UNITARITY_CHECK = "unitarity residual"
INTERIOR = np.s_[1:-1, 1:-1]    # where d_xy, and so a mixed residual, is defined

# (name, default tolerance, residual) of every identity psfront verify checks,
# in its order. residual(S, rep, omega, zcc) reads the SurfaceGrid S, its
# fundamental_forms rep, the angle field omega and the run's zero-curvature
# sup zcc; the residual fields are this module's globals, looked up per call.
CHECKS = (
    ("K+1 residual", 1e-3,
     lambda S, rep, omega, zcc: sup_abs(rep.K[rep.regular] + 1.0)),
    # E = lam0^2 and G = lam0^-2, relative: their rounding scales with them
    ("first form E residual", 1e-8,
     lambda S, rep, omega, zcc: sup_abs(rep.E / S.lam0 ** 2 - 1.0)),
    ("first form G residual", 1e-8,
     lambda S, rep, omega, zcc: sup_abs(rep.G * S.lam0 ** 2 - 1.0)),
    ("first form F residual", 1e-6,
     lambda S, rep, omega, zcc: sup_abs(rep.F - np.cos(omega))),
    ("second form ell residual", 1e-5,
     lambda S, rep, omega, zcc: sup_abs(rep.ell)),
    ("second form n residual", 1e-5,
     lambda S, rep, omega, zcc: sup_abs(rep.n)),
    ("second form m residual", 1e-5,
     lambda S, rep, omega, zcc: sup_abs(rep.m - np.sin(omega))),
    (UNITARITY_CHECK, 1e-8, lambda S, rep, omega, zcc: S.unitarity),
    ("zero-curvature residual", 2e-3, lambda S, rep, omega, zcc: zcc),
    ("sine-Gordon residual", 2e-2, lambda S, rep, omega, zcc: sup_abs(
        sine_gordon_residual(omega, *spacing(S))[INTERIOR])),
    ("harmonicity residual", 5e-3, lambda S, rep, omega, zcc: sup_abs(
        harmonicity_residual(S, omega)[0][INTERIOR][rep.regular[INTERIOR]])),
    ("torsion deviation", 1e-2, lambda S, rep, omega, zcc: _finite_sup(
        np.abs(asymptotic_torsion(S, "x")) - 1.0,
        np.abs(np.sin(omega)) > 0.3)),
)


def front_from_normal(N, hx, hy, Nx, Ny):
    """Reconstruct the front from its normal field by path integration.

    Tangents are N x N_x and -N x N_y, from the normal derivatives given:
    exact, or d_x(N, hx) and d_y(N, hy). Integration starts at the grid
    center, runs along its row first and then along each column; the per-cell
    circulation of the tangent one-form is returned alongside, and a warning
    is issued when it exceeds CLOSURE_TOL or is NaN (a non-integrable normal
    field).
    """
    fx = np.cross(N, Nx)
    fy = -np.cross(N, Ny)
    i0, j0 = N.shape[0] // 2, N.shape[1] // 2
    rowx = cumtrapz_origin(fx, hx, i0)[:, j0]
    Fy = np.swapaxes(cumtrapz_origin(np.swapaxes(fy, 0, 1), hy, j0), 0, 1)
    f = rowx[:, None, :] + Fy
    ex = 0.5 * (fx[1:, :] + fx[:-1, :]) * hx
    ey = 0.5 * (fy[:, 1:] + fy[:, :-1]) * hy
    closure = np.linalg.norm(ex[:, :-1] + ey[1:, :] - ex[:, 1:] - ey[:-1, :],
                             axis=-1)
    if not closure.max() <= CLOSURE_TOL:
        warnings.warn(f"normal field is not integrable: cell circulation "
                      f"{closure.max():.3e}", stacklevel=2)
    return f, closure


def normal_sign_comparison(S, omega):
    """Compare the cross-product normal against the stored one.

    Away from the cusp lines (|sin omega| > 0.1) the normalized
    f_x x f_y must equal sign(sin omega) times the stored normal. Returns the
    per-node sign of their inner product, the comparison mask and the largest
    deviation on it.
    """
    cr = np.cross(S.fx, S.fy)
    nrm = np.linalg.norm(cr, axis=-1, keepdims=True)
    mask = np.abs(np.sin(omega)) > 0.1
    N_std = cr / np.maximum(nrm, 1e-30)
    sgn = np.sign(np.sin(omega))
    dev = np.linalg.norm(N_std - sgn[..., None] * S.N, axis=-1)
    max_dev = float(dev[mask].max()) if mask.any() else 0.0
    sign_field = np.sign(_dot(N_std, S.N))
    return {"max_deviation": max_dev, "sign": sign_field, "mask": mask,
            "agree": bool(max_dev < 1e-3)}


def recover_boundary_angles(omega, x, y):
    """Boundary data read back off the angle field.

    alpha_hat(x) = omega(x, 0) - omega(0, 0) and beta_hat(y) = omega(0, y);
    for a field built from potentials these reproduce the inputs.
    """
    i0x = int(np.argmin(np.abs(x)))
    i0y = int(np.argmin(np.abs(y)))
    alpha_hat = omega[:, i0y] - omega[i0x, i0y]
    beta_hat = omega[i0x, :]
    return alpha_hat, beta_hat


def procrustes_align(A, B):
    """Best proper rotation R and shift t with R A + t matching B.

    Reflections are excluded: the smallest singular direction is sign-flipped
    when the raw orthogonal factor has negative determinant. Returns
    (R, t, residual vectors).
    """
    A2 = np.asarray(A, float).reshape(-1, 3)
    B2 = np.asarray(B, float).reshape(-1, 3)
    ca, cb = A2.mean(axis=0), B2.mean(axis=0)
    H = (B2 - cb).T @ (A2 - ca)
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(U @ Vt))
    R = U @ np.diag([1.0, 1.0, d]) @ Vt
    t = cb - R @ ca
    return R, t, A2 @ R.T + t - B2
