"""Independent reference solutions used to cross-check the main pipeline.

Neither routine here touches loops, factorization or the reconstruction
formula. goursat_solve integrates the sine-Gordon equation directly from its
characteristic boundary values by Picard iteration; pseudosphere_closed_form
evaluates the classical tractrix surface of revolution in closed form. Both
give targets the pipeline output can be compared against.
"""

import numpy as np


class ConvergenceError(RuntimeError):
    """Picard iteration failed to reach the requested tolerance."""


class GoursatSolution:
    """Solution of w_xy = sin w with w(x,0) = alpha(x), w(0,y) = beta(y).

    phi holds w on the grid; phi_check is w - alpha - beta, the part produced
    by the double integral, which vanishes on both axes. contraction is the
    last ratio of successive update sizes (about |x_max * y_max| / 2 per the
    fixed-point estimate, well below 1 on the domains used here).
    """

    def __init__(self, phi, alpha_row, beta_col, iterations, contraction,
                 final_delta):
        self.phi = phi
        self.phi_check = phi - alpha_row[:, None] - beta_col[None, :]
        self.iterations = iterations
        self.contraction = contraction
        self.final_delta = final_delta


def cumtrapz_from_origin(F, coord, axis):
    """Trapezoid antiderivative along one axis, zero at the node nearest 0.

    Works on non-uniform grids and anchors at the origin node so integrals
    from negative coordinates carry the correct sign. Kept apart from
    analysis.cumtrapz_origin on purpose: it is the independent reference.
    """
    F = np.asarray(F, float)
    coord = np.asarray(coord, float)
    F = np.moveaxis(F, axis, 0)
    dx = np.diff(coord)
    seg = 0.5 * (F[1:] + F[:-1]) * dx.reshape((-1,) + (1,) * (F.ndim - 1))
    out = np.zeros_like(F)
    np.cumsum(seg, axis=0, out=out[1:])
    i0 = int(np.argmin(np.abs(coord)))
    out = out - out[i0]
    return np.moveaxis(out, 0, axis)


def goursat_solve(alpha, beta, x, y, tol=1e-12, max_iter=60):
    """Solve w_xy = sin w with the given characteristic values by iteration.

    alpha and beta may be callables or sample arrays matching x and y. Each
    sweep substitutes the current iterate into the double integral
    w = alpha + beta + int int sin w; the iteration is a contraction on the
    rectangles used here and the error settles at the quadrature level,
    second order in the grid spacing. max_iter must be at least 1.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    alpha_row = np.asarray(alpha(x) if callable(alpha) else alpha, float)
    beta_col = np.asarray(beta(y) if callable(beta) else beta, float)
    if alpha_row.shape != x.shape or beta_col.shape != y.shape:
        raise ValueError("boundary samples must match the grid axes")
    phi = alpha_row[:, None] + beta_col[None, :]
    prev_delta = None
    contraction = 0.0
    for it in range(1, max_iter + 1):
        inner = cumtrapz_from_origin(np.sin(phi), y, axis=1)
        new = (alpha_row[:, None] + beta_col[None, :]
               + cumtrapz_from_origin(inner, x, axis=0))
        delta = float(np.abs(new - phi).max())
        phi = new
        if prev_delta is not None and prev_delta > 0:
            contraction = delta / prev_delta
        prev_delta = delta
        if delta < tol:
            return GoursatSolution(phi, alpha_row, beta_col, it, contraction,
                                   delta)
    raise ConvergenceError(
        f"no convergence after {max_iter} sweeps (last delta {prev_delta:.2e})")


# ---------------------------------------------------------------------------
# closed-form pseudo-sphere in asymptotic coordinates

def pseudosphere_closed_form(x, y):
    """Tractrix surface of revolution in asymptotic line coordinates.

    Returns (f, N, omega): position, unit normal and the angle between the
    asymptotic directions, omega = 4 arctan(e^{x+y}). The normal is oriented
    so that f_x = N x N_x and f_y = -N x N_y hold; the surface has K = -1
    away from the cusp edge x + y = 0.
    """
    X, Y = np.meshgrid(np.asarray(x, float), np.asarray(y, float),
                       indexing="ij")
    u = X + Y
    v = X - Y
    se = 1.0 / np.cosh(u)
    th = np.tanh(u)
    f = np.stack([np.cos(v) * se, np.sin(v) * se, u - th], axis=-1)
    N = np.stack([np.cos(v) * th, np.sin(v) * th, se], axis=-1)
    omega = 4.0 * np.arctan(np.exp(u))
    return f, N, omega


def pseudosphere_tangents(x, y):
    """Exact coordinate tangents of pseudosphere_closed_form.

    Both have unit length, so this parametrization is already arc length
    along the asymptotic lines (the lam0 = 1 member of the family).
    """
    X, Y = np.meshgrid(np.asarray(x, float), np.asarray(y, float),
                       indexing="ij")
    u = X + Y
    v = X - Y
    se = 1.0 / np.cosh(u)
    th = np.tanh(u)
    du = np.stack([-se * th * np.cos(v), -se * th * np.sin(v), th * th],
                  axis=-1)
    dv = np.stack([-se * np.sin(v), se * np.cos(v), np.zeros_like(u)],
                  axis=-1)
    return du + dv, du - dv
