"""Independent reference solutions used to cross-check the main pipeline.

The module imports numpy only and touches no loops, factorization or Sym:
goursat_solve marches the sine-Gordon equation cell by cell from its
characteristic data; pseudosphere_closed_form is the tractrix surface.
"""

import numpy as np

STEP_TOL = 1e-15    # a cell stops once its update is <= STEP_TOL (1 + |w|)
MAX_STEPS = 50      # fixed-point updates a cell may take before failing


class ConvergenceError(RuntimeError):
    """A cell of the Goursat march did not settle on a finite value."""


class GoursatSolution:
    """Solution of w_xy = sin w with w(x,0) = alpha(x), w(0,y) = beta(y).

    phi holds w, and alpha and beta its samples on the x and y nodes. Over
    all cells, iterations is the largest fixed-point update count, final_delta
    the largest last update and contraction the largest |dx dy| / 4.
    """

    def __init__(self, phi, alpha, beta, iterations, contraction,
                 final_delta):
        self.phi = phi
        self.alpha = alpha
        self.beta = beta
        self.iterations = iterations
        self.contraction = contraction
        self.final_delta = final_delta

    @property
    def phi_check(self):
        """phi - alpha - beta, which vanishes on both axes; computed on each
        access, so a solution holds one grid array."""
        return self.phi - self.alpha[:, None] - self.beta[None, :]


def goursat_solve(alpha, beta, x, y):
    """Solve w_xy = sin w with the given characteristic values by marching.

    alpha and beta are callables or samples on x and y, which need a node
    at 0. Each cell meets w11 - w10 - w01 + w00 = k (sin w00 + sin w10 +
    sin w01 + sin w11), k = dx dy / 4 on signed steps: the quadrants fill
    outward from the origin one anti-diagonal at a time, each new w11 the
    fixed point of c + k sin w11, with error second order in the spacing.
    ConvergenceError names a cell unsettled or NaN after MAX_STEPS updates.
    """
    x, y = np.asarray(x, float), np.asarray(y, float)
    alpha_row = np.asarray(alpha(x) if callable(alpha) else alpha, float)
    beta_col = np.asarray(beta(y) if callable(beta) else beta, float)
    if alpha_row.shape != x.shape or beta_col.shape != y.shape:
        raise ValueError("boundary samples must match the grid axes")
    i0, j0 = (int(np.argmin(np.abs(t))) for t in (x, y))
    for axis, t in (("x", x[i0]), ("y", y[j0])):
        if not abs(t) <= 1e-12:
            raise ValueError(f"{axis} has no node at 0 to anchor the data")
    phi = alpha_row[:, None] + beta_col[None, :]
    stats = [_march(phi, x, y, i0, j0, sx, sy)   # (largest count, update)
             for sx in (1, -1) for sy in (1, -1)]
    iterations, final_delta = (max(s) for s in zip(*stats))
    hx, hy = (float(np.abs(np.diff(t)).max(initial=0.0)) for t in (x, y))
    return GoursatSolution(phi, alpha_row, beta_col, iterations,
                           0.25 * hx * hy, final_delta)


@np.errstate(invalid="ignore")          # a NaN cell raises below
def _march(phi, x, y, i0, j0, sx, sy):
    """Fill phi's quadrant w[p, q] = phi[i0 + sx p, j0 + sy q] in place."""
    w = phi[i0::sx, j0::sy]
    hx, hy = np.diff(x[i0::sx]), np.diff(y[j0::sy])
    m, n = w.shape
    steps, last = 0, 0.0
    for d in range(2, m + n - 1 if min(m, n) > 1 else 2):   # d = p + q
        p = np.arange(max(1, d - n + 1), min(m - 1, d - 1) + 1)
        q = d - p
        k = 0.25 * hx[p - 1] * hy[q - 1]
        w00, w10, w01 = w[p - 1, q - 1], w[p, q - 1], w[p - 1, q]
        new = w10 + w01 - w00
        c = new + k * (np.sin(w00) + np.sin(w10) + np.sin(w01))
        for it in range(1, MAX_STEPS + 1):
            prev, new = new, c + k * np.sin(new)
            delta = np.abs(new - prev)
            settled = delta <= STEP_TOL * (1.0 + np.abs(new))
            if settled.all():
                break
        else:
            b = int(np.argmin(settled))
            ix, iy = i0 + sx * int(p[b]), j0 + sy * int(q[b])
            raise ConvergenceError(
                f"Goursat cell (ix, iy) = ({ix}, {iy}) at (x, y) = "
                f"({x[ix]:.6g}, {y[iy]:.6g}): w = {new[b]:.6g} after "
                f"{MAX_STEPS} updates, last {delta[b]:.2e} (k = {k[b]:.3g})")
        w[p, q] = new
        steps, last = max(steps, it), max(last, float(delta.max()))
    return steps, last


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
