"""Local graph patches: curvature checked with no reference to the construction.

graph_patch writes a piece of the surface as a height field over its tangent
plane, which is the form in which curvature can be checked without any
reference to the construction that produced the surface.
"""

import numpy as np

from .analysis import d_x, d_y

PATCH_NGRID = 33        # chart samples per side
NEWTON_TOL = 1e-12      # preimage residual in chart coordinates
NEWTON_MAX_ITER = 25


class PatchError(RuntimeError):
    """Graph patch failed: near a cusp, across a fold, or Newton stalled."""


def _rotation_to_vertical(n0):
    """Proper rotation taking the unit vector n0 to (0, 0, 1)."""
    e3 = np.array([0.0, 0.0, 1.0])
    v = np.cross(n0, e3)
    c = float(n0 @ e3)
    if np.linalg.norm(v) < 1e-14:
        return np.eye(3) if c > 0 else np.diag([1.0, -1.0, -1.0])
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + vx + vx @ vx / (1.0 + c)


class GraphPatch:
    """Height-field chart of a surface piece over its tangent plane.

    R maps world coordinates into the chart frame (normal at the center goes
    to +z); f0 is the world position of the center. h is the height over the
    (u, v) square spanned by uu, sampled PATCH_NGRID x PATCH_NGRID. K is the
    Gauss curvature of the height field by finite differences; its edge rows
    use one-sided stencils and are first-order only.
    """

    def __init__(self, center, radius, R, f0, uu, h, K, normal_angle, sign,
                 preimage_x, preimage_y, s_half, iters, residual):
        self.center = center
        self.radius = radius
        self.R = R
        self.f0 = f0
        self.uu = uu
        self.h = h
        self.K = K
        self.normal_angle = normal_angle
        self.sign = sign
        self.preimage_x = preimage_x
        self.preimage_y = preimage_y
        self.s_half = s_half
        self.iters = iters
        self.residual = residual

    def world_points(self):
        """World coordinates of the chart grid."""
        UU, VV = np.meshgrid(self.uu, self.uu, indexing="ij")
        return np.stack([UU, VV, self.h], axis=-1) @ self.R + self.f0

    def to_chart(self, points):
        """World points expressed in the chart frame (u, v, z)."""
        return (np.asarray(points, float) - self.f0) @ self.R.T

    def __repr__(self):
        return (f"GraphPatch(center={self.center}, s_half={self.s_half:.4f}, "
                f"iters={self.iters})")


def _spline_eval(x, y, field):
    """Evaluator (xs, ys) -> field of componentwise bivariate splines."""
    from scipy.interpolate import RectBivariateSpline   # slow import, kept lazy
    splines = [RectBivariateSpline(x, y, field[..., k])
               for k in range(field.shape[-1])]
    return lambda xs, ys: np.stack([s(xs, ys, grid=False) for s in splines],
                                   axis=-1)


def graph_patch(S, center, radius):
    """Graph chart of S over the tangent plane at a parameter-space center.

    The parameter disc of the given radius must lie inside the grid, stay on
    one sheet of the front and keep clear of the cusp lines; violations raise
    PatchError (reduce the radius or move the center), and so does a NaN or
    infinite sample of f, N, f_x or f_y, each read through its own spline.
    See graph_patch_evaluated for the chart construction itself.
    """
    names = ("f", "N", "fx", "fy")
    for name in names:
        bad = np.argwhere(~np.isfinite(getattr(S, name)).all(-1))
        if len(bad):
            raise PatchError(f"surface field {name} is not finite at node "
                             f"{tuple(bad[0].tolist())}")
    f_ev, N_ev, fx_ev, fy_ev = (_spline_eval(S.x, S.y, getattr(S, name))
                                for name in names)
    return graph_patch_evaluated(f_ev, fx_ev, fy_ev, N_ev, S.x, S.y,
                                 center, radius)


def graph_patch_evaluated(f_ev, fx_ev, fy_ev, N_ev, x_grid, y_grid, center,
                          radius):
    """Graph chart from direct surface evaluators (see graph_patch).

    The chart square is sized to the projected footprint of the parameter
    disc: its half side is 0.95 / sqrt(2) of the smallest tangent-plane radius
    reached by the disc boundary, so every chart target has a preimage on the
    center's sheet. Preimages on a PATCH_NGRID x PATCH_NGRID chart grid come
    from vectorized Newton iteration seeded at the nearest disc sample, and
    must reach NEWTON_TOL within NEWTON_MAX_ITER steps; NaN anywhere on the
    way raises PatchError.
    """
    cx, cy = float(center[0]), float(center[1])
    if not (x_grid[0] <= cx - radius and cx + radius <= x_grid[-1]
            and y_grid[0] <= cy - radius and cy + radius <= y_grid[-1]):
        raise PatchError(f"parameter disc of radius {radius:g} at "
                         f"({cx:g}, {cy:g}) leaves the grid")
    f0 = f_ev(np.array(cx), np.array(cy))
    n0 = N_ev(np.array(cx), np.array(cy))
    n0 = n0 / np.linalg.norm(n0)
    sin_center = float(np.cross(fx_ev(np.array(cx), np.array(cy)),
                                fy_ev(np.array(cx), np.array(cy))) @ n0)
    if not abs(sin_center) > 0.3:
        raise PatchError(f"center sits near a cusp line: "
                         f"|sin omega| = {abs(sin_center):.3f} <= 0.3")
    XS, YS = np.meshgrid(x_grid, y_grid, indexing="ij")
    rr = np.hypot(XS - cx, YS - cy)
    keep = rr <= radius
    xs_s, ys_s = XS[keep], YS[keep]
    # single-sheet precheck: the disc must not reach or cross a fold, where
    # the area element changes sign and a converged chart would be a lie
    sheet = np.einsum("pk,pk->p",
                      np.cross(fx_ev(xs_s, ys_s), fy_ev(xs_s, ys_s)),
                      N_ev(xs_s, ys_s))
    if not (np.sign(sin_center) * sheet).min() > 0.05:
        raise PatchError("parameter disc touches a cusp line or a second "
                         "sheet; reduce the radius")
    Rm = _rotation_to_vertical(n0)
    ps = (f_ev(xs_s, ys_s) - f0) @ Rm.T
    hgrid = float(x_grid[1] - x_grid[0])
    ring = keep & (rr > radius - 2 * hgrid)
    pr = (f_ev(XS[ring], YS[ring]) - f0) @ Rm.T
    rho = float(np.hypot(pr[:, 0], pr[:, 1]).min())
    s_half = 0.95 * rho / np.sqrt(2.0)
    uu = np.linspace(-s_half, s_half, PATCH_NGRID)
    UU, VV = np.meshgrid(uu, uu, indexing="ij")
    d = uu[1] - uu[0]
    ut, vt = UU.ravel(), VV.ravel()
    d2 = (ps[None, :, 0] - ut[:, None]) ** 2 + (ps[None, :, 1] - vt[:, None]) ** 2
    idx = np.argmin(d2, axis=-1)
    xt = xs_s[idx].astype(float)
    yt = ys_s[idx].astype(float)
    res = None
    iters = 0
    for iters in range(NEWTON_MAX_ITER):
        pw = (f_ev(xt, yt) - f0) @ Rm.T
        res = np.stack([pw[..., 0] - ut, pw[..., 1] - vt], axis=-1)
        if np.abs(res).max() < NEWTON_TOL:
            break
        Jx = (fx_ev(xt, yt) @ Rm.T)[..., :2]
        Jy = (fy_ev(xt, yt) @ Rm.T)[..., :2]
        J = np.stack([Jx, Jy], axis=-1)
        det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
        if not np.abs(det).min() >= 1e-12:
            raise PatchError("projection Jacobian is singular inside the "
                             "patch (fold reached); reduce the radius")
        step = np.linalg.solve(J, res[..., None])[..., 0]
        xt -= step[..., 0]
        yt -= step[..., 1]
    if not np.abs(res).max() < NEWTON_TOL:
        raise PatchError(f"preimage iteration stalled at residual "
                         f"{np.abs(res).max():.2e}; reduce the radius")
    shape = (PATCH_NGRID, PATCH_NGRID)
    hgt = (((f_ev(xt, yt) - f0) @ Rm.T)[..., 2]).reshape(shape)
    hu = d_x(hgt, d)
    hv = d_y(hgt, d)
    huu = np.empty_like(hgt)
    huu[1:-1] = (hgt[2:] - 2 * hgt[1:-1] + hgt[:-2]) / d ** 2
    huu[0], huu[-1] = huu[1], huu[-2]
    hvv = np.empty_like(hgt)
    hvv[:, 1:-1] = (hgt[:, 2:] - 2 * hgt[:, 1:-1] + hgt[:, :-2]) / d ** 2
    hvv[:, 0], hvv[:, -1] = hvv[:, 1], hvv[:, -2]
    huv = d_y(hu, d)
    W = 1.0 + hu ** 2 + hv ** 2
    K = (huu * hvv - huv ** 2) / W ** 2
    Nh = np.stack([-hu, -hv, np.ones_like(hu)], axis=-1) / np.sqrt(W)[..., None]
    Ntr = N_ev(xt, yt)
    Ntr = (Ntr / np.linalg.norm(Ntr, axis=-1, keepdims=True)) @ Rm.T
    dot = np.einsum("pk,pk->p", Nh.reshape(-1, 3), Ntr).reshape(shape)
    angle = np.arccos(np.clip(np.abs(dot), -1.0, 1.0))
    return GraphPatch((cx, cy), radius, Rm, f0, uu, hgt, K, angle,
                      np.sign(dot), xt.reshape(shape), yt.reshape(shape),
                      s_half, iters, float(np.abs(res).max()))
