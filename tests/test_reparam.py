"""Arc-length normalization and tangent-plane graph charts."""

import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline

import psfront as pf


# -- chebyshev normalization -------------------------------------------------

def test_normalize_rescales_stretched_member(ps_run):
    # |f_x| = 2 and |f_y| = 1/2 are constant at lam = 2, so both maps are
    # linear and the normalized metric is the unit one
    S = ps_run.surfaces[2.0]
    res = pf.chebyshev_normalize(S)
    assert res.variation_E < 1e-12
    assert res.variation_G < 1e-12
    assert np.abs(res.map_x.forward(S.x) - 2.0 * S.x).max() < 1e-10
    assert np.abs(res.map_y.forward(S.y) - 0.5 * S.y).max() < 1e-10
    out = res.surface
    E = np.einsum("...k,...k->...", out.fx, out.fx)
    G = np.einsum("...k,...k->...", out.fy, out.fy)
    assert np.abs(E - 1.0).max() < 1e-9
    assert np.abs(G - 1.0).max() < 1e-9
    g = pf.fundamental_forms(out)
    assert g.regular.any()
    assert np.nanmax(np.abs(g.K + 1.0)) < 1e-8


def test_normalize_is_idempotent(ps_run):
    res = pf.chebyshev_normalize(ps_run.surfaces[2.0])
    res2 = pf.chebyshev_normalize(res.surface)
    s, t = res.surface.x, res.surface.y
    assert np.abs(res2.map_x.forward(s) - s).max() < 1e-9
    assert np.abs(res2.map_y.forward(t) - t).max() < 1e-9
    assert np.abs(res2.surface.f - res.surface.f).max() < 1e-8


def test_normalize_rejects_unsplit_metric():
    # z = x y has E = 1 + y^2: not a function of x alone
    x = np.linspace(-1.0, 1.0, 33)
    y = np.linspace(-1.0, 1.0, 33)
    X, Y = np.meshgrid(x, y, indexing="ij")
    f = np.stack([X, Y, X * Y], axis=-1)
    N = np.stack([-Y, -X, np.ones_like(X)], axis=-1)
    N /= np.linalg.norm(N, axis=-1, keepdims=True)
    S = pf.SurfaceGrid(x, y, 1.0, f, N)
    with pytest.raises(pf.ChebyshevError, match="not split"):
        pf.chebyshev_normalize(S)


def test_reparam_map_rejects_bad_data():
    nodes = np.linspace(-1.0, 1.0, 9)
    with pytest.raises(pf.ChebyshevError, match="monotone"):
        pf.ReparamMap1D(nodes, np.abs(nodes))
    with pytest.raises(pf.ChebyshevError, match="origin"):
        pf.ReparamMap1D(nodes, nodes + 0.5)
    s = nodes.copy()
    s[4] = np.nan                                  # the origin node
    with pytest.raises(pf.ChebyshevError):
        pf.ReparamMap1D(nodes, s)


def test_normalize_rejects_nan_variation():
    x = np.linspace(-1.0, 1.0, 33)
    X, Y = np.meshgrid(x, x, indexing="ij")
    f = np.stack([X, Y, np.zeros_like(X)], axis=-1)
    f[10, 20] = np.nan
    N = np.broadcast_to(np.array([0.0, 0.0, 1.0]), f.shape)
    S = pf.SurfaceGrid(x, x, 1.0, f, N)
    with pytest.raises(pf.ChebyshevError, match="not split"):
        pf.chebyshev_normalize(S)


def test_reparam_map_round_trip():
    nodes = np.linspace(-2.0, 2.0, 65)
    m = pf.ReparamMap1D(nodes, np.sinh(nodes))
    pts = np.linspace(-1.9, 1.9, 41)
    assert np.abs(m.inverse(m.forward(pts)) - pts).max() < 1e-12


# -- graph patches -----------------------------------------------------------

def test_graph_patch_away_from_cusp(ps_run):
    p = pf.graph_patch(ps_run.surfaces[1.0], (-1.0, -1.0), 0.5)
    assert 0.08 < p.s_half < 0.13
    assert p.iters <= 10
    assert p.residual < 1e-10
    inner = np.s_[1:-1, 1:-1]
    assert np.abs(p.K[inner] + 1.0).max() < 1e-2
    assert p.normal_angle.max() < 1e-3
    assert np.all(p.sign == p.sign[0, 0])
    # every chart point pulls back close to the parameter disc
    r = np.hypot(p.preimage_x + 1.0, p.preimage_y + 1.0)
    assert r.max() <= 0.55


def test_patch_chart_round_trip(ps_run):
    p = pf.graph_patch(ps_run.surfaces[1.0], (-1.0, -1.0), 0.5)
    assert np.abs(p.R @ p.R.T - np.eye(3)).max() < 1e-12
    assert abs(np.linalg.det(p.R) - 1.0) < 1e-12
    back = p.to_chart(p.world_points())
    UU, VV = np.meshgrid(p.uu, p.uu, indexing="ij")
    assert np.abs(back[..., 0] - UU).max() < 1e-12
    assert np.abs(back[..., 1] - VV).max() < 1e-12
    assert np.abs(back[..., 2] - p.h).max() < 1e-12


def test_patch_overlap_consistency(ps_run):
    # two overlapping charts must describe the same piece of surface
    S = ps_run.surfaces[1.0]
    A = pf.graph_patch(S, (-1.0, -1.0), 0.5)
    B = pf.graph_patch(S, (-0.85, -1.1), 0.5)
    pts = A.world_points().reshape(-1, 3)
    q = B.to_chart(pts)
    lim = 0.9 * B.s_half
    keep = (np.abs(q[:, 0]) <= lim) & (np.abs(q[:, 1]) <= lim)
    assert keep.sum() > 50
    hB = RectBivariateSpline(B.uu, B.uu, B.h)
    gap = hB(q[keep, 0], q[keep, 1], grid=False) - q[keep, 2]
    assert np.abs(gap).max() < 1e-6


def test_patch_rejects_center_near_cusp(ps_run):
    with pytest.raises(pf.PatchError, match="cusp"):
        pf.graph_patch(ps_run.surfaces[1.0], (0.0, 0.0), 0.3)


def test_patch_rejects_disc_crossing_fold(ps_run):
    with pytest.raises(pf.PatchError, match="second sheet"):
        pf.graph_patch(ps_run.surfaces[1.0], (-0.45, -0.45), 0.7)


def test_patch_rejects_disc_leaving_grid(ps_run):
    with pytest.raises(pf.PatchError, match="leaves the grid"):
        pf.graph_patch(ps_run.surfaces[1.0], (-1.9, -1.9), 0.5)


@pytest.mark.parametrize("exact_tangents", [True, False])
def test_patch_rejects_nan_vertex(ps_run, exact_tangents):
    S0 = ps_run.surfaces[1.0]
    f = S0.f.copy()
    f[100, 100] = np.nan
    kw = {"fx": S0.fx, "fy": S0.fy} if exact_tangents else {}
    S = pf.SurfaceGrid(S0.x, S0.y, 1.0, f, S0.N, **kw)
    with pytest.raises(pf.PatchError):
        pf.graph_patch(S, (-1.0, -1.0), 0.5)


@pytest.mark.parametrize("name", ["f", "N", "fx", "fy"])
def test_patch_names_the_non_finite_field(ps_run, name):
    S0 = ps_run.surfaces[1.0]
    fields = {k: getattr(S0, k).copy() for k in ("f", "N", "fx", "fy")}
    fields[name][100, 100] = np.nan
    S = pf.SurfaceGrid(S0.x, S0.y, 1.0, fields["f"], S0.N,
                       fx=fields["fx"], fy=fields["fy"])
    S.N = fields["N"]                   # past the constructor's normal gate
    with pytest.raises(pf.PatchError,
                       match=rf"field {name} is not finite at node \(100, 100\)"):
        pf.graph_patch(S, (-1.0, -1.0), 0.5)


def test_patch_spline_derivative_route(closed_129):
    # no tangent fields stored: derivatives come from the position splines
    c = closed_129
    S = pf.SurfaceGrid(c.x, c.y, 1.0, c.f, c.N)
    p = pf.graph_patch(S, (-1.0, -1.0), 0.5)
    inner = np.s_[1:-1, 1:-1]
    assert np.abs(p.K[inner] + 1.0).max() < 1e-2


def test_patch_from_direct_evaluators():
    def point_front(xs, ys):
        u = np.asarray(xs, float) + np.asarray(ys, float)
        v = np.asarray(xs, float) - np.asarray(ys, float)
        se, th = 1.0 / np.cosh(u), np.tanh(u)
        f = np.stack([np.cos(v) * se, np.sin(v) * se, u - th], axis=-1)
        N = np.stack([np.cos(v) * th, np.sin(v) * th, se], axis=-1)
        du = np.stack([-se * th * np.cos(v), -se * th * np.sin(v), th * th],
                      axis=-1)
        dv = np.stack([-se * np.sin(v), se * np.cos(v), np.zeros_like(u)],
                      axis=-1)
        return f, N, du + dv, du - dv

    grid = np.linspace(-2.0, 2.0, 129)
    p = pf.graph_patch_evaluated(
        lambda xs, ys: point_front(xs, ys)[0],
        lambda xs, ys: point_front(xs, ys)[2],
        lambda xs, ys: point_front(xs, ys)[3],
        lambda xs, ys: point_front(xs, ys)[1],
        grid, grid, (-1.0, -1.0), 0.5)
    assert p.residual < 1e-10
    inner = np.s_[1:-1, 1:-1]
    assert np.abs(p.K[inner] + 1.0).max() < 1e-2
    assert p.normal_angle.max() < 1e-3
