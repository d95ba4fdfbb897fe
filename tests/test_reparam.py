"""Tangent-plane graph charts."""

import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline

import psfront as pf
from psfront import analysis


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
    # no tangent fields given: the chart reads the finite-difference tangents
    # SurfaceGrid fills in, through their own splines
    c = closed_129
    S = pf.SurfaceGrid(c.x, c.y, 1.0, c.f, c.N)
    h = c.x[1] - c.x[0]
    assert np.array_equal(S.fx, analysis.d_x(c.f, h))
    assert np.array_equal(S.fy, analysis.d_y(c.f, h))
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
