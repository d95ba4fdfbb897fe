"""Geometric verification: forms, curvature, angles, torsion, front recovery."""

import math
import warnings

import numpy as np
import pytest

import psfront as pf
from conftest import build_run
from psfront import analysis


def surface_from_arrays(x, y, f, N, **kw):
    return pf.SurfaceGrid(x, y, 1.0, f, N, **kw)


def front_from_fd_normal(N, h):
    """front_from_normal with finite-difference normal derivatives."""
    return pf.front_from_normal(N, h, h, analysis.d_x(N, h),
                                analysis.d_y(N, h))


# -- fundamental forms -------------------------------------------------------

def test_closed_form_first_form_is_chebyshev(closed_surface_129, closed_129):
    g = pf.fundamental_forms(closed_surface_129)
    om = closed_129.omega
    assert np.abs(g.E - 1.0).max() < 1e-12
    assert np.abs(g.G - 1.0).max() < 1e-12
    assert np.abs(g.F - np.cos(om)).max() < 1e-12


def test_closed_form_second_form_and_curvature(closed_surface_129, closed_129):
    # the stored normal orients the closed form with angle 4 atan(e^{-x-y})
    g = pf.fundamental_forms(closed_surface_129)
    om_flip = 2.0 * np.pi - closed_129.omega
    assert np.abs(g.ell).max() < 1e-12
    assert np.abs(g.n).max() < 1e-12
    assert np.abs(g.m - np.sin(om_flip)).max() < 1e-12
    assert np.abs(g.K[g.regular] + 1.0).max() < 1e-12


def test_finite_difference_route_converges(closed_129):
    c = closed_129
    S = surface_from_arrays(c.x, c.y, c.f, c.N)       # no analytic fields
    g = pf.fundamental_forms(S)
    inner = np.s_[2:-2, 2:-2]
    assert np.abs(g.E - 1.0)[inner].max() < 2e-3
    reg = g.regular[inner]
    assert np.abs(g.K[inner][reg] + 1.0).max() < 1e-2


def test_regular_mask_and_count(ps_run):
    g = pf.fundamental_forms(ps_run.surfaces[1.0])
    assert g.regular_count == int(g.regular.sum())
    assert np.all(np.isnan(g.K[~g.regular]))
    sin2 = np.sin(ps_run.omega) ** 2
    assert np.array_equal(g.regular, sin2 > g.reg_threshold)


# -- frames and angle field --------------------------------------------------

def test_tangent_frame_rejects_nan_tangent(closed_129):
    fx = closed_129.fx.copy()
    fx[40, 70] = np.nan
    with pytest.raises(ValueError, match="determinant defect nan"):
        pf.tangent_frame(fx, closed_129.N)
    # the same gate runs inside complete_frame and angle_field
    with pytest.raises(ValueError, match="determinant defect nan"):
        pf.complete_frame(fx, closed_129.N, closed_129.omega)
    S = surface_from_arrays(closed_129.x, closed_129.y, closed_129.f,
                            closed_129.N, fx=fx, fy=closed_129.fy)
    with pytest.raises(ValueError, match="determinant defect nan"):
        pf.angle_field(S)


def test_complete_frame_rejects_nan_angle(ps_run):
    S = ps_run.surfaces[1.0]
    omega = ps_run.omega.copy()
    omega[40, 70] = np.nan
    turned = "turned frame determinant defect nan"
    with pytest.raises(ValueError, match=turned):
        pf.complete_frame(S.fx, S.N, omega)
    # one row of the grid is gated on its own
    with pytest.raises(ValueError, match=turned):
        pf.complete_frame(S.fx[:, 70], S.N[:, 70], omega[:, 70])
    pf.complete_frame(S.fx[:, 69], S.N[:, 69], omega[:, 69])


def test_tangent_frame_is_orthonormal(ps_run):
    S = ps_run.surfaces[1.0]
    tx, fxp = pf.tangent_frame(S.fx, S.N)
    for v in (tx, fxp):
        assert np.abs(np.linalg.norm(v, axis=-1) - 1.0).max() < 1e-12
    for a, b in ((tx, S.N), (fxp, S.N), (tx, fxp)):
        assert np.abs(np.einsum("ijk,ijk->ij", a, b)).max() < 1e-12
    det = np.einsum("ijk,ijk->ij", np.cross(tx, fxp), S.N)
    assert np.abs(det - 1.0).max() < 1e-8


def test_angle_field_matches_connection(ps_run):
    om = pf.angle_field(ps_run.surfaces[1.0])
    assert np.abs(om - ps_run.omega).max() < 1e-12


def test_angle_field_on_closed_form_inputs(closed_129):
    c = closed_129
    # the printed-angle orientation carries the opposite normal
    S = surface_from_arrays(c.x, c.y, c.f, -c.N, fx=c.fx, fy=c.fy,
                            Nx=-c.Nx, Ny=-c.Ny)
    om = pf.angle_field(S)
    assert np.abs(om - c.omega).max() < 1e-6
    assert abs(om[64, 64] - np.pi) < 1e-12


def test_complete_frame_orthonormal(ps_run):
    S = ps_run.surfaces[1.0]
    e1, e2 = pf.complete_frame(S.fx, S.N, ps_run.omega)
    triple = np.stack([e1, e2, S.N], axis=-2)
    gram = np.einsum("...ik,...jk->...ij", triple, triple)
    assert np.abs(gram - np.eye(3)).max() < 1e-12
    det = np.einsum("ijk,ijk->ij", np.cross(e1, e2), S.N)
    assert np.abs(det - 1.0).max() < 1e-8
    # both asymptotic directions sit at half the angle from e1
    half = np.cos(0.5 * ps_run.omega)
    tx, _ = pf.tangent_frame(S.fx, S.N)
    assert np.abs(np.einsum("ijk,ijk->ij", tx, e1) - half).max() < 1e-12
    assert np.abs(np.einsum("ijk,ijk->ij", S.fy, e1) - half).max() < 1e-12
    # a row is the same frame as the row of the whole grid
    row = pf.complete_frame(S.fx[:, 64], S.N[:, 64], ps_run.omega[:, 64])
    assert np.array_equal(row[0], e1[:, 64])
    assert np.array_equal(row[1], e2[:, 64])


def test_boundary_angle_recovery(ps_run):
    ah, bh = pf.recover_boundary_angles(ps_run.omega, ps_run.x, ps_run.y)
    spec = ps_run.spec
    assert np.abs(ah - spec.alpha(ps_run.x)).max() < 1e-12
    assert np.abs(bh - spec.beta(ps_run.y)).max() < 1e-12


def test_boundary_recovery_on_vacuum_is_zero(vacuum_run):
    ah, bh = pf.recover_boundary_angles(vacuum_run.omega,
                                        vacuum_run.x, vacuum_run.y)
    assert not ah.any()
    assert not bh.any()


# -- scalar residuals --------------------------------------------------------

def test_sine_gordon_pointwise_identity():
    u = np.linspace(-4, 4, 1001)
    lhs = -2.0 / np.cosh(u) * np.tanh(u)
    assert np.abs(lhs - np.sin(4.0 * np.arctan(np.exp(u)))).max() < 1e-12


def test_sine_gordon_residual_second_order(closed_129):
    r129 = np.nanmax(np.abs(pf.sine_gordon_residual(
        closed_129.omega, closed_129.h, closed_129.h)))
    x = np.linspace(-2, 2, 257)
    _, _, om257 = pf.pseudosphere_closed_form(x, x)
    r257 = np.nanmax(np.abs(pf.sine_gordon_residual(om257, 1 / 64, 1 / 64)))
    assert r129 < 2e-3
    assert 3.0 < r129 / r257 < 5.0


def test_sine_gordon_residual_on_pipeline(ps_run):
    res = np.nanmax(np.abs(pf.sine_gordon_residual(
        ps_run.omega, ps_run.h, ps_run.h)))
    assert res < 1e-3


def test_harmonicity_factor_tracks_cos_omega(closed_surface_129, closed_129):
    harm, hh = pf.harmonicity_residual(closed_surface_129, closed_129.omega)
    assert np.nanmax(harm) < 3e-3
    assert np.nanmax(np.abs(hh - np.cos(closed_129.omega))) < 3e-3


def test_mixed_residual_rows_keep_an_interior_nan():
    # d_xy is NaN on the boundary ring by definition; inside it NaN is a fault
    run = build_run(pf.preset_by_name("pseudosphere"), 33)
    S = run.surfaces[1.0]
    rep = pf.fundamental_forms(S)
    rows = {name: check for name, _, check in analysis.CHECKS}
    names = ("sine-Gordon residual", "harmonicity residual")
    omega = run.omega.copy()
    assert all(math.isfinite(rows[n](S, rep, omega, None)) for n in names)
    omega[10, 12] = np.nan
    assert all(math.isnan(rows[n](S, rep, omega, None)) for n in names)


# -- torsion -----------------------------------------------------------------

def test_torsion_on_unit_torsion_helix():
    # c(t) = (cos t, sin t, t)/2 has curvature 1 and torsion 1
    x = np.linspace(-2, 2, 129)
    y = np.linspace(-1, 1, 5)
    t = 2.0 * x
    curve = 0.5 * np.stack([np.cos(t), np.sin(t), t], axis=-1)
    f = np.broadcast_to(curve[:, None, :], (129, 5, 3)).copy()
    N = np.broadcast_to(np.array([0.0, 0.0, 1.0]), (129, 5, 3)).copy()
    S = surface_from_arrays(x, y, f, N)
    tau = pf.asymptotic_torsion(S, "x")
    inner = tau[10:-10]
    assert np.abs(inner[np.isfinite(inner)] - 1.0).max() < 1e-4


def test_torsion_sign_on_cubic_curve():
    # c(t) = (t, t^2, t^3): torsion 12 / |c' x c''|^2 = 3 at t = 0
    x = np.linspace(-1, 1, 65)
    y = np.linspace(-1, 1, 5)
    curve = np.stack([x, x ** 2, x ** 3], axis=-1)
    f = np.broadcast_to(curve[:, None, :], (65, 5, 3)).copy()
    N = np.broadcast_to(np.array([0.0, 0.0, 1.0]), (65, 5, 3)).copy()
    S = surface_from_arrays(x, y, f, N)
    tau = pf.asymptotic_torsion(S, "x")
    assert abs(tau[32, 2] - 3.0) < 1e-9


def test_torsion_near_unit_on_pipeline(ps_run):
    S = ps_run.surfaces[1.0]
    mask = np.abs(np.sin(ps_run.omega)) > 0.3
    for direction in ("x", "y"):
        tau = pf.asymptotic_torsion(S, direction)
        sel = mask & np.isfinite(tau)
        assert np.abs(np.abs(tau[sel]) - 1.0).max() < 1e-2


def test_torsion_on_kink_away_from_axes(kink_run):
    # the slope kink in the boundary data propagates along both axes and
    # pollutes any stencil touching them, so skip a three node margin
    S = kink_run.surfaces[1.0]
    i0 = len(kink_run.x) // 2
    away = np.ones_like(kink_run.omega, dtype=bool)
    away[i0 - 3:i0 + 4, :] = False
    away[:, i0 - 3:i0 + 4] = False
    strong = np.abs(np.sin(kink_run.omega)) > 0.3
    for direction in ("x", "y"):
        tau = pf.asymptotic_torsion(S, direction)
        sel = strong & away & np.isfinite(tau)
        assert sel.sum() > 10000
        assert np.abs(np.abs(tau[sel]) - 1.0).max() < 5e-2


# -- front from normal -------------------------------------------------------

def test_front_from_constant_normal_is_origin():
    N = np.broadcast_to(np.array([0.0, 0.0, 1.0]), (17, 17, 3)).copy()
    f, closure = front_from_fd_normal(N, 0.1)
    assert np.abs(f).max() < 1e-14
    assert closure.max() < 1e-14


def test_front_from_normal_with_exact_derivatives(closed_129):
    c = closed_129
    f_rec, closure = pf.front_from_normal(c.N, c.h, c.h, Nx=c.Nx, Ny=c.Ny)
    centered = c.f - c.f.reshape(-1, 3).mean(axis=0)
    rec_centered = f_rec - f_rec.reshape(-1, 3).mean(axis=0)
    assert np.abs(rec_centered - centered).max() < 1e-3
    assert closure.max() < 1e-6


def test_front_from_normal_pipeline_round_trip(ps_run):
    S = ps_run.surfaces[1.0]
    f_rec, closure = pf.front_from_normal(S.N, ps_run.h, ps_run.h,
                                          Nx=S.Nx, Ny=S.Ny)
    centered = S.f - S.f.reshape(-1, 3).mean(axis=0)
    rec = f_rec - f_rec.reshape(-1, 3).mean(axis=0)
    assert np.abs(rec - centered).max() < 1e-3
    assert closure.max() < 1e-6


def test_front_from_normal_fd_route_stays_integrable(closed_129):
    # finite-difference tangents of a true front commute to quadrature level
    c = closed_129
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f_rec, closure = front_from_fd_normal(c.N, c.h)
    assert closure.max() < 1e-4


def test_front_from_normal_warns_when_not_integrable():
    x = np.linspace(-0.8, 0.8, 17)
    X, Y = np.meshgrid(x, x, indexing="ij")
    N = np.stack([0.4 * np.sin(2 * Y), 0.4 * np.cos(2 * X),
                  np.ones_like(X)], axis=-1)
    N /= np.linalg.norm(N, axis=-1, keepdims=True)
    with pytest.warns(UserWarning, match="not integrable"):
        f, closure = front_from_fd_normal(N, 0.1)
    assert closure.max() > 1e-4


def test_front_from_normal_warns_on_nan_normal():
    N = np.broadcast_to(np.array([0.0, 0.0, 1.0]), (17, 17, 3)).copy()
    N[4, 9] = np.nan
    with pytest.warns(UserWarning, match="not integrable"):
        f, closure = front_from_fd_normal(N, 0.1)
    assert np.isnan(closure.max())


# -- alignment and signs -----------------------------------------------------

def test_procrustes_recovers_rigid_motion():
    rng = np.random.default_rng(8)
    A = rng.normal(size=(40, 3))
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    t = np.array([0.3, -1.2, 2.0])
    B = A @ Q.T + t
    R, t_rec, res = pf.procrustes_align(A, B)
    assert np.abs(R - Q).max() < 1e-12
    assert np.abs(t_rec - t).max() < 1e-12
    assert res.max() < 1e-12


def test_procrustes_never_reflects():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(40, 3))
    B = A * np.array([1.0, 1.0, -1.0])        # mirrored cloud
    R, _, res = pf.procrustes_align(A, B)
    assert np.linalg.det(R) > 0.5
    assert res.max() > 1e-2


def test_normal_sign_comparison_on_pipeline(ps_run):
    S = ps_run.surfaces[1.0]
    nsc = pf.normal_sign_comparison(S, ps_run.omega)
    assert nsc["agree"]
    assert nsc["max_deviation"] < 1e-12
    # where sin omega > 0 the cross product points along the stored normal
    pos = nsc["mask"] & (np.sin(ps_run.omega) > 0)
    assert np.all(nsc["sign"][pos] == 1.0)
