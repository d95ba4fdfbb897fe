"""Reference routes: direct sine-Gordon integration, closed-form surface."""

import numpy as np
import pytest

import psfront as pf
from psfront.oracles import cumtrapz_from_origin


def boundary(t):
    # characteristic values of the closed-form angle, split symmetrically
    return 4.0 * np.arctan(np.exp(t)) - 0.5 * np.pi


def closed_angle(x, y):
    return 4.0 * np.arctan(np.exp(x[:, None] + y[None, :]))


# -- goursat solver ----------------------------------------------------------

def test_goursat_second_order_against_closed_form():
    errs = []
    for n in (129, 257):
        x = np.linspace(-2.0, 2.0, n)
        sol = pf.goursat_solve(boundary, boundary, x, x)
        errs.append(np.abs(sol.phi - closed_angle(x, x)).max())
        i0 = n // 2
        assert np.array_equal(sol.phi_check[:, i0], np.zeros(n))
        assert np.array_equal(sol.phi_check[i0, :], np.zeros(n))
        assert sol.iterations <= 20
        assert sol.contraction < 0.1
        assert sol.final_delta < 1e-12
    assert errs[0] < 2e-3
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_goursat_fine_grid_accuracy():
    # quadrature error drops below 1e-6 by 4097 nodes per axis
    x = np.linspace(-2.0, 2.0, 4097)
    sol = pf.goursat_solve(boundary, boundary, x, x)
    assert np.abs(sol.phi - closed_angle(x, x)).max() < 1e-6


def test_goursat_zero_data_is_exact():
    x = np.linspace(-2.0, 2.0, 33)
    sol = pf.goursat_solve(lambda t: np.zeros_like(t),
                           lambda t: np.zeros_like(t), x, x)
    assert sol.iterations == 1
    assert sol.final_delta == 0.0
    assert np.array_equal(sol.phi, np.zeros((33, 33)))


def test_goursat_solution_is_a_fixed_point():
    x = np.linspace(-2.0, 2.0, 129)
    sol = pf.goursat_solve(boundary, boundary, x, x)
    inner = cumtrapz_from_origin(np.sin(sol.phi), x, axis=1)
    recon = (boundary(x)[:, None] + boundary(x)[None, :]
             + cumtrapz_from_origin(inner, x, axis=0))
    assert np.abs(recon - sol.phi).max() < 1e-12


def test_goursat_reports_no_convergence():
    x = np.linspace(-2.0, 2.0, 65)
    with pytest.raises(pf.ConvergenceError,
                       match="no convergence after 2 sweeps"):
        pf.goursat_solve(boundary, boundary, x, x, max_iter=2)


def test_goursat_rejects_zero_sweeps():
    x = np.linspace(-2.0, 2.0, 17)
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        pf.goursat_solve(boundary, boundary, x, x, max_iter=0)


def test_goursat_callable_and_array_inputs_agree():
    x = np.linspace(-2.0, 2.0, 33)
    y = np.linspace(-1.0, 1.0, 17)
    s1 = pf.goursat_solve(boundary, boundary, x, y)
    s2 = pf.goursat_solve(boundary(x), boundary(y), x, y)
    assert np.array_equal(s1.phi, s2.phi)
    assert s1.iterations == s2.iterations


def test_goursat_rejects_mismatched_samples():
    x = np.linspace(-2.0, 2.0, 33)
    with pytest.raises(ValueError, match="match the grid"):
        pf.goursat_solve(np.zeros(5), np.zeros(33), x, x)


# -- trapezoid antiderivative ------------------------------------------------

def test_cumtrapz_exact_on_linear_nonuniform():
    coord = np.array([-1.0, -0.4, -0.1, 0.0, 0.35, 0.8, 1.7])
    out = cumtrapz_from_origin(3.0 * coord + 1.0, coord, axis=0)
    assert np.abs(out - (1.5 * coord ** 2 + coord)).max() < 1e-14


def test_cumtrapz_axis_handling():
    rng = np.random.default_rng(7)
    coord = np.linspace(-1.0, 1.0, 9)
    F = rng.normal(size=(4, 9))
    out = cumtrapz_from_origin(F, coord, axis=1)
    rows = np.stack([cumtrapz_from_origin(F[i], coord, axis=0)
                     for i in range(4)])
    assert np.abs(out - rows).max() < 1e-15


# -- closed-form surface -----------------------------------------------------

def test_closed_form_front_identities(closed_129):
    c = closed_129
    assert np.abs(np.cross(c.N, c.Nx) - c.fx).max() < 1e-14
    assert np.abs(np.cross(c.N, c.Ny) + c.fy).max() < 1e-14
    i0 = len(c.x) // 2
    assert np.array_equal(c.N[i0, i0], np.array([0.0, 0.0, 1.0]))
    assert np.array_equal(c.f[i0, i0], np.array([1.0, 0.0, 0.0]))
    assert abs(c.omega[i0, i0] - np.pi) < 1e-15


def test_closed_form_tangent_properties():
    x = np.linspace(-2.0, 2.0, 65)
    f, N, omega = pf.pseudosphere_closed_form(x, x)
    fx, fy = pf.pseudosphere_tangents(x, x)
    assert np.abs(np.linalg.norm(fx, axis=-1) - 1.0).max() < 1e-14
    assert np.abs(np.linalg.norm(fy, axis=-1) - 1.0).max() < 1e-14
    assert np.abs(np.einsum("ijk,ijk->ij", fx, fy) - np.cos(omega)).max() < 1e-14
    # the stored normal carries the angle 2 pi - omega, so the area
    # element is -sin(omega) on this representative
    cross = np.cross(fx, fy)
    assert np.abs(cross + np.sin(omega)[..., None] * N).max() < 1e-14
