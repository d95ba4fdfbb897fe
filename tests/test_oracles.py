"""Reference routes: direct sine-Gordon integration, closed-form surface."""

import ast
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import psfront as pf
from psfront import oracles
from psfront.analysis import cumtrapz_origin


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


def test_goursat_solution_holds_one_grid_array():
    # phi_check is computed from phi, alpha and beta on access
    x = np.linspace(-2.0, 2.0, 513)
    tracemalloc.start()
    try:
        sol = pf.goursat_solve(boundary, boundary, x, x)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.phi.nbytes <= held <= sol.phi.nbytes + 64 * 2 ** 10
    assert np.array_equal(sol.phi_check,
                          sol.phi - boundary(x)[:, None] - boundary(x))


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
    # the march lands on the fixed point of the product-trapezoid integral
    x = np.linspace(-2.0, 2.0, 129)
    h, i0 = x[1] - x[0], 64
    sol = pf.goursat_solve(boundary, boundary, x, x)
    inner = cumtrapz_origin(np.sin(sol.phi).T, h, i0).T
    recon = (boundary(x)[:, None] + boundary(x)[None, :]
             + cumtrapz_origin(inner, h, i0))
    assert np.abs(recon - sol.phi).max() < 1e-12


def test_goursat_cell_identity_on_nonuniform_grid():
    # uneven steps on both sides of the origin, unequal node counts
    rng = np.random.default_rng(11)
    x = np.sort(np.append(rng.uniform(-1.5, 1.2, 22), 0.0))
    y = np.sort(np.append(rng.uniform(-0.7, 1.9, 13), 0.0))
    sol = pf.goursat_solve(boundary, np.cos, x, y)
    w, s = sol.phi, np.sin(sol.phi)
    k = 0.25 * np.diff(x)[:, None] * np.diff(y)[None, :]
    lhs = w[1:, 1:] - w[1:, :-1] - w[:-1, 1:] + w[:-1, :-1]
    rhs = k * (s[1:, 1:] + s[1:, :-1] + s[:-1, 1:] + s[:-1, :-1])
    assert sol.phi.shape == (23, 14)
    assert np.abs(lhs - rhs).max() < 1e-14
    i0, j0 = int(np.flatnonzero(x == 0)[0]), int(np.flatnonzero(y == 0)[0])
    assert np.array_equal(sol.phi[i0], boundary(x)[i0] + np.cos(y))
    assert np.array_equal(sol.phi[:, j0], boundary(x) + np.cos(y)[j0])
    assert sol.contraction == 0.25 * np.diff(x).max() * np.diff(y).max()


def test_goursat_reports_no_convergence():
    # steps of 3 give k = 9/4, where the cell map is no contraction
    x = np.linspace(-3.0, 3.0, 3)
    with pytest.raises(pf.ConvergenceError,
                       match=r"cell \(ix, iy\) = \(2, 2\) at \(x, y\) = "
                             r"\(3, 3\): .* after 50 updates"):
        pf.goursat_solve(boundary, boundary, x, x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_goursat_names_the_cell_a_bad_sample_reaches(bad):
    # the first cell marched from alpha's sample at x = 0.75 is (8 + 3, 8 + 1)
    x = np.linspace(-2.0, 2.0, 17)
    a = boundary(x)
    a[11] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(pf.ConvergenceError) as exc:
            pf.goursat_solve(a, boundary, x, x)
    assert "cell (ix, iy) = (11, 9) at (x, y) = (0.75, 0.25)" in str(exc.value)
    assert "w = nan" in str(exc.value)


@pytest.mark.parametrize("axis", ["x", "y"])
def test_goursat_rejects_an_axis_without_origin_node(axis):
    # the data sit on the lines x = 0 and y = 0, which need grid nodes
    grids = {"x": np.linspace(-2.0, 2.0, 65), "y": np.linspace(-2.0, 2.0, 65)}
    grids[axis] = np.linspace(-2.0, 2.0, 64)
    with pytest.raises(ValueError, match=f"{axis} has no node at 0"):
        pf.goursat_solve(boundary, boundary, grids["x"], grids["y"])


def test_oracles_import_numpy_only():
    # the arbiters share no code with the pipeline they check
    tree = ast.parse(Path(oracles.__file__).read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
    assert names == ["numpy"]


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
