"""Shared builds for the test suite.

The frame builds are by far the most expensive step (seconds each), so every
configuration the tests need is constructed once per session and shared. Each
fixture returns a plain namespace with the grids, the frame field, the
connection, surfaces keyed by lambda, and the wall-clock build time.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

import psfront as pf
from psfront import loops

LAMBDAS = (0.5, 1.0, 2.0)

# one profile for every property test: no per-example deadline, since a
# shared build or a cold numpy call in an example can outlast the default
settings.register_profile("psfront", deadline=None)
settings.load_profile("psfront")


def build_run(spec, n, half=2.0, n_trunc=16, lambdas=(1.0,)):
    x = np.linspace(-half, half, n)
    t0 = time.perf_counter()
    up = pf.integrate_half_frame(spec, "x", x, n_trunc=n_trunc)
    um = pf.integrate_half_frame(spec, "y", x, n_trunc=n_trunc)
    field = pf.build_frame_field(up, um)
    conn = pf.extract_connection(field)
    surfaces = {lam: pf.sym_immersion(field, lam, conn=conn) for lam in lambdas}
    seconds = time.perf_counter() - t0
    return SimpleNamespace(
        spec=spec, x=x, y=x, h=2.0 * half / (n - 1), field=field, conn=conn,
        surfaces=surfaces, omega=conn.omega,
        build_seconds=seconds)


@pytest.fixture(scope="session")
def ps_run():
    return build_run(pf.preset_by_name("pseudosphere"), 129, lambdas=LAMBDAS)


@pytest.fixture(scope="session")
def ps_run_257():
    return build_run(pf.preset_by_name("pseudosphere"), 257)


@pytest.fixture(scope="session")
def ps_run_n8():
    return build_run(pf.preset_by_name("pseudosphere"), 129, n_trunc=8)


@pytest.fixture(scope="session")
def kink_run():
    return build_run(pf.preset_by_name("c0_kink", 0.5), 129, lambdas=LAMBDAS)


@pytest.fixture(scope="session")
def vacuum_run():
    return build_run(pf.preset_by_name("vacuum"), 17, lambdas=LAMBDAS)


def connection_blocks(conn):
    """omega1's degree-0 and degree-1 and omega2's degree -1 coefficient
    fields, (nx, ny, 2, 2) each, unpacked from the scalars r, p and q."""
    q = np.broadcast_to(0.5 * conn.q[:, None], conn.r.shape)
    w1 = loops.unpack(np.stack([0.5j * conn.r, q], -1), 0)
    w2 = loops.unpack(-0.5 * conn.p[..., None], -1)
    return w1[..., 0, :, :], w1[..., 1, :, :], w2[..., 0, :, :]


def closed_form_namespace(n):
    """Closed-form pseudo-sphere on [-2,2]^2 with exact derivative fields."""
    x = np.linspace(-2.0, 2.0, n)
    f, N, omega = pf.pseudosphere_closed_form(x, x)
    fx, fy = pf.pseudosphere_tangents(x, x)
    X, Y = np.meshgrid(x, x, indexing="ij")
    u, v = X + Y, X - Y
    se, th = 1.0 / np.cosh(u), np.tanh(u)
    dNu = np.stack([np.cos(v) * se ** 2, np.sin(v) * se ** 2, -se * th], axis=-1)
    dNv = np.stack([-np.sin(v) * th, np.cos(v) * th, np.zeros_like(u)], axis=-1)
    return SimpleNamespace(
        x=x, y=x, h=4.0 / (n - 1), f=f, N=N, omega=omega, fx=fx, fy=fy,
        Nx=dNu + dNv, Ny=dNu - dNv, u=u, v=v)


@pytest.fixture(scope="session")
def closed_129():
    return closed_form_namespace(129)


@pytest.fixture(scope="session")
def closed_surface_129(closed_129):
    c = closed_129
    return pf.SurfaceGrid(c.x, c.y, 1.0, c.f, c.N, fx=c.fx, fy=c.fy,
                          Nx=c.Nx, Ny=c.Ny)
