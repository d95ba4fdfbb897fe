"""Half-frame integration, Birkhoff splitting, frame assembly, connection data."""

import copy
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import psfront as pf
from conftest import connection_blocks
from psfront import analysis, frames, loops
from psfront.frames import (ConnectionShapeError, GridError, SplitError,
                            truncation_tail)


def random_packed(rng, n, k_min, k_max, scale):
    """n packed real-form loops on k_min..k_max, decaying like scale^|k|."""
    degs = np.arange(k_min, k_max + 1)
    return ((rng.normal(size=(n, len(degs)))
             + 1j * rng.normal(size=(n, len(degs)))) * scale ** np.abs(degs))


# -- half-frame ladder -------------------------------------------------------

def test_ladder_origin_is_identity():
    spec = pf.preset_by_name("pseudosphere")
    x = np.linspace(-2, 2, 17)
    fam = pf.integrate_half_frame(spec, "x", x)
    i0 = int(np.argmin(np.abs(x)))
    assert fam.coeffs.shape == (17, 17)
    assert fam.coeffs[i0, 0] == 1.0
    assert np.all(fam.coeffs[i0, 1:] == 0.0)


@pytest.mark.parametrize("axis", ["x", "y"])
def test_packed_ladder_keeps_the_bits_of_the_matrix_ladder(axis):
    spec = pf.preset_by_name("c0_kink", 0.5)
    x = np.linspace(-2, 2, 33)
    fam = pf.integrate_half_frame(spec, axis, x, n_trunc=8)
    lattice, sel, i0 = frames._lattice_for(spec, x)
    eta = pf.eta_plus if axis == "x" else pf.eta_minus
    A = eta(spec, lattice)
    U = np.zeros((len(lattice), 9, 2, 2), complex)
    U[:, 0] = np.eye(2)
    for k in range(1, 9):
        U[:, k] = analysis.cumtrapz_origin(
            np.einsum("nab,nbc->nac", U[:, k - 1], A), spec.step, i0)
    U = U[sel] if axis == "x" else U[sel, ::-1]
    assert np.array_equal(loops.unpack(fam.coeffs, fam.k_min), U)


def test_vacuum_ladder_matches_exponential():
    x = np.linspace(-2, 2, 129)
    fam = pf.integrate_half_frame(pf.preset_by_name("vacuum"), "x", x)
    assert np.abs(fam.coeffs[:, 2] + x ** 2 / 8.0).max() < 1e-14


def test_kink_degree_one_matches_adaptive_quadrature():
    # smooth on [0, 1], so a fine sample step exposes the quadrature accuracy
    spec = pf.preset_by_name("c0_kink", 1.0, step=1.0 / 8192.0)
    grid = np.linspace(0.0, 1.0, 9)
    fam = pf.integrate_half_frame(spec, "x", grid)
    re = quad(lambda s: np.cos(spec.alpha(s)), 0.0, 1.0)[0]
    im = quad(lambda s: -np.sin(spec.alpha(s)), 0.0, 1.0)[0]
    assert abs(fam.coeffs[-1, 1] - 0.5j * (re + 1j * im)) < 1e-8


def test_default_step_ladder_error_is_second_order():
    spec = pf.preset_by_name("c0_kink", 0.5)
    x = np.linspace(-2, 2, 129)
    fam = pf.integrate_half_frame(spec, "x", x)
    worst = 0.0
    for i in (0, 40, 128):
        re = quad(lambda s: np.cos(spec.alpha(s)), 0.0, x[i], limit=200)[0]
        im = quad(lambda s: -np.sin(spec.alpha(s)), 0.0, x[i], limit=200)[0]
        worst = max(worst, abs(fam.coeffs[i, 1] - 0.5j * (re + 1j * im)))
    assert worst < 1e-5                 # trapezoid at step 1/256


def test_ladder_decay_is_factorial():
    fam = pf.integrate_half_frame(pf.preset_by_name("pseudosphere"), "x",
                                  np.linspace(-2, 2, 65))
    for k, sup in enumerate(fam.per_degree_sup):
        assert sup <= 1.0 / math.factorial(k) + 1e-12


def test_y_axis_family_has_nonpositive_degrees():
    fam = pf.integrate_half_frame(pf.preset_by_name("pseudosphere"), "y",
                                  np.linspace(-2, 2, 17))
    assert fam.k_min == -fam.n_trunc == -16
    assert fam.coeffs.shape == (17, 17)
    # degree 0, the last slot, is the identity's at the origin only
    assert fam.coeffs[8, -1] == 1.0 and np.all(fam.coeffs[8, :-1] == 0.0)


def test_grid_validation():
    spec = pf.preset_by_name("pseudosphere")
    with pytest.raises(GridError):
        pf.integrate_half_frame(spec, "z", np.linspace(-2, 2, 17))
    with pytest.raises(GridError):
        pf.integrate_half_frame(spec, "x", np.linspace(-2, 2, 130))
    with pytest.raises(GridError):
        pf.integrate_half_frame(spec, "x", np.linspace(0.25, 2.0, 8))
    with pytest.raises(GridError):
        pf.integrate_half_frame(spec, "x", np.linspace(-5, 5, 11))
    with pytest.raises(GridError):
        pf.integrate_half_frame(spec, "x", np.array([0.0, 0.5, 0.25]))


# -- Birkhoff splitting ------------------------------------------------------

def test_split_identity():
    G = np.zeros((1, 33), complex)
    G[0, 16] = 1.0
    Lp, Lm, res = pf.birkhoff_split(G)
    assert np.array_equal(Lp, G[:, 16:])
    assert np.array_equal(Lm, G[:, :17])
    assert np.array_equal(res, [0.0])


def test_split_nonnegative_is_trivial():
    rng = np.random.default_rng(2)
    G = np.zeros((1, 33), complex)
    G[0, 16:21] = random_packed(rng, 1, 0, 4, 0.3)
    G[0, 16] = 1.0
    Lp, Lm, res = pf.birkhoff_split(G)
    assert np.array_equal(Lp, G[:, 16:])
    assert Lm[0, -1] == 1.0 and np.all(Lm[0, :-1] == 0.0)
    assert np.array_equal(res, [0.0])


def constructed_pair(rng, scale, n=1, n_trunc=16):
    """n normalized packed factor pairs, L_plus on 0..4 and L_minus on -4..0,
    and G = L_plus L_minus^{-1} on -n_trunc..n_trunc, with L_minus^{-1} from
    the reference inverse on -2 n_trunc..0."""
    Lp_true = random_packed(rng, n, 0, 4, scale)
    Lm_true = random_packed(rng, n, -4, 0, scale)
    Lp_true[:, 0] = Lm_true[:, -1] = 1.0
    return Lp_true, Lm_true, packed_quotient(Lp_true, Lm_true, 0, -4, n_trunc)


def packed_quotient(lp, lm, lpmin, lmmin, n_trunc):
    """lp lm^{-1} on -n_trunc..n_trunc, lm inverted by the reference kernel
    on -2 n_trunc..0 (the real form is closed under inversion)."""
    inv = loops.inverse_coeffs(loops.unpack(lm, lmmin), lmmin, -2 * n_trunc,
                               2 * n_trunc + 1)
    return loops.packed_mul(lp, loops.pack(inv, -2 * n_trunc), lpmin,
                            -2 * n_trunc, -n_trunc, 2 * n_trunc + 1)


def test_constructed_factor_round_trip():
    rng = np.random.default_rng(7)
    scale = np.where(np.arange(20) % 2 == 0, 0.05, 0.2)[:, None]
    Lp_true, Lm_true, G = constructed_pair(rng, scale, n=20)
    # below degree -16 the windowed product G L_minus keeps truncation junk
    # the solver never sees, so the recovered factors and the solved degree
    # range are asserted instead of the residual
    Lp, Lm, _ = pf.birkhoff_split(G)
    assert Lp.shape == Lm.shape == (20, 17)
    worst = max(loops.sup_abs(Lp[:, :5] - Lp_true),
                loops.sup_abs(Lm[:, -5:] - Lm_true))
    assert worst < 1e-10
    solved = loops.packed_mul(G, Lm, -16, -16, -16, 16)
    assert loops.sup_abs(solved) < 1e-12


def test_split_idempotent():
    rng = np.random.default_rng(21)
    _, _, G = constructed_pair(rng, 0.1)
    Lp, Lm, _ = pf.birkhoff_split(G)
    Lp2, Lm2, _ = pf.birkhoff_split(packed_quotient(Lp, Lm, 0, -16, 16))
    assert loops.sup_abs(Lp2 - Lp) < 1e-12
    assert loops.sup_abs(Lm2 - Lm) < 1e-12


def test_split_rejects_small_truncation():
    # N is read from the shape: an even or a one-degree window has none
    for shape in [(1, 32), (1, 1), (33,), (1, 1, 33)]:
        with pytest.raises(ValueError, match=r"2N\+1"):
            pf.birkhoff_split(np.ones(shape, complex))


def test_split_residual_gate():
    # the residual is returned, not gated: it is the largest coefficient of
    # G L_minus on degrees -2N..-1, per loop
    rng = np.random.default_rng(4)
    _, _, G = constructed_pair(rng, 0.2, n=3)
    _, Lm, res = pf.birkhoff_split(G)
    GL = loops.mul_coeffs(loops.unpack(G, -16), loops.unpack(Lm, -16),
                          -16, -16, -32, 32)
    want = np.abs(GL).max(axis=(1, 2, 3))
    assert res.shape == (3,) and np.all(want > 0.0)
    np.testing.assert_allclose(res, want, rtol=1e-12)


def test_split_singular_system():
    G = np.zeros((2, 5), complex)
    G[0, 2] = 1.0
    with pytest.raises(SplitError, match="singular Toeplitz system at loop 1"):
        pf.birkhoff_split(G)
    with pytest.raises(SplitError, match="at node 7"):
        pf.birkhoff_split(G, where=lambda i: f"node {i + 6}")


# -- frame field -------------------------------------------------------------

def test_field_origin_is_identity(ps_run):
    field = ps_run.field
    at0 = field.Uhat[field.i0x, field.i0y]
    target = np.zeros_like(at0)
    target[field.n_trunc] = 1.0
    assert np.abs(at0 - target).max() < 1e-12


def test_field_residuals_are_tiny(ps_run):
    field = ps_run.field
    assert field.split_residual.max() < 1e-13
    assert field.consistency.max() < 1e-13


def test_vacuum_field_matches_commuting_exponential(vacuum_run):
    field = vacuum_run.field
    assert field.split_residual.max() < 1e-10
    X, Y = np.meshgrid(vacuum_run.x, vacuum_run.y, indexing="ij")
    th = 0.5 * (X - Y)
    closed = np.stack([np.cos(th), 1j * np.sin(th)], -1)   # first row
    evaluated = loops.packed_eval(field.Uhat, -field.n_trunc, 1.0)[0]
    assert np.abs(evaluated - closed).max() < 1e-5


def test_unitarity_bounded_by_truncation_tail(ps_run):
    # the defect is the series tail plus solver roundoff; allow an order
    # of magnitude over the analytic envelope and a roundoff floor
    field = ps_run.field
    for lam, res in field.unitarity.items():
        tail = truncation_tail(field.n_trunc, 2.0, max(lam, 1.0 / lam))
        assert res < 50.0 * tail + 1e-13


def test_family_mismatch_rejected():
    spec = pf.preset_by_name("pseudosphere")
    x = np.linspace(-2, 2, 17)
    up = pf.integrate_half_frame(spec, "x", x)
    um = pf.integrate_half_frame(spec, "y", x)
    with pytest.raises(GridError):
        pf.build_frame_field(um, up)           # swapped axes
    um8 = pf.integrate_half_frame(spec, "y", x, n_trunc=8)
    with pytest.raises(GridError):
        pf.build_frame_field(up, um8)          # truncation mismatch


def test_validation_tolerance_can_force_failure():
    spec = pf.preset_by_name("pseudosphere")
    x = np.linspace(-2, 2, 9)
    field = pf.build_frame_field(pf.integrate_half_frame(spec, "x", x),
                                 pf.integrate_half_frame(spec, "y", x))
    with pytest.raises(SplitError, match="consistency"):
        frames._validate_field(field, 1e-30, 1e-8)


def test_origin_gate_rejects_a_unitary_non_identity():
    # a constant unitary phase on U_plus at the origin passes the
    # consistency and unitarity gates, so only the origin gate can see it
    spec = pf.preset_by_name("c0_kink", 0.5)
    x = np.linspace(-2, 2, 33)
    up = pf.integrate_half_frame(spec, "x", x, n_trunc=12)
    um = pf.integrate_half_frame(spec, "y", x, n_trunc=12)
    up.coeffs[16] = 0.0
    up.coeffs[16, 0] = np.exp(0.3j)
    with pytest.raises(SplitError,
                       match="frame at the origin is not the identity"):
        pf.build_frame_field(up, um)


def test_build_reads_u_hat_only_through_its_blocks(monkeypatch):
    # the gates read each block's assembled U_hat; frame_row_blocks serves
    # Sym
    def refuse(*args):
        raise AssertionError("the build evaluated the frame field")

    monkeypatch.setattr(frames, "frame_row_blocks", refuse)
    field = pf.build_frame_field(*small_families())
    assert set(field.unitarity) == {0.5, 1.0, 2.0}


def small_families(n=17, n_trunc=16):
    spec = pf.preset_by_name("pseudosphere")
    x = np.linspace(-2, 2, n)
    return (pf.integrate_half_frame(spec, "x", x, n_trunc=n_trunc),
            pf.integrate_half_frame(spec, "y", x, n_trunc=n_trunc))


def test_unitarity_gate_builds_one_weight_table_per_lambda():
    # the gate evaluates each block's U_hat at lambda in {1/2, 1, 2}
    up, um = small_families(65)
    loops._eval_weights.cache_clear()
    pf.build_frame_field(up, um)
    info = loops._eval_weights.cache_info()
    blocks = len(frames._row_blocks(65, 65))
    assert (info.misses, info.hits) == (3, 3 * blocks - 3)


@pytest.mark.parametrize("axis, node, degree", [("x", 3, 2), ("y", 4, 7)])
def test_family_with_nan_rejected(axis, node, degree):
    up, um = small_families()
    fam = up if axis == "x" else um
    fam.coeffs[node, degree] = np.nan
    with pytest.raises(SplitError, match=f"{axis}-axis half-frame family has "
                       f"a non-finite coefficient at node {node} "):
        pf.build_frame_field(up, um)


def test_nan_in_built_field_fails_the_gates(monkeypatch):
    up, um = small_families()
    field = pf.build_frame_field(up, um)
    field.consistency[2, 3] = np.nan
    with pytest.raises(SplitError, match="consistency"):
        frames._validate_field(field, 1e-8, 1e-8)
    field.consistency[2, 3] = 0.0
    field.unitarity[1.0] = np.nan
    with pytest.raises(SplitError, match="unitarity"):
        frames._validate_field(field, 1e-8, 1e-8)
    pf.extract_connection(field)                   # clean factors pass
    # L_minus's degree 0, 1 at every node, feeds U_hat's degrees 0..N there
    field.Lminus[6, 5, field.n_trunc] = np.nan
    with pytest.raises(ConnectionShapeError, match="nan"):
        pf.extract_connection(field)
    # blocks of 3 rows: row 15 is the first line of the last block and the
    # halo of the one before; a max() across blocks would drop the NaN there
    monkeypatch.setattr(frames, "BLOCK_NODES", 3 * len(field.y))
    field.Lminus[6, 5, field.n_trunc] = 1.0
    pf.extract_connection(field)
    field.Lminus[15, 5, field.n_trunc] = np.nan
    with pytest.raises(ConnectionShapeError,
                       match=r"'w1 degrees outside \{0,1\}' = nan"):
        pf.extract_connection(field)


def test_singular_split_names_the_grid_node():
    up, um = small_families()
    up.coeffs[3] = 0.0                   # finite, but G = 0 along row 3
    with pytest.raises(SplitError, match=r"singular Toeplitz system at node "
                       r"\(ix, iy\) = \(3, 0\), \(x, y\) = \(-1.25, -2\)"):
        pf.build_frame_field(up, um)


def test_kept_factor_slices_are_the_split_coefficients():
    spec = pf.preset_by_name("c0_kink", 0.5)
    x = np.linspace(-2, 2, 17)
    N = 16
    up = pf.integrate_half_frame(spec, "x", x, n_trunc=N)
    um = pf.integrate_half_frame(spec, "y", x, n_trunc=N)
    field = pf.build_frame_field(up, um)
    assert field.Lp.shape == field.Lm.shape == (17, 17)
    # origin, corner, both axes (the kink lines) and interior nodes; the
    # defining equations of the split, with the 2x2 reference kernels
    for ix, iy in [(8, 8), (0, 16), (8, 3), (2, 8), (3, 13), (14, 5)]:
        Vinv = loops.inverse_coeffs(loops.unpack(um.coeffs[iy], -N), -N, -N,
                                    N + 1)
        G = loops.mul_coeffs(Vinv, loops.unpack(up.coeffs[ix], 0), -N, 0, -N,
                             2 * N + 1)
        Lminus = loops.unpack(field.Lminus[ix, iy], -N)
        GL = loops.mul_coeffs(G, Lminus, -N, -N, -N, N + 1)
        assert np.abs(GL[:N]).max() <= 1e-13
        assert abs(GL[N, 0, 0] - field.Lp[ix, iy]) <= 1e-13
        assert np.array_equal(Lminus[N], np.eye(2))
    assert np.array_equal(field.Lm, field.Lminus[..., N - 1])


@pytest.mark.parametrize("preset, amplitude, n_trunc, half", [
    ("pseudosphere", None, 16, 2.0), ("c0_kink", 0.6, 8, 2.0),
    ("pseudosphere", None, 16, 4.0), ("c0_kink", 0.5, 16, 4.0)])
def test_y_family_adjugate_is_its_inverse(preset, amplitude, n_trunc, half):
    # the build inverts U_minus by its adjugate: det V = 1 on degrees -N..0
    N = n_trunc
    um = pf.integrate_half_frame(pf.preset_by_name(preset, amplitude), "y",
                                 np.linspace(-half, half, 129), n_trunc=N)
    adj = loops.unpack(loops.packed_adjugate(um.coeffs, -N), -N)
    inv = loops.inverse_coeffs(loops.unpack(um.coeffs, -N), -N, -N, N + 1)
    assert np.abs(adj - inv).max() <= 1e-13


@pytest.mark.parametrize("preset, amplitude, n_trunc",
                         [("pseudosphere", None, 16), ("c0_kink", 0.6, 8)])
def test_factor_evaluation_matches_the_assembled_frame(preset, amplitude,
                                                       n_trunc):
    # U_plus(lam) L_minus(lam) against U_hat's coefficients, assembled from
    # the same factors, at each lambda: rows and t-rows
    spec = pf.preset_by_name(preset, amplitude)
    x = np.linspace(-2, 2, 129)
    field = pf.build_frame_field(
        pf.integrate_half_frame(spec, "x", x, n_trunc=n_trunc),
        pf.integrate_half_frame(spec, "y", x, n_trunc=n_trunc))
    Uhat = field.Uhat
    for lam in (0.5, 1.0, 1.3, 2.0):
        blocks = list(frames.frame_row_blocks(field, lam))
        assert [r for r, *_ in blocks] == frames._row_blocks(129, 129)
        # a, b, a_t, b_t over the grid, as (nx, ny, 2) rows and t-rows
        a, b, a_t, b_t = (np.concatenate(v) for v in list(zip(*blocks))[1:])
        got = np.stack([a, b], -1), np.stack([a_t, b_t], -1)
        want = loops.packed_eval(Uhat, -n_trunc, lam)
        for g, w in zip(got, want):
            assert g.shape == (129, 129, 2)
            assert np.abs(g - w).max() <= 1e-13, lam


def field_arrays(field, conn):
    return (field.Uplus, field.Lminus, field.Lp, field.Lm,
            field.split_residual, field.consistency, conn.phihat, conn.r)


@pytest.mark.parametrize("block", ["under one line", "5 lines + 3", "all"])
def test_block_size_does_not_change_a_bit(monkeypatch, block):
    spec = pf.preset_by_name("c0_kink", 0.5)
    x, y = np.linspace(-2, 2, 65), np.linspace(-1, 1, 33)
    up = pf.integrate_half_frame(spec, "x", x, n_trunc=12)
    um = pf.integrate_half_frame(spec, "y", y, n_trunc=12)
    field = pf.build_frame_field(up, um)     # blocks of 31 rows by default
    conn = pf.extract_connection(field)
    monkeypatch.setattr(frames, "BLOCK_NODES", {
        "under one line": 5, "5 lines + 3": 5 * len(y) + 3,
        "all": 10 * len(x) * len(y)}[block])
    field_b = pf.build_frame_field(up, um)
    conn_b = pf.extract_connection(field_b)
    for a, b in zip(field_arrays(field, conn), field_arrays(field_b, conn_b)):
        assert np.array_equal(a, b)
    assert field_b.unitarity == field.unitarity
    assert conn_b.shape_report == conn.shape_report


def build_peak_above_held(n):
    """Traced peak bytes of a build above what it holds on return."""
    up, um = small_families(n)
    tracemalloc.start()
    try:
        field = pf.build_frame_field(up, um)   # held, as a caller holds it
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - held


@pytest.mark.parametrize("n", [65, 129, 257])
def test_build_and_extraction_memory_is_bounded(n):
    # peak traced bytes above what the call still holds on return: the
    # per-node work runs in blocks, so no whole-grid temporary is made
    reference = build_peak_above_held(129) if n == 257 else None
    up, um = small_families(n)
    tracemalloc.start()
    try:
        field = pf.build_frame_field(up, um)
        held, peak = tracemalloc.get_traced_memory()
        assert peak - held <= 16 * 2 ** 20
        if reference is not None:
            # every gate reads a block: the peak does not grow with the grid
            assert peak - held <= reference + 2 ** 20
        # the field holds the two factors plus one complex and two float
        # (nx, ny) fields, and no (nx, ny, 2N+1) array such as U_hat
        assert held <= (field.Uplus.nbytes + field.Lminus.nbytes
                        + 32 * n * n + 64 * 2 ** 10)
        assert not [name for name, value in vars(field).items()
                    if np.shape(value) == (n, n, 2 * field.n_trunc + 1)]
        tracemalloc.reset_peak()
        conn = pf.extract_connection(field)
        held, peak = tracemalloc.get_traced_memory()
        assert peak - held <= 16 * 2 ** 20
    finally:
        tracemalloc.stop()
    assert conn.shape_report


# -- connection extraction ---------------------------------------------------

def test_boundary_identities_exact(ps_run):
    conn, field = ps_run.conn, ps_run.field
    assert np.all(conn.r[:, field.i0y] == 0.0)
    assert np.all(conn.phihat[field.i0x, :] == conn.beta)


def test_angle_matches_closed_form(ps_run, closed_129):
    assert np.abs(ps_run.omega - closed_129.omega).max() < 1e-4


def test_shape_report_within_tolerance(ps_run, kink_run):
    for run in (ps_run, kink_run):
        worst = max(run.conn.shape_report.values())
        assert worst < 1.6e-2           # finite-difference floor at h = 1/32


def test_shape_check_rejects_a_perturbed_frame(ps_run):
    # L_minus's degree -3 off by 1e-2 at the origin, where U_plus = I, so
    # U_hat's degree -3 moves by as much: centered differences put
    # 1e-2 / (2 h) = 0.16 outside W1's degrees, against h / 2 at h = 1/32
    field = copy.copy(ps_run.field)
    field.Lminus = ps_run.field.Lminus.copy()
    field.Lminus[64, 64, field.n_trunc - 3] += 1e-2
    with pytest.raises(ConnectionShapeError, match=r"outside \{0,1\}' = "
                       r"1.600e-01 exceeds 1.562e-02"):
        pf.extract_connection(field)


def test_vacuum_connection_is_zero(vacuum_run):
    conn = vacuum_run.conn
    assert np.abs(conn.phihat).max() == 0.0
    assert np.abs(conn.r).max() == 0.0


def test_zcc_vacuum_is_zero(vacuum_run):
    assert pf.zcc_residual(vacuum_run.conn).max() < 1e-12


def test_zcc_residual_small_on_pipeline(ps_run):
    assert pf.zcc_residual(ps_run.conn).max() < 1e-3


def zcc_reference(conn):
    """The residual in 2x2 form: d_y omega1 - d_x omega2 + [omega2, omega1]
    degree by degree, sup over degrees and matrix entries at each node."""
    hx, hy = analysis.spacing(conn)
    w1_0, w1_1, w2_m1 = connection_blocks(conn)

    def comm(A, B):
        return (np.einsum("...ab,...bc->...ac", A, B)
                - np.einsum("...ab,...bc->...ac", B, A))

    res0 = analysis.d_y(w1_0, hy) + comm(w2_m1, w1_1)
    resm1 = -analysis.d_x(w2_m1, hx) + comm(w2_m1, w1_0)
    resp1 = analysis.d_y(w1_1, hy)
    stack = np.stack([np.abs(res0), np.abs(resm1), np.abs(resp1)], axis=-1)
    return stack.reshape(stack.shape[:2] + (-1,)).max(axis=-1)


@pytest.mark.parametrize("run_name",
                         ["ps_run", "ps_run_257", "kink_run", "vacuum_run"])
def test_zcc_residual_matches_matrix_form(run_name, request):
    conn = request.getfixturevalue(run_name).conn
    got = pf.zcc_residual(conn)
    assert got.shape == conn.phihat.shape
    assert np.abs(got - zcc_reference(conn)).max() <= 1e-15


def test_truncation_tail_formula():
    assert truncation_tail(16, 2.0, 1.0) == pytest.approx(
        1.0 / math.factorial(17) * math.e, rel=1e-12)
    assert truncation_tail(8, 2.0, 1.0) > truncation_tail(16, 2.0, 1.0)
