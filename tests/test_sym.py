"""Immersion and normal from the frame family, su(2) conversions, tangents."""

import copy
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import psfront as pf
from conftest import connection_blocks
from psfront import frames, loops, sym
from psfront.sym import E1, E2, E3, StructureError


def test_su2_basis_maps_to_standard_basis():
    np.testing.assert_allclose(pf.su2_to_r3(E1), [1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(pf.su2_to_r3(E2), [0, 1, 0], atol=1e-15)
    np.testing.assert_allclose(pf.su2_to_r3(E3), [0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(pf.su2_to_r3(np.zeros((2, 2))), 0.0, atol=1e-15)


def test_commutator_maps_to_cross_product():
    np.testing.assert_allclose(
        pf.su2_to_r3(E1 @ E2 - E2 @ E1), [0, 0, 1], atol=1e-15)
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=3), rng.normal(size=3)
    A = a[0] * E1 + a[1] * E2 + a[2] * E3
    B = b[0] * E1 + b[1] * E2 + b[2] * E3
    np.testing.assert_allclose(
        pf.su2_to_r3(A @ B - B @ A), np.cross(a, b), atol=1e-13)


def test_su2_structure_is_enforced():
    with pytest.raises(StructureError):
        pf.su2_to_r3(np.eye(2))                     # Hermitian, nonzero trace
    with pytest.raises(StructureError):
        pf.su2_to_r3(np.array([[1j, 0], [0, 1j]]))  # anti-Hermitian, traceful
    with pytest.raises(StructureError):
        pf.su2_to_r3(np.full((2, 2), np.nan))


def test_lambda_must_be_positive(ps_run):
    with pytest.raises(ValueError):
        pf.sym_immersion(ps_run.field, 0.0, ps_run.conn)
    with pytest.raises(ValueError):
        pf.sym_immersion(ps_run.field, -1.0, ps_run.conn)


def set_structure_tol(monkeypatch, tol):
    monkeypatch.setattr(sym, "tail_tolerance", lambda *args: tol)


def test_structure_tolerance_can_force_failure(ps_run, monkeypatch):
    set_structure_tol(monkeypatch, 1e-30)
    with pytest.raises(StructureError):
        pf.sym_immersion(ps_run.field, 1.0, ps_run.conn)


def test_origin_anchors(ps_run):
    S = ps_run.surfaces[1.0]
    assert np.abs(S.f[S.i0x, S.i0y]).max() < 1e-13
    np.testing.assert_allclose(S.N[S.i0x, S.i0y], [0, 0, 1], atol=1e-13)


def test_normal_is_unit(ps_run):
    for S in ps_run.surfaces.values():
        norms = np.linalg.norm(S.N, axis=-1)
        assert np.abs(norms - 1.0).max() < 1e-12


def test_tangent_lengths_scale_with_lambda(ps_run, kink_run):
    for run in (ps_run, kink_run):
        for lam, S in run.surfaces.items():
            E = np.einsum("ijk,ijk->ij", S.fx, S.fx)
            G = np.einsum("ijk,ijk->ij", S.fy, S.fy)
            assert np.abs(E - lam ** 2).max() < 1e-12
            assert np.abs(G - lam ** -2).max() < 1e-12


def test_tangents_orthogonal_to_normal(ps_run):
    S = ps_run.surfaces[1.0]
    assert np.abs(np.einsum("ijk,ijk->ij", S.fx, S.N)).max() < 1e-13
    assert np.abs(np.einsum("ijk,ijk->ij", S.fy, S.N)).max() < 1e-13


def test_cross_product_law(ps_run):
    S = ps_run.surfaces[1.0]
    cross = np.cross(S.fx, S.fy)
    target = np.sin(ps_run.omega)[..., None] * S.N
    assert np.abs(cross - target).max() < 1e-6


def test_analytic_tangents_match_finite_differences(ps_run):
    S = ps_run.surfaces[1.0]
    fd = np.gradient(S.f, ps_run.h, axis=0)
    assert np.abs(fd - S.fx)[2:-2].max() < 1e-3


def test_vacuum_surface_is_a_line(vacuum_run):
    X, Y = np.meshgrid(vacuum_run.x, vacuum_run.y, indexing="ij")
    for lam, S in vacuum_run.surfaces.items():
        line = lam * X + Y / lam
        target = np.stack([line, np.zeros_like(line), np.zeros_like(line)], -1)
        assert np.abs(S.f - target).max() < 1e-3


def test_vacuum_tangent_is_constant(vacuum_run):
    S = vacuum_run.surfaces[1.0]
    assert np.abs(S.fx - np.array([1.0, 0.0, 0.0])).max() < 1e-10


def test_surface_grid_rejects_nan_normal(ps_run):
    S = ps_run.surfaces[1.0]
    for node in ((3, 4), (100, 4)):           # row blocks 0 and 14
        N = S.N.copy()
        N[node] = np.nan
        with pytest.raises(StructureError, match="normal field norm"):
            sym.SurfaceGrid(S.x, S.y, 1.0, S.f, N)


def nan_frame_node(run, node=(6, 5)):
    """The run's field with L_minus's degree 0 NaN at node."""
    field = copy.copy(run.field)
    field.Lminus = run.field.Lminus.copy()
    field.Lminus[node + (field.n_trunc,)] = np.nan
    return field


def perturbed_frame(run):
    """The run's field with 1e-3 added to L_minus's degree 0 at every node:
    U_hat gains 1e-3 U_plus and leaves SU(2)."""
    field = copy.copy(run.field)
    field.Lminus = run.field.Lminus.copy()
    field.Lminus[..., field.n_trunc] += 1e-3
    return field


def test_nan_frame_node_fails_sym_immersion(ps_run, monkeypatch):
    # in the first block of rows and in block 14: a max() over the blocks
    # would drop the second
    for node in ((6, 5), (100, 5)):
        with pytest.raises(StructureError, match=r"not su\(2\): defect nan"):
            pf.sym_immersion(nan_frame_node(ps_run, node), 1.0, ps_run.conn)
    field = nan_frame_node(ps_run)
    # no tolerance lets a NaN through the gate
    set_structure_tol(monkeypatch, np.inf)
    with pytest.raises(StructureError, match=r"defect nan > inf"):
        pf.sym_immersion(field, 1.0, ps_run.conn)


def test_surface_grid_carries_metadata(ps_run):
    S = ps_run.surfaces[2.0]
    assert S.lam0 == 2.0
    assert all(v.shape == (129, 129, 3) for v in (S.fx, S.fy, S.Nx, S.Ny))
    assert S.f.shape == (129, 129, 3)
    assert np.array_equal(S.x, ps_run.field.x)


# -- one frame evaluation per lambda -----------------------------------------

def mat_inv2(M):
    """Pointwise inverse of 2x2 matrices, batched."""
    det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    return loops.adjugate_coeffs(M) / det[..., None, None]


def reference_fields(field, conn, lam):
    """f, N, fx, fy, Nx, Ny from 3-operand einsum conjugations."""
    N = field.n_trunc
    degs = np.arange(-N, N + 1)
    w = lam ** degs.astype(float)
    U = loops.unpack(field.Uhat, -N)
    Ue = np.einsum("xydab,d->xyab", U, w.astype(complex))
    Ut = np.einsum("xydab,d->xyab", U, (degs * w).astype(complex))
    Ui = mat_inv2(Ue)
    w1_0, w1_1, w2_m1 = connection_blocks(conn)

    def r3(X):                          # coordinates only; no structure gate
        return pf.su2_to_r3(X, tol=np.inf)

    def ad(W):
        return r3(np.einsum("xyab,xybc,xycd->xyad", Ue, W, Ui))

    def bracket_e3(W):
        return (np.einsum("xyab,bc->xyac", W, E3)
                - np.einsum("ab,xybc->xyac", E3, W))

    f = r3(np.einsum("xyab,xybc->xyac", Ut, Ui))
    nrm = r3(np.einsum("xyab,bc,xycd->xyad", Ue, E3, Ui))
    nrm = nrm / np.linalg.norm(nrm, axis=-1, keepdims=True)
    fx = ad(lam * w1_1)
    fy = ad(-w2_m1 / lam)
    Nx = ad(bracket_e3(w1_0 + lam * w1_1))
    Ny = ad(bracket_e3(w2_m1 / lam))
    return dict(f=f, N=nrm, fx=fx, fy=fy, Nx=Nx, Ny=Ny)


def test_one_frame_evaluation_per_lambda(ps_run, monkeypatch):
    # U_plus is evaluated once per lambda and L_minus once per block of
    # whole x rows (7 of the 129 rows in 1024 nodes); the blocks cover the
    # grid once
    field = ps_run.field
    calls = []
    orig = frames.packed_eval

    def counting(p, kmin, lam):
        calls.append((p.shape, lam))
        return orig(p, kmin, lam)

    monkeypatch.setattr(frames, "packed_eval", counting)
    for lam in (0.5, 2.0):
        pf.sym_immersion(field, lam, conn=ps_run.conn)
    m = field.n_trunc + 1
    per_lambda = [(7, 129, m)] * 18 + [(3, 129, m)]
    assert calls == [((129, m), 0.5)] + [(s, 0.5) for s in per_lambda] \
        + [((129, m), 2.0)] + [(s, 2.0) for s in per_lambda]


def test_one_weight_table_per_lambda(ps_run):
    # every block of L_minus is contracted against the same weight table,
    # built once per lambda, as is U_plus's
    loops._eval_weights.cache_clear()
    pf.sym_immersion(ps_run.field, 0.75, conn=ps_run.conn)
    info = loops._eval_weights.cache_info()
    assert (info.misses, info.hits) == (2, 18)


@pytest.mark.parametrize("block", ["under one line", "5 lines + 3", "all"])
def test_sym_block_size_does_not_change_a_bit(monkeypatch, block):
    # every block runs the same elementwise arithmetic on arrays of the
    # same layout, so each field is array_equal whatever the block
    spec = pf.preset_by_name("c0_kink", 0.5)
    x, y = np.linspace(-2, 2, 65), np.linspace(-1, 1, 33)
    field = pf.build_frame_field(
        pf.integrate_half_frame(spec, "x", x, n_trunc=12),
        pf.integrate_half_frame(spec, "y", y, n_trunc=12))
    conn = pf.extract_connection(field)
    lams = (0.5, 1.3)
    ref = [pf.sym_immersion(field, lam, conn=conn)     # blocks of 31 rows
           for lam in lams]
    monkeypatch.setattr(frames, "BLOCK_NODES", {
        "under one line": 5, "5 lines + 3": 5 * len(y) + 3,
        "all": 10 * len(x) * len(y)}[block])
    for lam, S in zip(lams, ref):
        S_b = pf.sym_immersion(field, lam, conn=conn)
        for name in ("f", "N", "fx", "fy", "Nx", "Ny"):
            assert np.array_equal(getattr(S_b, name), getattr(S, name)), name
        assert S_b.unitarity == S.unitarity


def sym_peak_above_held(run):
    """Traced peak bytes of one Sym evaluation above the fields it returns."""
    tracemalloc.start()
    try:
        S = pf.sym_immersion(run.field, 0.7, conn=run.conn)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    fields = sum(getattr(S, name).nbytes
                 for name in ("f", "N", "fx", "fy", "Nx", "Ny"))
    assert fields <= held <= fields + 64 * 2 ** 10
    return peak - held


def test_sym_memory_is_bounded(ps_run, ps_run_257):
    # Sym fills its six fields by row blocks and makes no whole-grid
    # temporary: the peak above them does not grow with the grid
    assert sym_peak_above_held(ps_run_257) <= (sym_peak_above_held(ps_run)
                                              + 2 ** 20)


@pytest.mark.parametrize("run_name", ["ps_run", "kink_run"])
def test_fields_match_einsum_reference(run_name, request):
    run = request.getfixturevalue(run_name)
    for lam, S in run.surfaces.items():
        ref = reference_fields(run.field, run.conn, lam)
        for name, want in ref.items():
            err = np.abs(getattr(S, name) - want).max()
            assert err <= 1e-13, (lam, name, err)
        again = pf.sym_immersion(run.field, lam, conn=run.conn)
        for name in ("fx", "fy", "Nx", "Ny"):
            assert np.array_equal(getattr(again, name), getattr(S, name)), \
                (lam, name)


def test_structure_checks_see_a_perturbed_frame(ps_run):
    with pytest.raises(StructureError, match="not su"):
        pf.sym_immersion(perturbed_frame(ps_run), 1.0, conn=ps_run.conn)
    with pytest.raises(StructureError):
        pf.sym_immersion(nan_frame_node(ps_run), 1.0, conn=ps_run.conn)


# -- the SO(3) rotation of the frame -----------------------------------------

def packed_frame(a, b):
    """One-node frame field, trunc 1, with U_hat(1) = [[a, b], [-conj b, conj a]]
    exactly: U_plus = a + b lambda and L_minus = I, so b sits on degree 1
    alone and no halving can underflow it."""
    return SimpleNamespace(x=np.zeros(1), y=np.zeros(1), n_trunc=1,
                           Uplus=np.array([[a, b]]),           # degrees 0, 1
                           Lminus=np.array([[[0.0, 1.0]]]))    # degrees -1, 0


unit_range = st.floats(-2.0, 2.0)


@settings(max_examples=200)
@given(st.tuples(unit_range, unit_range, unit_range, unit_range)
       .filter(lambda c: 0.1 <= sum(v * v for v in c)),
       st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)))
@example(c=(0.0, 1.0, 0.0, 5e-324), v=(0.0, 1.0, 0.0))
def test_rotation_of_a_non_unit_frame(c, v):
    a, b = complex(c[0], c[1]), complex(c[2], c[3])
    field = packed_frame(a, b)
    (_, row_a, row_b, _, _), = frames.frame_row_blocks(field, 1.0)
    # alpha = phihat = 0 at lambda0 = 1: f_x = R e1, N_y = R e2
    conn = SimpleNamespace(q=np.full(1, 1j), p=np.full((1, 1), 1j))
    with pytest.MonkeyPatch.context() as mp:
        set_structure_tol(mp, np.inf)
        S = pf.sym_immersion(field, 1.0, conn=conn)
    R = np.stack([S.fx[0, 0], S.Ny[0, 0], S.N[0, 0]], axis=-1)
    np.testing.assert_allclose([row_a[0, 0], row_b[0, 0]], [a, b])
    assert np.abs(R.T @ R - np.eye(3)).max() < 1e-14
    assert abs(np.linalg.det(R) - 1.0) < 1e-14
    X = v[0] * E1 + v[1] * E2 + v[2] * E3
    U = np.array([[a, b], [-np.conj(b), np.conj(a)]])
    want = pf.su2_to_r3(U @ X @ np.linalg.inv(U))
    np.testing.assert_allclose(R @ np.array(v), want, atol=1e-14)


@pytest.mark.parametrize("run_name", ["ps_run", "kink_run"])
def test_connection_vectors_in_closed_form(run_name, request):
    conn = request.getfixturevalue(run_name).conn
    alpha = np.broadcast_to(conn.alpha[:, None], conn.phihat.shape)
    zero = np.zeros_like(conn.phihat)
    _, w1_1, w2_m1 = connection_blocks(conn)
    np.testing.assert_allclose(
        pf.su2_to_r3(w1_1),
        np.stack([np.cos(alpha), -np.sin(alpha), zero], -1), atol=1e-15)
    np.testing.assert_allclose(
        pf.su2_to_r3(w2_m1),
        np.stack([-np.cos(conn.phihat), -np.sin(conn.phihat), zero], -1),
        atol=1e-15)


def test_one_su2_gate_per_lambda(ps_run, monkeypatch):
    # the gate reads 2 max |Re s| off the packed rows; su2_to_r3 reports the
    # same defect for f = U_t U^-1 assembled as a 2x2 matrix
    field = perturbed_frame(ps_run)
    N = field.n_trunc
    U = loops.unpack(field.Uhat, -N)
    degs = np.arange(-N, N + 1)
    for lam in (0.5, 2.0):
        w = lam ** degs.astype(float)
        Ue = np.einsum("xydab,d->xyab", U, w.astype(complex))
        Ut = np.einsum("xydab,d->xyab", U, (degs * w).astype(complex))
        X = np.einsum("xyab,xybc->xyac", Ut, mat_inv2(Ue))
        with pytest.raises(StructureError) as want:
            pf.su2_to_r3(X, tol=0.0)
        set_structure_tol(monkeypatch, 0.0)
        with pytest.raises(StructureError) as got:
            pf.sym_immersion(field, lam, conn=ps_run.conn)
        assert str(got.value) == str(want.value)
        defect = float(str(want.value).split()[3])
        assert defect > 1e-4
        set_structure_tol(monkeypatch, 1.01 * defect)
        pf.sym_immersion(field, lam, ps_run.conn)


def test_surface_carries_frame_unitarity(ps_run, kink_run):
    for run in (ps_run, kink_run):
        N = run.field.n_trunc
        U = loops.unpack(run.field.Uhat, -N)
        for lam, S in run.surfaces.items():
            assert S.unitarity == max(
                loops.packed_unitarity(np.stack([a, b], -1))
                for _, a, b, _, _ in frames.frame_row_blocks(run.field, lam))
            Ue = loops.eval_coeffs(U, -N, lam)
            assert abs(S.unitarity - loops.unitarity_residual(Ue)) <= 1e-15
    assert ps_run.surfaces[1.0].unitarity < 1e-12
