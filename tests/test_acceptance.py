"""Acceptance gate: every advertised accuracy bound, one summary line each.

Run with -s to see the per-criterion lines; each test prints
"criterion NN [PASS|FAIL] description: value (tol ...)" and then asserts.
"""

import numpy as np

import psfront as pf
from psfront import loops


def report(num, desc, value, tol, extra="", ok=None):
    ok = bool(value < tol) if ok is None else bool(ok)
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{status}] {desc}: {value:.3e} "
          f"(tol {tol:g}){extra}")
    assert ok, f"criterion {num:02d} {desc}: {value:.3e}, tolerance {tol:g}"


def test_01_surface_matches_closed_form(ps_run, closed_129):
    S = ps_run.surfaces[1.0]
    R, t, res = pf.procrustes_align(S.f, closed_129.f)
    err = float(np.linalg.norm(res, axis=-1).max())
    sec = ps_run.build_seconds
    report(1, "rigid-aligned surface vs closed form", err, 1e-3,
           extra=f" [pipeline build {sec:.1f} s < 60 s]",
           ok=err < 1e-3 and sec < 60.0)


def test_02_first_form_residuals(ps_run, kink_run, vacuum_run):
    worst_tang = 0.0
    worst_F = 0.0
    for run in (ps_run, kink_run, vacuum_run):
        cos_om = np.cos(run.omega)
        for lam, S in run.surfaces.items():
            g = pf.fundamental_forms(S)
            worst_tang = max(worst_tang,
                             float(np.abs(g.E - lam ** 2).max()),
                             float(np.abs(g.G - lam ** -2).max()))
            worst_F = max(worst_F, float(np.abs(g.F - cos_om).max()))
    report(2, "first form E, G residual over all presets and lambda",
           worst_tang, 1e-8, extra=f" [F residual {worst_F:.3e} < 1e-06]",
           ok=worst_tang < 1e-8 and worst_F < 1e-6)


def test_03_second_form_and_curvature(ps_run, kink_run):
    worst2 = 0.0
    worstK = 0.0
    for run in (ps_run, kink_run):
        g = pf.fundamental_forms(run.surfaces[1.0])
        sin_om = np.sin(run.omega)
        worst2 = max(worst2,
                     float(np.abs(g.ell).max()),
                     float(np.abs(g.n).max()),
                     float(np.abs(g.m - sin_om).max()))
        mask = np.abs(sin_om) > 0.1
        assert np.isfinite(g.K[mask]).all()
        worstK = max(worstK, float(np.abs(g.K[mask] + 1.0).max()))
    report(3, "second form residual at lambda = 1", worst2, 1e-5,
           extra=f" [K + 1 off cusp lines {worstK:.3e} < 1e-03]",
           ok=worst2 < 1e-5 and worstK < 1e-3)


def test_04_zero_curvature_compatibility(ps_run, ps_run_257):
    z1 = float(pf.zcc_residual(ps_run.conn).max())
    z2 = float(pf.zcc_residual(ps_run_257.conn).max())
    ratio = z1 / z2
    report(4, "connection compatibility residual", z1, 1e-3,
           extra=f" [halving ratio {ratio:.2f} in (3.5, 4.5)]",
           ok=z1 < 1e-3 and 3.5 < ratio < 4.5)


def test_05_independent_sine_gordon_route(ps_run, kink_run):
    worst = 0.0
    x = np.linspace(-2.0, 2.0, 1025)
    for run in (ps_run, kink_run):
        sol = pf.goursat_solve(run.spec.alpha, run.spec.beta, x, x)
        worst = max(worst, float(np.abs(sol.phi[::8, ::8] - run.omega).max()))
    report(5, "pipeline angle vs direct characteristic integration",
           worst, 1e-4)


def test_06_normal_field_harmonicity(ps_run_257):
    harm, _ = pf.harmonicity_residual(ps_run_257.surfaces[1.0],
                                      ps_run_257.omega)
    report(6, "normal mixed-derivative law at h = 1/64",
           float(np.nanmax(harm)), 1e-3)


def test_07_asymptotic_line_torsion(ps_run):
    S = ps_run.surfaces[1.0]
    strong = np.abs(np.sin(ps_run.omega)) > 0.3
    worst = 0.0
    for direction in ("x", "y"):
        tau = pf.asymptotic_torsion(S, direction)
        vals = tau[strong & np.isfinite(tau)]
        assert vals.size
        worst = max(worst, float(np.abs(np.abs(vals) - 1.0).max()))
    report(7, "parameter-curve torsion vs unit value", worst, 1e-2)


def test_08_front_recovered_from_normal(closed_129):
    c = closed_129
    h = float(c.x[1] - c.x[0])
    f_rec, closure = pf.front_from_normal(c.N, h, h, Nx=c.Nx, Ny=c.Ny)
    diff = f_rec - c.f
    diff = diff - diff.reshape(-1, 3).mean(axis=0)
    err = float(np.linalg.norm(diff, axis=-1).max())
    cl = float(closure.max())
    report(8, "front rebuilt from its normal field, up to translation",
           err, 1e-3, extra=f" [cell closure {cl:.3e} < 1e-06]",
           ok=err < 1e-3 and cl < 1e-6)


def test_09_boundary_data_recovery(ps_run, kink_run):
    worst = 0.0
    for run in (ps_run, kink_run):
        a_hat, b_hat = pf.recover_boundary_angles(run.omega, run.x, run.y)
        worst = max(worst,
                    float(np.abs(a_hat - run.spec.alpha(run.x)).max()),
                    float(np.abs(b_hat - run.spec.beta(run.y)).max()))
    report(9, "characteristic data read back off the angle field",
           worst, 1e-3)


def test_10_graph_patch_curvature(ps_run):
    p = pf.graph_patch(ps_run.surfaces[1.0], (-1.0, -1.0), 0.5)
    kerr = float(np.abs(p.K[1:-1, 1:-1] + 1.0).max())
    ang = float(p.normal_angle.max())
    report(10, "height-field Gauss curvature vs -1", kerr, 1e-2,
           extra=f" [normal angle {ang:.3e} < 1e-03]",
           ok=kerr < 1e-2 and ang < 1e-3)


def _random_factor(rng, k_min, k_max, scale):
    """A packed real-form loop on k_min..k_max, degree k scaled by scale^|k|."""
    degs = np.arange(k_min, k_max + 1)
    return ((rng.normal(size=len(degs)) + 1j * rng.normal(size=len(degs)))
            * scale ** np.abs(degs))


def test_11_factorization_quality(ps_run, ps_run_n8):
    # real-form factors, L_plus with degree 0 offset by 2 and L_minus
    # normalized, multiplied into G = L_plus L_minus^{-1} on -16..16
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(5):
        Lp_true = _random_factor(rng, 0, 4, 0.1)
        Lp_true[0] += 2.0
        Lm_true = _random_factor(rng, -4, 0, 0.1)
        Lm_true[-1] = 1.0
        Lm_inv = loops.pack(loops.inverse_coeffs(
            loops.unpack(Lm_true, -4), -4, -32, 33), -32)
        G = loops.packed_mul(Lp_true, Lm_inv, 0, -32, -16, 33)
        Lp, Lm, _ = pf.birkhoff_split(G[None])
        worst = max(worst, float(np.abs(Lp[0, :5] - Lp_true).max()),
                    float(np.abs(Lm[0, -5:] - Lm_true).max()))
    ratio = (float(ps_run_n8.field.split_residual.max())
             / float(ps_run.field.split_residual.max()))
    report(11, "constructed factors recovered by the split", worst, 1e-10,
           extra=f" [residual drop x{ratio:.1e} >= 10 from trunc 8 to 16]",
           ok=worst < 1e-10 and ratio >= 10.0)


def test_12_frame_unitarity(ps_run, kink_run):
    worst = 0.0
    for run in (ps_run, kink_run):
        worst = max(worst, max(run.field.unitarity.values()))
    report(12, "frame unitarity at lambda in {1/2, 1, 2}", worst, 1e-8)
