"""A potential that is merely continuous still produces a smooth-enough front.

The kink potential has a corner at the origin: the slopes of alpha and beta
jump. The loop construction never differentiates the potentials, so the
pipeline runs unchanged, and the resulting angle field solves the sine-Gordon
equation in the integrated sense. A direct characteristic integration of that
equation, which knows nothing about loops, lands on the same angle field.
"""

import numpy as np

import psfront as pf

amp = 0.75
spec = pf.preset_by_name("c0_kink", amp)
x = np.linspace(-2.0, 2.0, 65)

up = pf.integrate_half_frame(spec, "x", x, n_trunc=16)
um = pf.integrate_half_frame(spec, "y", x, n_trunc=16)
field = pf.build_frame_field(up, um)
conn = pf.extract_connection(field)
omega = conn.omega

# the corner is visible in the recovered boundary data
a_hat, b_hat = pf.recover_boundary_angles(omega, x, x)
i0 = len(x) // 2
left = (a_hat[i0] - a_hat[i0 - 4]) / (x[i0] - x[i0 - 4])
right = (a_hat[i0 + 4] - a_hat[i0]) / (x[i0 + 4] - x[i0])
print(f"kink amplitude {amp}: boundary slope {left:+.3f} -> {right:+.3f}"
      f" across the origin")

fine = np.linspace(-2.0, 2.0, 1025)
sol = pf.goursat_solve(spec.alpha, spec.beta, fine, fine)
gap = np.abs(sol.phi[::16, ::16] - omega).max()
print(f"direct integration: at most {sol.iterations} fixed-point updates"
      f" per cell, last update {sol.final_delta:.1e}")
print(f"angle field gap between the two routes: {gap:.3e}")

S = pf.sym_immersion(field, 1.0, conn=conn)
g = pf.fundamental_forms(S)
print(f"Gauss curvature off the cusp lines: "
      f"-1 {np.nanmax(np.abs(g.K + 1.0)):+.1e}"
      f" on {g.regular_count} of {omega.size} nodes")
