"""Build the pseudo-sphere from its potential and compare with the closed form.

The pipeline needs nothing but the two boundary potentials: integrate the two
half frames, factor their mismatch at every node, read the frame off the
factors and apply the reconstruction formula. The result should be a rigid
motion of the classical tractrix surface, so after the best rotation and shift
the two should agree to well below mesh resolution.
"""

import time

import numpy as np

import psfront as pf

n = 65
x = np.linspace(-2.0, 2.0, n)
spec = pf.preset_by_name("pseudosphere")

t0 = time.perf_counter()
up = pf.integrate_half_frame(spec, "x", x, n_trunc=16)
um = pf.integrate_half_frame(spec, "y", x, n_trunc=16)
field = pf.build_frame_field(up, um)
conn = pf.extract_connection(field)
S = pf.sym_immersion(field, 1.0, conn=conn)
elapsed = time.perf_counter() - t0

print(f"built {n} x {n} frame field in {elapsed:.2f} s")
print(f"  worst split residual   {field.split_residual.max():.3e}")
print(f"  factor consistency     {field.consistency.max():.3e}")
for lam, res in sorted(field.unitarity.items()):
    print(f"  unitarity at {lam:<4g}      {res:.3e}")

f_ref, N_ref, omega_ref = pf.pseudosphere_closed_form(x, x)
R, t, res = pf.procrustes_align(S.f, f_ref)
print(f"rigid alignment against the closed form:")
print(f"  rotation determinant   {np.linalg.det(R):+.6f}")
print(f"  worst point deviation  {np.linalg.norm(res, axis=-1).max():.3e}")

omega = conn.omega
print(f"  angle field deviation  {np.abs(omega - omega_ref).max():.3e}")
