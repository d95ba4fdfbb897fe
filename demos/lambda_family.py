"""One frame build, a whole family of surfaces.

Evaluating the frame at different positive lambda trades length between the
two families of parameter curves while the angle between them stays put:
E = lambda^2, G = 1 / lambda^2, F = cos(omega) at every member. The frame is
built once; each surface costs only a loop evaluation.
"""

import numpy as np

import psfront as pf

x = np.linspace(-2.0, 2.0, 65)
spec = pf.preset_by_name("pseudosphere")
up = pf.integrate_half_frame(spec, "x", x, n_trunc=16)
um = pf.integrate_half_frame(spec, "y", x, n_trunc=16)
field = pf.build_frame_field(up, um)
conn = pf.extract_connection(field)
omega = conn.omega

print("lambda    |E - l^2|    |G - 1/l^2|  |F - cos(omega)|   area bbox")
for lam in (0.25, 0.5, 1.0, 2.0, 4.0):
    S = pf.sym_immersion(field, lam, conn=conn)
    g = pf.fundamental_forms(S)
    span = S.f.reshape(-1, 3).max(axis=0) - S.f.reshape(-1, 3).min(axis=0)
    print(f"{lam:<8g}  {np.abs(g.E - lam ** 2).max():.3e}"
          f"    {np.abs(g.G - lam ** -2).max():.3e}"
          f"    {np.abs(g.F - np.cos(omega)).max():.3e}"
          f"       {span[0]:.2f} x {span[1]:.2f} x {span[2]:.2f}")

print()
print("the x curves stretch by lambda, the y curves shrink by the same")
print("factor, and every member keeps Gauss curvature -1 off its cusps")
