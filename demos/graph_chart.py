"""Check curvature with no reference to the construction that made the surface.

A sceptic does not have to trust the fundamental forms the pipeline reports.
graph_patch rewrites a piece of the surface as a height field over its own
tangent plane, then differentiates that height field numerically. Whatever
produced the points, the Gauss curvature of the graph must be -1 if the
surface is what it claims to be. chebyshev_normalize is shown first: it
rescales the axes to unit speed, which is the parametrization the patch
sampler likes best.
"""

import numpy as np

import psfront as pf

x = np.linspace(-2.0, 2.0, 129)
spec = pf.preset_by_name("pseudosphere")
up = pf.integrate_half_frame(spec, "x", x, n_trunc=16)
um = pf.integrate_half_frame(spec, "y", x, n_trunc=16)
field = pf.build_frame_field(up, um)
conn = pf.extract_connection(field)

# the lam = 2 member has speeds 2 and 1/2; normalization undoes both
S2 = pf.sym_immersion(field, 2.0, conn=conn)
res = pf.chebyshev_normalize(S2)
E = np.einsum("...k,...k->...", res.surface.fx, res.surface.fx)
G = np.einsum("...k,...k->...", res.surface.fy, res.surface.fy)
print(f"lam = 2 member: x axis maps [-2, 2] -> "
      f"[{res.map_x.forward(-2.0):+.1f}, {res.map_x.forward(2.0):+.1f}], "
      f"y axis -> [{res.map_y.forward(-2.0):+.2f}, {res.map_y.forward(2.0):+.2f}]")
print(f"normalized speeds: |E - 1| {np.abs(E - 1).max():.1e}, "
      f"|G - 1| {np.abs(G - 1).max():.1e}")

S = pf.sym_immersion(field, 1.0, conn=conn)
for center in ((-1.0, -1.0), (0.8, 0.4)):
    p = pf.graph_patch(S, center, 0.5)
    kerr = np.abs(p.K[1:-1, 1:-1] + 1.0).max()
    print(f"patch at {center}: chart half-side {p.s_half:.3f}, "
          f"{p.iters} Newton sweeps, |K + 1| = {kerr:.2e}, "
          f"normal angle {p.normal_angle.max():.2e}")

try:
    pf.graph_patch(S, (0.0, 0.0), 0.3)
except pf.PatchError as exc:
    print(f"patch at the cusp line is refused: {exc}")
