"""Check curvature with no reference to the construction that made the surface.

A sceptic does not have to trust the fundamental forms the pipeline reports.
graph_patch rewrites a piece of the surface as a height field over its own
tangent plane, then differentiates that height field numerically. Whatever
produced the points, the Gauss curvature of the graph must be -1 if the
surface is what it claims to be.
"""

import numpy as np

import psfront as pf

x = np.linspace(-2.0, 2.0, 129)
spec = pf.preset_by_name("pseudosphere")
up = pf.integrate_half_frame(spec, "x", x, n_trunc=16)
um = pf.integrate_half_frame(spec, "y", x, n_trunc=16)
field = pf.build_frame_field(up, um)
conn = pf.extract_connection(field)

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
