"""Rebuild a front from nothing but its unit normal field.

For these surfaces the tangents are cross products of the normal with its
derivatives, so the position can be recovered by integrating a one-form built
from N alone. The per-cell circulation of that one-form measures whether the
given normal field is consistent with any front at all.
"""

import numpy as np

import psfront as pf
from psfront.analysis import d_x, d_y

x = np.linspace(-2.0, 2.0, 129)
f_ref, N, omega = pf.pseudosphere_closed_form(x, x)
fx_ref, fy_ref = pf.pseudosphere_tangents(x, x)
h = float(x[1] - x[0])

f_rec, closure = pf.front_from_normal(N, h, h, d_x(N, h), d_y(N, h))
diff = f_rec - f_ref
diff -= diff.reshape(-1, 3).mean(axis=0)
print(f"from finite-difference normal derivatives:")
print(f"  worst cell circulation  {closure.max():.3e}")
print(f"  deviation (translation removed)  "
      f"{np.linalg.norm(diff, axis=-1).max():.3e}")

# with exact derivatives only the quadrature error of the path integral is left
u = x[:, None] + x[None, :]
se, th = 1.0 / np.cosh(u), np.tanh(u)
v = x[:, None] - x[None, :]
dNu = np.stack([np.cos(v) * se ** 2, np.sin(v) * se ** 2, -se * th], axis=-1)
dNv = np.stack([-np.sin(v) * th, np.cos(v) * th, np.zeros_like(u)], axis=-1)
f_rec2, closure2 = pf.front_from_normal(N, h, h, Nx=dNu + dNv, Ny=dNu - dNv)
diff2 = f_rec2 - f_ref
diff2 -= diff2.reshape(-1, 3).mean(axis=0)
print(f"from exact normal derivatives:")
print(f"  worst cell circulation  {closure2.max():.3e}")
print(f"  deviation (translation removed)  "
      f"{np.linalg.norm(diff2, axis=-1).max():.3e}")

bad = np.stack([0.4 * np.sin(2 * x)[None, :] * np.ones_like(u),
                0.4 * np.cos(2 * x)[:, None] * np.ones_like(u),
                np.ones_like(u)], axis=-1)
bad /= np.linalg.norm(bad, axis=-1, keepdims=True)
import warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    _, closure3 = pf.front_from_normal(bad, h, h, d_x(bad, h), d_y(bad, h))
print(f"a made-up normal field is flagged: circulation "
      f"{closure3.max():.3e}, warned: {len(caught) > 0}")
