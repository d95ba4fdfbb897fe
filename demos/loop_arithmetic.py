"""The packed loop toolbox: products, evaluation, inversion, factorization.

Every loop the pipeline makes is a packed SU(2) real-form loop, one complex
scalar per degree (psfront.loops). This script pokes the packed primitives on
small hand-made loops and checks each against the 2x2 reference kernels.
"""

import numpy as np

import psfront as pf
from psfront import loops

rng = np.random.default_rng(1)


def packed(k_min, k_max, scale):
    """A random packed loop on k_min..k_max, degree k scaled by scale^|k|."""
    degs = np.arange(k_min, k_max + 1)
    return ((rng.normal(size=len(degs)) + 1j * rng.normal(size=len(degs)))
            * scale ** np.abs(degs))


# a packed loop on degrees -1..1: entry (0, 0) on even degrees, (0, 1) on odd
g = packed(-1, 1, 0.3)
g[1] = 1.0
print("g on degrees -1..1, packed:", np.round(g, 4))
print("degree -1 as a 2x2 coefficient:\n", np.round(loops.unpack(g, -1)[0], 4))

sq = loops.packed_mul(g, g, -1, -1, -2, 5)
ref = loops.mul_coeffs(loops.unpack(g, -1), loops.unpack(g, -1), -1, -1, -2, 5)
print(f"packed_mul g g against mul_coeffs: "
      f"{loops.sup_abs(loops.unpack(sq, -2) - ref):.2e}")

row, row_t = loops.packed_eval(g, -1, 0.7)
ref = loops.eval_coeffs(loops.unpack(g, -1), -1, 0.7)
print(f"g(0.7) first row {np.round(row, 6)}; against eval_coeffs: "
      f"{loops.sup_abs(row - ref[0]):.2e}")

# the y-axis half frame has determinant 1, so its adjugate is its inverse
N = 16
um = pf.integrate_half_frame(pf.preset_by_name("pseudosphere"), "y",
                             np.linspace(-2, 2, 33), n_trunc=N)
V = um.coeffs
VinvV = loops.packed_mul(loops.packed_adjugate(V, -N), V, -N, -N, -N, N + 1)
VinvV[:, N] -= 1.0
print(f"half frame: adjugate(V) V = 1 on degrees -{N}..0 to "
      f"{loops.sup_abs(VinvV):.2e}")

# Birkhoff: G = L_plus L_minus^{-1} splits back into its one-sided factors.
# L_minus^{-1} has an infinite tail decaying like 0.1^k, taken on -32..0.
Lp_true, Lm_true = packed(0, 4, 0.1), packed(-4, 0, 0.1)
Lp_true[0] += 2.0
Lm_true[-1] = 1.0
Lm_inv = loops.pack(loops.inverse_coeffs(loops.unpack(Lm_true, -4), -4, -32,
                                         33), -32)
G = loops.packed_mul(Lp_true, Lm_inv, 0, -32, -16, 33)
Lp, Lm, residual = pf.birkhoff_split(G[None])
rec = max(loops.sup_abs(Lp[0, :5] - Lp_true), loops.sup_abs(Lm[0, -5:] - Lm_true))
print(f"split recovers the constructed factors to {rec:.2e} "
      f"(residual {residual[0]:.2e}: G was cut below degree -16)")

print(f"unitarity defect of g at lambda = 1: "
      f"{loops.packed_unitarity(loops.packed_eval(g, -1, 1.0)[0]):.3f} "
      f"(g is not unitary); of the half frame: "
      f"{loops.packed_unitarity(loops.packed_eval(V, -N, 1.0)[0]):.2e}")
