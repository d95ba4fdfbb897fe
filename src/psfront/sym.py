"""Immersion and normal fields from the frame via the lambda-derivative formula.

Sym's formula gives the immersion f = U_hat_t U_hat^{-1}, the t-derivative
taken along lambda = e^t at a fixed lambda0. Every other field is the adjoint
action of U_hat(lambda0), which on su(2) = R^3 is one rotation R per node.
With a = U_hat_00, b = U_hat_01 and d = |a|^2 + |b|^2 the real form gives
U_hat^{-1} = U_hat^H / d, so R is a rotation whatever d is:

    R e1 = (Re(a^2 - b^2), Im(a^2 - b^2), 2 Re(a conj(b))) / d
    R e2 = (-Im(a^2 + b^2), Re(a^2 + b^2), -2 Im(a conj(b))) / d
    R e3 = (-2 Re(a b), -2 Im(a b), |a|^2 - |b|^2) / d

The normal is N = R e3. The lambda^1 coefficient of omega1 and the lambda^-1
one of omega2 (frames.ConnectionField) are (cos alpha, -sin alpha, 0) and
-(cos phihat, sin phihat, 0); a bracket with e3 is a cross product with e3,
so the diagonal r term drops out, and the exact tangents and normal
derivatives are

    f_x = lambda0 (cos alpha R e1 - sin alpha R e2)
    f_y = (cos phihat R e1 + sin phihat R e2) / lambda0
    N_x = -lambda0 (sin alpha R e1 + cos alpha R e2)
    N_y = (cos phihat R e2 - sin phihat R e1) / lambda0

All four come from R e1 + i R e2 = u / d, u = (conj(a)^2 - b^2,
i (conj(a)^2 + b^2), 2 conj(a) b), and the connection's unit scalars
q = i e^{-i alpha} and p = i e^{i phihat}:

    f_x = -lambda0 Im(conj(q) u) / d      N_x = -lambda0 Re(conj(q) u) / d
    f_y = -Im(conj(p) u) / (lambda0 d)    N_y = Re(conj(p) u) / (lambda0 d)

Only f = U_hat_t U_hat^H / d = [[s, t], [-conj(t), conj(s)]] can leave su(2),
through Re s = (log d)_t / 2: its one gate is 2 max |Re s|, the defect
su2_to_r3 reports for that matrix, and f = 2 (Im t, -Re t, Im s).

sym_immersion fills f, N and the four derivative fields one block of whole x
rows at a time, as frames.frame_row_blocks evaluates the block's (a, b), so
its temporaries stay the size of a block whatever the grid. The su(2)
defect, the unitarity residual and the normal-norm gate are reduced over the
blocks with sup_abs, which keeps a NaN.

The su(2) to R^3 identification uses the orthonormal basis

    e1 = (1/2)[[0, i], [i, 0]]   e2 = (1/2)[[0, -1], [1, 0]]   e3 = (1/2)[[i, 0], [0, -i]]

under the inner product <A, B> = -2 tr(A B), so that [e1, e2] maps to the
cross product e1 x e2 = (0, 0, 1).
"""

import math

import numpy as np

from .analysis import d_x, d_y, spacing
from .frames import _row_blocks, frame_row_blocks, tail_tolerance
# eval_coeffs stays a sym attribute: psbench/traced.py wraps it by name
from .loops import eval_coeffs, sup_abs

E1 = 0.5 * np.array([[0, 1j], [1j, 0]])
E2 = 0.5 * np.array([[0, -1], [1, 0]])
E3 = 0.5 * np.array([[1j, 0], [0, -1j]])

NORMAL_TOL = 1e-8       # unit-normal norm defect


class StructureError(ValueError):
    """Matrix is not in su(2) to the requested tolerance."""


def su2_to_r3(X, tol=1e-8):
    """Coordinates of an su(2) matrix (batched) in the e1, e2, e3 basis."""
    X = np.asarray(X)
    defect = max(sup_abs(X + np.conj(np.swapaxes(X, -1, -2))),
                 sup_abs(X[..., 0, 0] + X[..., 1, 1]))
    if not defect <= tol:
        raise StructureError(f"not su(2): defect {defect:.3e} > {tol:g}")
    u1 = np.imag(X[..., 0, 1] + X[..., 1, 0])
    u2 = np.real(X[..., 1, 0] - X[..., 0, 1])
    u3 = np.imag(X[..., 0, 0] - X[..., 1, 1])
    return np.stack([u1, u2, u3], axis=-1)


class SurfaceGrid:
    """Immersion and unit normal sampled on the parameter grid.

    f and N have shape (nx, ny, 3), as have fx, fy, Nx and Ny, the tangent
    and normal-derivative fields: exact from sym_immersion, which also sets
    unitarity (the loops.packed_unitarity of the frame they came from), and
    filled in by order-2 differences (analysis.d_x, d_y) where a surface built
    from arrays leaves them out. A normal whose norm misses 1 by more than
    NORMAL_TOL, or is NaN, raises StructureError before any field is filled;
    the norm is read one block of rows at a time.
    """

    def __init__(self, x, y, lam0, f, N, fx=None, fy=None, Nx=None, Ny=None):
        self.x = x
        self.y = y
        self.lam0 = float(lam0)
        self.f = f
        self.N = N
        self.unitarity = None
        # by row blocks, as Sym fills N: no whole-grid temporary
        norm_defect = sup_abs([
            sup_abs(np.sqrt(np.einsum("ijk,ijk->ij", N[r], N[r])) - 1.0)
            for r in _row_blocks(*N.shape[:2])])
        if not norm_defect <= NORMAL_TOL:
            raise StructureError(
                f"normal field norm defect {norm_defect:.3e} > {NORMAL_TOL:g}")
        if any(v is None for v in (fx, fy, Nx, Ny)):
            hx, hy = spacing(self)
            fx = d_x(f, hx) if fx is None else fx
            fy = d_y(f, hy) if fy is None else fy
            Nx = d_x(N, hx) if Nx is None else Nx
            Ny = d_y(N, hy) if Ny is None else Ny
        self.fx, self.fy, self.Nx, self.Ny = fx, fy, Nx, Ny
        self.i0x = int(np.argmin(np.abs(x)))
        self.i0y = int(np.argmin(np.abs(y)))

    @property
    def shape(self):
        return self.f.shape[:2]

    def __repr__(self):
        return (f"SurfaceGrid({self.f.shape[0]}x{self.f.shape[1]}, "
                f"lam0={self.lam0:g})")


def _structure_tol(field, lam0):
    """Tolerance of the su(2) gate: the field's truncation-tail bound at lam0.

    A lam0 at which k lam0^k overflows for k = +-2 n_trunc raises ValueError.
    """
    if not lam0 > 0:
        raise ValueError("evaluation point must be positive")
    # |a|^2 and a_t conj(a) reach degree +-2 n_trunc
    for k in (2 * field.n_trunc, -2 * field.n_trunc):
        try:
            finite = math.isfinite(k * float(lam0) ** k)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"lambda={lam0:g} overflows the frame's degree "
                             f"window: lambda^{k} is out of float range")
    reach = max(np.abs(field.x).max(), np.abs(field.y).max())
    return tail_tolerance(1e-8, field.n_trunc, reach, max(lam0, 1.0 / lam0))


def sym_immersion(field, lam0, conn):
    """Surface and unit normal at evaluation point lam0 > 0.

    The t-derivative of f = U_hat_t U_hat^{-1} scales degree k by k lam0^k,
    and its products with U_hat reach degree +-2 n_trunc; a lam0 for which
    k lam0^k overflows there raises ValueError.
    The returned SurfaceGrid carries the unitarity residual of U_hat(lam0)
    and the exact tangent and normal-derivative fields, read with the
    connection conn of the field. Each block of frames.frame_row_blocks fills
    its rows of every field.
    """
    structure_tol = _structure_tol(field, lam0)
    shape = field.Lminus.shape[:2] + (3,)
    f, N, fx, fy, Nx, Ny = (np.empty(shape) for _ in range(6))
    defects, unitarity = [], []
    for rows, a, b, at, bt in frame_row_blocks(field, lam0):
        ca, cb = a.conj(), b.conj()
        aa, bb = (a * ca).real, (b * cb).real
        d = aa + bb
        unitarity.append(sup_abs(d - 1.0))  # loops.packed_unitarity of (a, b)
        inv_d = 1.0 / d
        s = (at * ca + bt * cb) * inv_d
        t = (bt * a - at * b) * inv_d
        defects.append(2.0 * sup_abs(s.real))
        # columns go straight into the outputs: stacking them per block
        # measured about 12 % slower at 129
        for k, (v, c) in enumerate(((t.imag, 2.0), (t.real, -2.0),
                                    (s.imag, 2.0))):
            np.multiply(v, c, out=f[rows, :, k])
        ab = a * b
        for k, v in enumerate((ab.real, ab.imag)):
            np.multiply(v, -2.0, out=N[rows, :, k])
        np.subtract(aa, bb, out=N[rows, :, 2])
        N[rows] *= inv_d[..., None]
        a2, b2 = ca * ca, b * b
        u = np.stack([a2 - b2, 1j * (a2 + b2), 2.0 * (ca * b)], -1)
        X = (conn.q[rows, None].conj() * inv_d)[..., None] * u
        np.multiply(X.imag, -lam0, out=fx[rows])
        np.multiply(X.real, -lam0, out=Nx[rows])
        Y = (conn.p[rows].conj() * inv_d)[..., None] * u
        np.divide(Y.imag, -lam0, out=fy[rows])
        np.divide(Y.real, lam0, out=Ny[rows])
    defect = sup_abs(defects)     # sup_abs keeps a NaN that max() would drop
    if not defect <= structure_tol:
        raise StructureError(
            f"not su(2): defect {defect:.3e} > {structure_tol:g}")
    S = SurfaceGrid(field.x, field.y, lam0, f, N, fx, fy, Nx, Ny)
    S.unitarity = sup_abs(unitarity)
    return S
