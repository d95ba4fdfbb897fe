"""Immersion and normal fields from the frame via the lambda-derivative formula.

The moving frame lives in a loop of SU(2); differentiating in the loop
parameter at a fixed evaluation point lambda0 and conjugating produces the
surface immersion, while conjugating the diagonal Lie-algebra generator
produces its unit normal. Tangent vectors come from conjugating the connection
coefficients, which keeps the first fundamental form exact instead of
finite-difference accurate.

U_hat(lambda0) and its t-derivative come from one packed_eval of the frame
field, and all six fields are conjugated by U_hat(lambda0) and its inverse,
one field at a time, with 2x2 products written out entry by entry.

The su(2) to R^3 identification uses the orthonormal basis

    e1 = (1/2)[[0, i], [i, 0]]   e2 = (1/2)[[0, -1], [1, 0]]   e3 = (1/2)[[i, 0], [0, -i]]

under the inner product <A, B> = -2 tr(A B), so that [e1, e2] maps to the
cross product e1 x e2 = (0, 0, 1).
"""

import numpy as np

from .frames import tail_tolerance
# eval_coeffs stays a sym attribute: psbench/traced.py wraps it by name
from .loops import eval_coeffs, mat_inv2, packed_eval, sup_abs

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

    f and N have shape (nx, ny, 3). Analytic tangent and normal-derivative
    fields are attached when the connection is available; consumers fall back
    to finite differences when they are absent. A normal whose norm misses 1
    by more than NORMAL_TOL, or is NaN, raises StructureError.
    """

    def __init__(self, x, y, lam0, f, N, fx=None, fy=None, Nx=None, Ny=None,
                 conn=None):
        self.x = x
        self.y = y
        self.lam0 = float(lam0)
        self.f = f
        self.N = N
        self.fx = fx
        self.fy = fy
        self.Nx = Nx
        self.Ny = Ny
        self.conn = conn
        norm_defect = sup_abs(np.linalg.norm(N, axis=-1) - 1.0)
        if not norm_defect <= NORMAL_TOL:
            raise StructureError(
                f"normal field norm defect {norm_defect:.3e} > {NORMAL_TOL:g}")
        self.i0x = int(np.argmin(np.abs(x)))
        self.i0y = int(np.argmin(np.abs(y)))

    @property
    def shape(self):
        return self.f.shape[:2]

    def __repr__(self):
        return (f"SurfaceGrid({self.f.shape[0]}x{self.f.shape[1]}, "
                f"lam0={self.lam0:g})")


def _structure_tol(field, lam0):
    reach = max(np.abs(field.x).max(), np.abs(field.y).max())
    amp = max(lam0, 1.0 / lam0)
    return tail_tolerance(1e-8, field.n_trunc, reach, amp)


def _mul2(A, B):
    """Batched 2x2 matrix product written entry by entry; shapes broadcast."""
    out = np.empty(np.broadcast_shapes(A.shape, B.shape), complex)
    for r in range(2):
        for c in range(2):
            out[..., r, c] = (A[..., r, 0] * B[..., 0, c]
                              + A[..., r, 1] * B[..., 1, c])
    return out


def _frame_at(field, lam0, structure_tol):
    """(U_hat(lam0), its inverse, the structure tolerance), and U_hat_t."""
    if structure_tol is None:
        structure_tol = _structure_tol(field, lam0)
    Ue, Ut = packed_eval(field.Uhat, -field.n_trunc, lam0)
    return (Ue, mat_inv2(Ue), structure_tol), Ut


def _ad(Ue, Ui, tol, W):
    """R^3 coordinates of U_hat W U_hat^{-1}, structure-checked."""
    return su2_to_r3(_mul2(_mul2(Ue, W), Ui), tol=tol)


def sym_immersion(field, lam0, conn=None, structure_tol=None):
    """Surface and unit normal at evaluation point lam0 > 0.

    The immersion is f = U_hat_t U_hat^{-1} with the t-derivative taken along
    lambda = e^t, i.e. degree k scaled by k lam0^k; the normal conjugates e3.
    With a connection given, exact tangent and normal-derivative fields are
    attached to the returned SurfaceGrid. U_hat(lam0) and its inverse are
    evaluated once and shared by every conjugated field.
    """
    if not lam0 > 0:
        raise ValueError("evaluation point must be positive")
    frame, Ut = _frame_at(field, lam0, structure_tol)
    _, Ui, tol = frame
    f = su2_to_r3(_mul2(Ut, Ui), tol=tol)
    Nrm = _ad(*frame, E3)
    nrm = np.linalg.norm(Nrm, axis=-1, keepdims=True)
    if not sup_abs(nrm - 1.0) <= max(NORMAL_TOL, tol):
        raise StructureError(f"normal norm defect {sup_abs(nrm - 1.0):.3e}")
    S = SurfaceGrid(field.x, field.y, lam0, f, Nrm / nrm, conn=conn)
    if conn is not None:
        S.fx, S.fy = _tangents(frame, conn, lam0)
        S.Nx, S.Ny = _normal_derivatives(frame, conn, lam0)
    return S


def _tangents(frame, conn, lam0):
    return (_ad(*frame, lam0 * conn.omega1_c1),
            _ad(*frame, -conn.omega2_cm1 / lam0))


def _normal_derivatives(frame, conn, lam0):
    w1 = conn.omega1_c0 + lam0 * conn.omega1_c1
    w2 = conn.omega2_cm1 / lam0
    return (_ad(*frame, _mul2(w1, E3) - _mul2(E3, w1)),
            _ad(*frame, _mul2(w2, E3) - _mul2(E3, w2)))


def analytic_tangents(field, conn, lam0):
    """Exact tangent fields by conjugating the lambda-scaled connection.

    The t-derivative of the connection at lambda = e^t multiplies the degree
    +1 coefficient by lam0 and the degree -1 coefficient by -1/lam0; the x
    tangent keeps only the degree-1 part (the diagonal term has degree 0), the
    y tangent is the sign-flipped degree -1 part. Norms are exactly lam0 and
    1/lam0.
    """
    return _tangents(_frame_at(field, lam0, None)[0], conn, lam0)


def analytic_normal_derivatives(field, conn, lam0):
    """Exact normal derivatives by conjugating connection commutators with e3."""
    return _normal_derivatives(_frame_at(field, lam0, None)[0], conn, lam0)
