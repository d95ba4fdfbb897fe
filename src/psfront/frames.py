"""Frame construction: characteristic integration, per-node splitting, connection.

The build runs in three stages. integrate_half_frame solves the loop ODE along
one axis by an iterated-integral ladder, giving a one-parameter family of
nonnegative (x axis) or nonpositive (y axis) loops normalized to the identity
at the origin, as packed real-form loops (see loops). build_frame_field glues
the two families in that layout, which is also the one of the FrameField it
returns: at every grid node it factors G = U_minus^{-1} U_plus into a
nonnegative times a normalized nonpositive loop through birkhoff_split, a
Toeplitz solve over a batch of packed loops, called once per block. The
field keeps the extended frame U_hat = U_plus L_minus as its two factors,
U_plus per x row and L_minus per node, and never U_hat itself. U_hat's
coefficients are read one way: assembled by _uhat for a block of x rows,
where the build's consistency and unitarity gates and the shape check read
them. U_hat(lambda) is evaluated one way, for Sym: frame_row_blocks gives its
first rows block by block from one evaluation of U_plus per lambda and one
of L_minus per block. extract_connection reads the two angle fields off two
factor coefficients and cross-checks the result against finite differences
of U_hat.

Every node's work is independent, so the build, that cross-check and Sym
stream blocks of whole x rows, about BLOCK_NODES nodes each, through the same
per-node arithmetic: their temporaries stay the size of a block whatever the
grid, and the results do not depend on the block size in any bit.

The ladder truncated at degree k is the generating function of the implicit
trapezoid one-step scheme, which is exactly unitary for real lambda; unitarity
defects of the assembled frame are therefore pure truncation tails.
"""

import math

import numpy as np

from .analysis import cumtrapz_origin, d_x, d_y, spacing
# eval_coeffs, inverse_coeffs and mul_coeffs, the 2x2 reference kernels, stay
# frames attributes: psbench/traced.py wraps them by name; none is called here
from .loops import (DEFAULT_TRUNC, MAX_DEGREE, TruncationOverflowError,
                    eval_coeffs, inverse_coeffs, mul_coeffs, packed_adjugate,
                    packed_eval, packed_mul, packed_unitarity, sup_abs)
from .potentials import eta_minus, eta_plus


# nodes per block of the per-node work; bounds the temporaries of the build,
# the shape check and Sym independently of the grid size
BLOCK_NODES = 1024


class GridError(ValueError):
    """Display grid incompatible with the potential's sample lattice."""


class SplitError(RuntimeError):
    """Loop factorization failed or left a residual above tolerance."""


class ConnectionShapeError(RuntimeError):
    """Finite-difference frame derivatives do not match the expected pattern."""


# ---------------------------------------------------------------------------
# ladder integration

def ladder(c, h, i0, n_deg):
    """Packed iterated integrals U_0 = I, U_k = int_0 U_{k-1} A, (n, n_deg+1).

    A = [[0, c], [-conj(c), 0]]: U_{k-1} A is the packed U_{k-1} times c for
    odd k and times -conj(c) for even k.
    """
    U = np.zeros((c.shape[0], n_deg + 1), complex)
    U[:, 0] = 1.0
    for k in range(1, n_deg + 1):
        # einsum rounds as the 2x2 product does; * can differ in the last bit
        U[:, k] = cumtrapz_origin(np.einsum(
            "n,n->n", U[:, k - 1], c if k % 2 else -c.conj()), h, i0)
    return U


class HalfFrameFamily:
    """One-parameter family of half frames along a single axis.

    coeffs holds packed loops (loops.pack), shape (n_nodes, n_trunc+1), with
    ascending degrees: 0..n_trunc for the x axis, -n_trunc..0 for the y axis.
    The loop at the origin is the identity.
    """

    def __init__(self, axis, nodes, coeffs, k_min, n_trunc, spec,
                 per_degree_sup):
        self.axis = axis
        self.nodes = nodes
        self.coeffs = coeffs
        self.k_min = k_min
        self.n_trunc = n_trunc
        self.spec = spec
        self.per_degree_sup = per_degree_sup

    def __repr__(self):
        return (f"HalfFrameFamily(axis={self.axis!r}, n={len(self.nodes)}, "
                f"trunc={self.n_trunc})")


def _lattice_for(spec, grid):
    """Sample-lattice section covering the display grid; grid nodes must sit on it."""
    grid = np.asarray(grid, float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise GridError("grid must be a strictly increasing 1-D array")
    step = spec.step
    xs = spec.xs
    if grid[0] < xs[0] - 1e-9 or grid[-1] > xs[-1] + 1e-9:
        raise GridError(f"grid range [{grid[0]}, {grid[-1]}] outside potential "
                        f"interval {spec.interval}")
    i_lo = int(round((grid[0] - xs[0]) / step))
    i_hi = int(round((grid[-1] - xs[0]) / step))
    if abs(xs[i_lo] - grid[0]) > 1e-9 or abs(xs[i_hi] - grid[-1]) > 1e-9:
        raise GridError("grid endpoints must lie on the sample lattice")
    lattice = xs[i_lo:i_hi + 1]
    sel = np.round((grid - lattice[0]) / step).astype(int)
    if sup_abs(lattice[sel] - grid) > 1e-9:
        raise GridError(f"grid nodes must be commensurate with the sample "
                        f"step {step:g}")
    i0 = int(np.argmin(np.abs(lattice)))
    if abs(lattice[i0]) > 1e-12 or np.abs(grid).min() > 1e-12:
        raise GridError("grid must contain the origin as a node")
    return lattice, sel, i0


def integrate_half_frame(spec, axis, grid, n_trunc=DEFAULT_TRUNC):
    """Integrate the loop ODE along one axis on the potential's sample lattice.

    The quadrature runs on the fine sample lattice; `grid` selects the display
    nodes, which must be lattice nodes (coarser display grids are a stride of
    the lattice). Returns a HalfFrameFamily; an n_trunc above
    loops.MAX_DEGREE raises TruncationOverflowError.
    """
    if axis not in ("x", "y"):
        raise GridError(f"axis must be 'x' or 'y', got {axis!r}")
    if n_trunc > MAX_DEGREE:
        raise TruncationOverflowError(
            f"truncation degree {n_trunc} exceeds maximum degree {MAX_DEGREE}")
    lattice, sel, i0 = _lattice_for(spec, grid)
    h = spec.step
    eta = eta_plus if axis == "x" else eta_minus
    U = ladder(eta(spec, lattice)[:, 0, 1], h, i0, n_trunc)
    per_degree = np.abs(U).max(axis=0)
    Usel = U[sel]
    if axis == "x":
        coeffs, k_min = Usel, 0                   # U_k multiplies lambda^k
    else:
        coeffs, k_min = Usel[:, ::-1], -n_trunc   # U_k multiplies lambda^-k
    return HalfFrameFamily(axis, np.asarray(grid, float), np.ascontiguousarray(coeffs),
                           k_min, n_trunc, spec, per_degree)


# ---------------------------------------------------------------------------
# Birkhoff splitting

def _split_negative(ge, go, N, where):
    """One column of the normalized nonpositive factor, for a batch of loops.

    By twist parity a column of L_minus is one scalar per degree, x_m =
    L_m[row(m), c] with row(m) alternating with m. ge and go (nodes, 2N+1;
    degrees -N..N) hold G_i[row(m + i), row(m)] for m even and m odd. Kills
    degrees -1..-N of G L_minus with x_0 = 1; returns x at degrees -N..0.
    A singular system raises SplitError naming where(i), i the first
    singular loop of the batch.
    """
    k = np.arange(N)                   # equation di at degree -1-di, unknown ki at -1-ki
    toeplitz = N + k[None, :] - k[:, None]
    odd = np.broadcast_to((k + 1) % 2, (N, N))
    M = np.stack([ge, go], axis=1)[:, odd, toeplitz]
    rhs = -ge[:, N - 1 - k, None]
    x = np.empty((ge.shape[0], N + 1), complex)
    x[:, N] = 1.0
    try:
        x[:, N - 1 - k] = np.linalg.solve(M, rhs)[..., 0]
    except np.linalg.LinAlgError as exc:
        for i in range(len(M)):        # error path only: find the loop
            try:
                np.linalg.solve(M[i], rhs[i])
            except np.linalg.LinAlgError:
                raise SplitError(f"singular Toeplitz system at {where(i)}: "
                                 f"{exc}") from None
        raise
    return x


def birkhoff_split(G, where=None):
    """Split packed real-form loops as G = L_plus L_minus^{-1}.

    G (n, 2N+1) holds n loops on degrees -N..N; N is read from the shape.
    Returns L_plus (n, N+1) on degrees 0..N, the normalized L_minus (n, N+1)
    on -N..0 with degree 0 the identity, and the per-loop residual, the
    largest coefficient G L_minus keeps on degrees -2N..-1. The residual is
    returned, not gated. A singular Toeplitz system raises SplitError naming
    where(i), i the first singular loop (by default "loop i").
    """
    if G.ndim != 2 or G.shape[-1] % 2 == 0 or G.shape[-1] < 3:
        raise ValueError(f"G must be (n, 2N+1) with N >= 1, got {G.shape}")
    N = G.shape[-1] // 2
    o = (N + 1) % 2                                            # first odd slot
    # column 0 of the split in scalars x_m = L_m[m % 2, 0]: p on even
    # degrees and -conj(p) on odd ones, for G and for the solution alike
    ge, go = G.copy(), G.conj()
    ge[:, o::2], go[:, o::2] = -go[:, o::2], G[:, o::2]
    lm = _split_negative(ge, go, N, where or (lambda i: f"loop {i}"))
    lm[:, o::2] = -lm[:, o::2].conj()
    GL = packed_mul(G, lm, -N, -N, -2 * N, 3 * N + 1)
    return GL[:, 2 * N:], lm, np.abs(GL[:, :2 * N]).max(axis=1)


# ---------------------------------------------------------------------------
# frame field

class FrameField:
    """The extended frames U_hat = U_plus L_minus on the full grid, as factors.

    Uplus holds U_plus per x row, packed loops (nx, n_trunc+1) over degrees
    0..n_trunc; Lminus holds L_minus per node, (nx, ny, n_trunc+1) over
    -n_trunc..0. Lp is L_plus,0[0, 0], indexed (ix, iy), and Lm the view of
    Lminus on L_minus,-1[0, 1]. split_residual and consistency are per-node
    sup norms of the whole factors; unitarity maps lambda in {1/2, 1, 2} to
    the packed_unitarity of U_hat(lambda) over the grid. The build computes
    all of them; the constructor only stores.
    """

    def __init__(self, x, y, n_trunc, spec, Uplus, Lminus, Lp, split_residual,
                 consistency, unitarity):
        self.x = x
        self.y = y
        self.n_trunc = n_trunc
        self.spec = spec
        self.Uplus = Uplus
        self.Lminus = Lminus
        self.Lp = Lp
        self.split_residual = split_residual
        self.consistency = consistency
        self.unitarity = unitarity
        self.i0x = int(np.argmin(np.abs(x)))
        self.i0y = int(np.argmin(np.abs(y)))

    @property
    def Lm(self):
        return self.Lminus[..., self.n_trunc - 1]

    @property
    def Uhat(self):
        """U_hat's packed coefficients (nx, ny, 2 n_trunc+1) over
        -n_trunc..n_trunc, assembled on each access; the pipeline reads the
        factors instead."""
        return _uhat(self.Uplus, self.Lminus, self.n_trunc)

    def __repr__(self):
        return (f"FrameField({len(self.x)}x{len(self.y)}, trunc={self.n_trunc}, "
                f"split={self.split_residual.max():.2e})")


def _uhat(up, lm, N):
    """U_hat = U_plus L_minus on degrees -N..N for a block of x rows.

    up (rows, N+1) holds U_plus on 0..N, lm (rows, ny, N+1) L_minus on -N..0.
    U_plus is fixed along a row, so packed_mul's two convolutions are one
    matmul per row of [lm | s conj(lm)] against a 2(N+1) x (2N+1) Toeplitz
    matrix of U_plus, its even degrees in the first half and its odd ones in
    the second. Every row's product has the same shape, so its bits do not
    depend on the block.
    """
    i = np.arange(2 * N + 1) - np.arange(N + 1)[:, None]     # U_plus degree
    T = np.where((i >= 0) & (i <= N), up[:, np.clip(i, 0, N)], 0)
    odd = i % 2 == 1
    toeplitz = np.concatenate([np.where(odd, 0, T), np.where(odd, T, 0)], -2)
    slm = lm.conj()
    slm[..., (N + 1) % 2::2] *= -1                # s = -1 on odd degrees
    return np.concatenate([lm, slm], -1) @ toeplitz


def truncation_tail(n_trunc, reach, lam_amp):
    """Upper bound on the dropped series tail of a ladder truncated at n_trunc.

    reach is the largest |coordinate| integrated over; the degree-k ladder
    level is bounded by (reach/2)^k / k!, and evaluating at lambda multiplies
    degree k by lam_amp^k. A bound too large for a float is math.inf.
    """
    m = 0.5 * float(reach) * lam_amp
    try:
        return m ** (n_trunc + 1) / math.factorial(n_trunc + 1) * math.exp(m)
    except OverflowError:
        return math.inf


def tail_tolerance(floor, n_trunc, reach, lam_amp):
    """Gate for a defect made of truncation tail: 50 x the bound, floored."""
    return max(floor, 50.0 * truncation_tail(n_trunc, reach, lam_amp))


def _row_blocks(nx, ny):
    """Slices of whole x rows, about BLOCK_NODES nodes each (one row at least)."""
    step = max(1, BLOCK_NODES // ny)
    return [slice(i, min(i + step, nx)) for i in range(0, nx, step)]


def frame_row_blocks(field, lam):
    """First rows (a, b) of U_hat(lam) and (a_t, b_t) of its t-derivative
    along lambda = e^t at a real lam, one block of whole x rows at a time.

    Yields (rows, a, b, a_t, b_t), each of the four (rows, ny). U_plus is
    evaluated once per call and L_minus once per block, by packed_eval: at a
    real lam each factor is a real-form matrix, so U_hat's first row is the
    closed-form product of theirs, and its t-derivative follows by the
    product rule.
    """
    p, p_t = packed_eval(field.Uplus, 0, lam)
    for rows in _row_blocks(*field.Lminus.shape[:2]):
        q, q_t = packed_eval(field.Lminus[rows], -field.n_trunc, lam)
        pa, pb, pa_t, pb_t = (v[rows, None] for v in (*p.T, *p_t.T))
        qa, qb, qa_t, qb_t = q[..., 0], q[..., 1], q_t[..., 0], q_t[..., 1]
        cqa, cqb = qa.conj(), qb.conj()
        yield (rows, pa * qa - pb * cqb, pa * qb + pb * cqa,
               (pa_t * qa - pb_t * cqb) + (pa * qa_t - pb * qb_t.conj()),
               (pa_t * qb + pb_t * cqa) + (pa * qb_t + pb * qa_t.conj()))


def build_frame_field(up, um):
    """Glue two half-frame families into the frame field over the grid.

    The one-dimensional families are integrated once; the per-node work is the
    Toeplitz solve and a handful of window products on packed loops, run over
    blocks of whole x rows; a family with a non-finite coefficient, or a
    singular Toeplitz system, raises SplitError, the latter naming the node.
    Both gates read U_hat as each block assembles it: consistency against
    U_minus L_plus, unitarity at lambda in {1/2, 1, 2}. Their tolerances
    follow the truncation tail of the ladder, which is what those defects
    consist of.
    """
    if up.axis != "x" or um.axis != "y":
        raise GridError("expected an x-axis family and a y-axis family")
    if up.n_trunc != um.n_trunc:
        raise GridError("half frames must share the truncation order")
    N = up.n_trunc
    reach = max(np.abs(up.nodes).max(), np.abs(um.nodes).max())
    consistency_tol = tail_tolerance(1e-12, N, reach, 1.0)
    # unitarity is probed at lambda in {1/2, 1, 2}
    unitarity_tol = tail_tolerance(1e-9, N, reach, 2.0)
    for fam in (up, um):
        bad = np.flatnonzero(~np.isfinite(fam.coeffs).all(axis=-1))
        if bad.size:
            raise SplitError(
                f"{fam.axis}-axis half-frame family has a non-finite "
                f"coefficient at node {bad[0]} ({fam.axis} = "
                f"{fam.nodes[bad[0]]:g})")
    nx, ny = len(up.nodes), len(um.nodes)
    # the y family's inverse is its adjugate: det V = 1 on degrees -N..0
    Vinv = packed_adjugate(um.coeffs, -N)
    Um = um.coeffs[None, :]                       # (1, ny, N+1), -N..0
    Lminus = np.empty((nx, ny, N + 1), complex)
    Lp = np.empty((nx, ny), complex)
    split_res = np.empty((nx, ny))
    consistency = np.empty((nx, ny))
    unitarity = {lam: [] for lam in (0.5, 1.0, 2.0)}     # per block

    def node_at(i):
        ix, iy = divmod(i, ny)
        return (f"node (ix, iy) = ({ix}, {iy}), (x, y) = "
                f"({up.nodes[ix]:g}, {um.nodes[iy]:g})")

    for rows in _row_blocks(nx, ny):
        Up = up.coeffs[rows, None]                # (rows, 1, N+1), 0..N
        # G(x, y) = U_minus(y)^{-1} U_plus(x), degrees -N..N
        G = packed_mul(Vinv[None, :], Up, -N, 0, -N, 2 * N + 1).reshape(
            -1, 2 * N + 1)
        lp, lm, res = birkhoff_split(
            G, where=lambda i: node_at(rows.start * ny + i))
        split_res[rows] = res.reshape(-1, ny)
        lp = lp.reshape(-1, ny, N + 1)
        lm = lm.reshape(lp.shape)
        Lminus[rows], Lp[rows] = lm, lp[..., 0]
        U = _uhat(up.coeffs[rows], lm, N)
        consistency[rows] = np.abs(U - packed_mul(
            Um, lp, -N, 0, -N, 2 * N + 1)).max(axis=-1)
        for lam, sups in unitarity.items():
            sups.append(packed_unitarity(packed_eval(U, -N, lam)[0]))
        del U                   # not held through the next block's split
    # sup_abs keeps a NaN that max() would drop
    field = FrameField(up.nodes, um.nodes, N, up.spec, up.coeffs, Lminus, Lp,
                       split_res, consistency,
                       {lam: sup_abs(sups) for lam, sups in unitarity.items()})
    _validate_field(field, consistency_tol, unitarity_tol)
    return field


def _validate_field(field, consistency_tol, unitarity_tol):
    c = field.consistency.max()
    if not c <= consistency_tol:
        raise SplitError(f"factor consistency defect {c:.3e} exceeds "
                         f"{consistency_tol:g}")
    for lam, resid in field.unitarity.items():
        if not resid <= unitarity_tol:
            raise SplitError(f"unitarity residual {resid:.3e} at lambda={lam} "
                             f"exceeds {unitarity_tol:g}")
    row = slice(field.i0x, field.i0x + 1)
    origin = _uhat(field.Uplus[row], field.Lminus[row], field.n_trunc)[
        0, field.i0y]
    origin[field.n_trunc] -= 1.0
    if not sup_abs(origin) <= 1e-12:
        raise SplitError("frame at the origin is not the identity")


# ---------------------------------------------------------------------------
# connection extraction

class ConnectionField:
    """Angle and off-diagonal data of the frame's flat connection.

    phihat is the rotating angle field, omega = phihat + alpha the angle
    between the asymptotic lines, r the negated x derivative of phihat as
    read off the factors, p = i e^{i phihat} and q = i e^{-i alpha} (per x
    node) the off-diagonal scalars. These scalars are the two connection
    matrices:

        omega1 = [[i r / 2, lambda q / 2], [-lambda conj(q) / 2, -i r / 2]]
        omega2 = -(1 / (2 lambda)) [[0, p], [-conj(p), 0]]
    """

    def __init__(self, x, y, alpha, beta, phihat, r, shape_report):
        self.x = x
        self.y = y
        self.alpha = alpha
        self.beta = beta
        self.phihat = phihat
        self.omega = phihat + alpha[:, None]
        self.r = r
        self.p = 1j * np.exp(1j * phihat)
        self.q = 1j * np.exp(-1j * alpha)
        self.shape_report = shape_report


def extract_connection(field):
    """Read the connection off the factors and cross-check it by differences.

    The angle field comes from the degree-0 coefficient of L_plus anchored to
    beta on the y axis; r comes from the degree -1 coefficient of L_minus.
    U_hat^{-1} U_hat_x and U_hat^{-1} U_hat_y are then formed by finite
    differences and must reproduce the prescribed Laurent pattern
    (degrees {0, 1} and {-1}) with off-pattern coefficients and field
    disagreements below max(h/2, 8h^2). Raises ConnectionShapeError otherwise.
    """
    x, y = field.x, field.y
    alpha = np.asarray(field.spec.alpha(x), float)
    beta = np.asarray(field.spec.beta(y), float)
    ratio = field.Lp.conj() / field.Lp
    dphi = np.unwrap(np.angle(ratio), axis=0)
    dphi -= dphi[field.i0x:field.i0x + 1, :]
    phihat = beta[None, :] + dphi
    r = -2.0 * np.real(np.exp(1j * alpha)[:, None] * field.Lm)
    report = _shape_check(field, alpha, beta, phihat, r)
    return ConnectionField(x, y, alpha, beta, phihat, r, report)


def _shape_check(field, alpha, beta, phihat, r):
    """Compare FD frame derivatives against the expected connection pattern.

    W1 = U_hat^{-1} d_x U_hat and W2 = U_hat^{-1} d_y U_hat are formed one
    row block at a time, from U_hat assembled for the block and its halo;
    only their pattern degrees are kept for the grid.
    """
    hx, hy = spacing(field)
    h = max(hx, hy)
    # O(h) floor: for merely continuous potentials the frame's second
    # derivative jumps across the axes and centered differences degrade
    # there from O(h^2) to O(h)
    tol = max(0.5 * h, 8.0 * h * h)
    N = field.n_trunc
    nx, ny = field.Lminus.shape[:2]
    off1, off2 = [], []
    w1_0 = np.empty((nx, ny), complex)       # degree 0 of W1
    w2_m1 = np.empty((nx, ny), complex)      # degree -1 of W2
    U, U_lo = np.empty((0, ny, 2 * N + 1), complex), 0   # U_hat from row U_lo
    for rows in _row_blocks(nx, ny):
        # a one-row halo for d_x, three rows at a grid edge for its
        # one-sided stencil
        lo = max(0, min(rows.start - 1, nx - 3))
        hi = min(nx, max(rows.stop + 1, 3))
        inner = slice(rows.start - lo, rows.stop - lo)
        # the rows the block before assembled are kept, not assembled again
        top = U_lo + len(U)
        U = np.concatenate([U[lo - U_lo:], _uhat(
            field.Uplus[top:hi], field.Lminus[top:hi], N)])
        U_lo = lo
        Ub = U[inner]
        Uinv = packed_adjugate(Ub, -N)   # det U_hat = 1 up to truncation tail
        # packed on degrees -3..3: entry (0, 0) on even degrees, (0, 1) on odd
        W1 = packed_mul(Uinv, d_x(U, hx)[inner], -N, -N, -3, 7)
        W2 = packed_mul(Uinv, d_y(Ub, hy), -N, -N, -3, 7)
        off1.append(sup_abs(W1[:, :, [0, 1, 2, 5, 6]]))
        off2.append(sup_abs(W2[:, :, [0, 1, 4, 5, 6]]))
        w1_0[rows], w2_m1[rows] = W1[:, :, 3], W2[:, :, 2]
    # off-pattern degrees; sup_abs keeps a NaN that max() would drop
    defects = {"w1 degrees outside {0,1}": sup_abs(off1),
               "w2 degrees outside {-1}": sup_abs(off2)}
    # field agreement
    r_fd = np.real(-2j * w1_0)
    defects["r vs FD"] = sup_abs(r_fd - r)
    p_fd = -2.0 * w2_m1                      # = i e^{i phihat} + O(h^2)
    phi_fd = np.unwrap(np.angle(p_fd / 1j), axis=0)
    phi_fd -= phi_fd[field.i0x:field.i0x + 1, :] - beta[None, :]
    defects["phihat vs FD"] = sup_abs(phi_fd - phihat)
    defects["w2 off-diagonal modulus vs 1/2"] = sup_abs(np.abs(w2_m1) - 0.5)
    defects["r vs -d phihat/dx"] = sup_abs(d_x(phihat, hx) + r)
    worst = max(defects, key=lambda k: (math.isnan(defects[k]), defects[k]))
    if not defects[worst] <= tol:
        raise ConnectionShapeError(
            f"connection shape defect '{worst}' = {defects[worst]:.3e} "
            f"exceeds {tol:.3e}")
    return defects


def zcc_residual(conn):
    """Per-node curvature residual of the extracted connection.

    The lambda^0 block of d_y omega1 - d_x omega2 + [omega2, omega1] has the
    entries +-(i / 2)(d_y r - Im(conj(p) q)), the lambda^-1 block (d_x p +
    i r p) / 2 and minus its conjugate, and the lambda^1 block d_y q vanishes.
    Returns the largest entry modulus per node, with order-2 differences.
    """
    hx, hy = spacing(conn)
    p, r = conn.p, conn.r
    res0 = d_y(r, hy) - (p.conj() * conn.q[:, None]).imag
    resm1 = d_x(p, hx) + 1j * r * p
    return 0.5 * np.maximum(np.abs(res0), np.abs(resm1))
