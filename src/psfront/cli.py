"""Command line driver: generate surfaces and verify invariants.

Subcommands: generate (run the pipeline and write, per lambda, an OBJ or PLY
mesh or a per-node CSV report, plus coordinate-curve polylines every --curves
STRIDE rows and columns and frame glyphs along y = 0), verify (residuals of
every checked identity against tolerances, JSON summary, exit 0 iff all
pass), sweep (several evaluation points from one frame build; a frame less
unitary than verify's tolerance gets a warning) and oracle-sg (the
characteristic march of oracles.goursat_solve on preset boundary data; it has
no tolerance).

All floats are written with 17 significant digits so identical configurations
produce byte-identical files. The writers format them one block of
frames._row_blocks (about 1024 lines) at a time, by a numpy kernel whose
bytes equal those of FMT = "%.17g"; FMT itself formats what lies outside the
kernel's fixed-notation range. The quad face text of the last grid shape
written is kept, as a run writes one grid shape.
generate and sweep run all of one lambda's work as one task: Sym, the forms,
the warning, the sweep row and the lambda's files. With two or more lambda
values the tasks run in up to two forked workers, which inherit the frame
field and hold one surface each; the main process holds none, and prints the
warnings and "wrote" lines in lambda order. A single lambda, and verify's
loop, run in process, one surface at a time. Imports sit at the top: the
package applies the PSFRONT_THREADS override before numpy loads.
"""

import argparse
import functools
import inspect
import json
import math
import os
import sys

import numpy as np

from . import analysis, frames, oracles, potentials, sym

FMT = "%.17g"

# sweep CSV column -> the check of analysis.CHECKS whose residual it holds
SWEEP_COLUMNS = {
    "E_defect": "first form E residual",
    "G_defect": "first form G residual",
    "F_defect": "first form F residual",
    "ell_max": "second form ell residual",
    "n_max": "second form n residual",
    "m_defect": "second form m residual",
    "K_defect": "K+1 residual",
}

class ConfigError(ValueError):
    """Run configuration violates a structural requirement."""


def _number(key, value):
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None


def _integer(key, value):
    """value as an int; a number with a fractional part raises ConfigError."""
    number = _number(key, value)
    if not number.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(number)


def _numbers(key, value):
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
    return tuple(_number(f"{key} entry", v) for v in value)


class RunConfig:
    """Validated run parameters, merged from a JSON file and CLI flags."""

    def __init__(self, preset=None, amplitude=None, potential=None,
                 interval=(-2.0, 2.0), grid=129, trunc=16, lambdas=(1.0,),
                 tolerances=None, out=".", step=None):
        for key, value in (("preset", preset), ("amplitude", amplitude),
                           ("step", step)):
            if potential is not None and value is not None:
                raise ConfigError(f"{key} is not read next to a potential")
        preset = "pseudosphere" if preset is None else preset
        if preset == "c0_kink" and amplitude is None:
            raise ConfigError("preset c0_kink requires --amplitude")
        for key, value in (("preset", preset), ("out", out)):
            if not isinstance(value, str):
                raise ConfigError(f"{key} must be a string, got {value!r}")
        self.preset = preset
        self.amplitude = (None if amplitude is None
                          else _number("amplitude", amplitude))
        if self.amplitude is not None and not math.isfinite(self.amplitude):
            raise ConfigError(
                f"amplitude must be finite, got {self.amplitude}")
        self.potential = potential
        self.interval = _numbers("interval", interval)
        if len(self.interval) != 2:
            raise ConfigError(f"interval must hold two numbers, got "
                              f"{len(self.interval)}")
        if not all(map(math.isfinite, self.interval)):
            raise ConfigError(f"interval must be finite, got "
                              f"{list(self.interval)}")
        self.grid = _integer("grid", grid)
        self.trunc = _integer("trunc", trunc)
        self.lambdas = _numbers("lambdas", lambdas)
        self.tolerances = {name: tol for name, tol, _ in analysis.CHECKS}
        if not isinstance(tolerances, (dict, type(None))):
            raise ConfigError(f"tolerances must map names to numbers, got "
                              f"{tolerances!r}")
        for k, v in (tolerances or {}).items():
            if k not in self.tolerances:
                raise ConfigError(f"unknown tolerance name '{k}'")
            self.tolerances[k] = _number(f"tolerance '{k}'", v)
        self.out = out
        self.step = None if step is None else _number("step", step)
        if self.grid < 3:
            raise ConfigError(
                f"grid resolution must be at least 3 nodes, got {self.grid}")
        if not self.interval[0] < self.interval[1]:
            raise ConfigError("domain interval must have positive length")
        if self.trunc < 1:
            raise ConfigError(f"truncation degree must be >= 1, got {self.trunc}")
        if not self.lambdas:
            raise ConfigError("at least one lambda value is required")
        labels = {}
        for lam in self.lambdas:
            if not 0 < lam < math.inf:
                raise ConfigError(
                    f"lambda values must be positive and finite, got {lam:g}")
            label = f"{lam:g}"
            if label in labels:
                raise ConfigError(f"lambda values {labels[label]!r} and {lam!r} "
                                  f"share the file label '{label}'")
            labels[label] = lam
        for k, v in self.tolerances.items():
            if not v > 0:
                raise ConfigError(f"tolerance '{k}' must be positive, got {v:g}")

    @property
    def name(self):
        if self.potential is not None:
            return "custom"
        if self.preset == "c0_kink":
            return f"c0_kink{self.amplitude:g}"
        return self.preset

    def potential_spec(self):
        """The potential object, or the preset's on both sides."""
        if self.potential is not None:
            return potentials.from_json(self.potential)
        return potentials.preset_by_name(
            self.preset, self.amplitude,
            step=potentials.DEFAULT_STEP if self.step is None else self.step)

    @classmethod
    def from_args(cls, args):
        """Keys the JSON file sets, overridden by the flags given; the rest
        keep the defaults of __init__."""
        data = {}
        if getattr(args, "config", None):
            with open(args.config) as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ConfigError(f"config file {args.config} must hold a "
                                  f"JSON object, got {type(data).__name__}")
        unknown = ", ".join(map(repr, sorted(set(data) - set(CONFIG_KEYS))))
        if unknown:
            raise ConfigError(f"unknown config key {unknown}; accepted: "
                              f"{', '.join(CONFIG_KEYS)}")
        kwargs = dict(data)
        if getattr(args, "preset", None):
            kwargs["preset"] = args.preset
            kwargs["potential"] = None
        for key in ("amplitude", "grid", "trunc"):
            if getattr(args, key, None) is not None:
                kwargs[key] = getattr(args, key)
        if getattr(args, "lambdas", None) is not None:
            kwargs["lambdas"] = [t for t in args.lambdas.split(",")
                                 if t.strip()]
        if getattr(args, "out", None):
            kwargs["out"] = args.out
        tol_args = getattr(args, "tol", None)
        if tol_args and isinstance(kwargs.get("tolerances") or {}, dict):
            tols = dict(kwargs.get("tolerances") or {})
            for entry in tol_args:
                if "=" in entry:
                    name, _, val = entry.partition("=")
                    tols[name] = val
                else:
                    for name, _, _ in analysis.CHECKS:
                        tols[name] = entry
            kwargs["tolerances"] = tols
        return cls(**kwargs)


CONFIG_KEYS = tuple(inspect.signature(RunConfig).parameters)


# ---------------------------------------------------------------------------
# pipeline orchestration

def _build_state(cfg):
    """Potential -> frame family -> frame field -> connection, once per run."""
    spec = cfg.potential_spec()
    x = np.linspace(cfg.interval[0], cfg.interval[1], cfg.grid)
    y = np.linspace(cfg.interval[0], cfg.interval[1], cfg.grid)
    stage = "half-frame integration"
    try:
        up = frames.integrate_half_frame(spec, "x", x, n_trunc=cfg.trunc)
        um = frames.integrate_half_frame(spec, "y", y, n_trunc=cfg.trunc)
        stage = "Birkhoff factorization"
        field = frames.build_frame_field(up, um)
        stage = "connection extraction"
        conn = frames.extract_connection(field)
    except (ValueError, RuntimeError) as exc:
        raise RuntimeError(f"{stage} failed for '{cfg.name}': {exc}") from exc
    return field, conn


# ---------------------------------------------------------------------------
# writers

# FMT in numpy. For 1e-4 <= |v| < 1e16, FMT writes v in fixed notation from
# the half-even 17-digit significand D of |v| * 10^(16 - X), where X in
# -4..15 is the decimal exponent of v, so 10^16 <= D < 10^17. The exact
# powers 10^0..10^21 (21 for an X that log10 read one too low) are kept with
# their Veltkamp split into 26-bit halves.
_SPLITTER = 2.0 ** 27 + 1
_POW10 = 10.0 ** np.arange(22)
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# A field is a subsequence of the 39 bytes "-0.000" d0 "." d1 "." ... "." d16,
# which the line lays out 40 apart, each followed by its separator.
_SPAN = b"-0.000" + b"0." * 16 + b"0"


@functools.cache
def _digit_tables():
    """Built on first use: the ASCII of the four decimal digits of 0..9999,
    one uint32 each; the count of their trailing zeros (4 for 0); and which
    bytes of _SPAN and its separator FMT keeps, by (sign bit, X + 4, position
    of the last nonzero digit), where D = 0 with X = 0 keeps FMT's "0"."""
    digits = np.ix_(*[np.arange(10)] * 4)
    ascii = np.stack(np.broadcast_arrays(*digits), -1) + ord("0")
    z = [d == 0 for d in digits]
    zeros = z[3] * (1 + z[2] * (1 + z[1] * (1 + z[0])))
    s, X, last, j = np.ix_(range(2), range(-4, 16), range(17), range(40))
    k = (j - 6) // 2                        # the digit at or before byte j
    digit = (j >= 6) & (j % 2 == 0) & (k <= np.maximum(X, last))
    point = (j >= 6) & (j % 2 == 1) & (k == X) & (last > X)
    lead = (X < 0) & (j >= 1) & (j < 2 - X)     # "0.", then -X - 1 zeros
    kept = (j == 0) & (s == 1) | lead | digit | point | (j == 39)
    return (ascii.astype(np.uint8).reshape(-1, 4).view(np.uint32)[:, 0],
            zeros.ravel(), kept)


def _format_rows(rows, prefix=b"", sep=b" "):
    """Bytes of the (R, K) floats as R lines: prefix, then the K fields joined
    by sep; each field is byte-equal to FMT % v.

    Dekker's two-product splits |v| * 10^(16 - X) exactly into p + e. In the
    fixed range p is an even integer >= 2^53, so the half-even rounding of
    p + e is p + rint(e); an X that log10 got wrong by one leaves that D
    outside [10^16, 10^17). Zeros are laid out as D = 0. NaN, infinities,
    those misses and the scientific range are formatted by FMT itself.
    """
    R, K = rows.shape
    ascii, trailing, layout = _digit_tables()
    v = np.asarray(rows, float).ravel()
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)
    a[~fast] = 1.0
    X = np.floor(np.log10(a)).astype(np.intp)
    i = 16 - X
    p = a * _POW10[i]
    c = a * _SPLITTER
    ah = c - (c - a)
    al = a - ah
    bh, bl = _POW10_HI[i], _POW10_LO[i]
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    D = p.astype(np.int64) + np.rint(e).astype(np.int64)
    fast &= (D >= 10 ** 16) & (D < 10 ** 17)
    D[~fast] = X[~fast] = 0
    fast |= v == 0
    q, g4 = np.divmod(D, 10 ** 4)
    q, g3 = np.divmod(q, 10 ** 4)
    q, g2 = np.divmod(q, 10 ** 4)
    d0, g1 = np.divmod(q, 10 ** 4)
    zeros = trailing[g4] + (g4 == 0) * (trailing[g3] + (g3 == 0) * (
        trailing[g2] + (g2 == 0) * trailing[g1]))
    line = prefix + sep.join([_SPAN] * K) + b"\n"
    text = np.tile(np.frombuffer(line, np.uint8), (R, 1))
    keep = np.ones(text.shape, bool)
    fields = text[:, len(prefix):].reshape(R, K, 40)
    field_keep = keep[:, len(prefix):].reshape(R, K, 40)
    field_keep[:] = layout[np.signbit(v).astype(int), X + 4,
                           16 - zeros].reshape(R, K, 40)
    fields[..., 6] = (d0 + ord("0")).reshape(R, K)
    fields[..., 8::2] = ascii[np.stack([g1, g2, g3, g4], -1)].view(
        np.uint8).reshape(R, K, 16)
    slow = np.flatnonzero(~fast)
    # FMT % v is at most 24 bytes long; "S24" pads it with NUL
    spelled = np.array([FMT % x for x in v[slow].tolist()], "S24").view(
        np.uint8).reshape(-1, 24)
    row, col = np.divmod(slow, K)
    fields[row, col, :24] = spelled
    field_keep[row, col, :39] = np.arange(39) < (spelled > 0).sum(1)[:, None]
    return np.compress(keep.ravel(), text).tobytes()


def _write_rows(fh, rows, prefix=b"", sep=b" "):
    """Write an (R, L, K) array as R*L lines of K floats, one block of
    frames._row_blocks (about frames.BLOCK_NODES lines) at a time."""
    for block in frames._row_blocks(*rows.shape[:2]):
        fh.write(_format_rows(rows[block].reshape(-1, rows.shape[2]),
                              prefix, sep))


@functools.lru_cache(maxsize=1)
def _quad_faces(nx, ny, prefix, base):
    """Quad lines (i,j) (i+1,j) (i+1,j+1) (i,j+1) from index base, per row."""
    a = np.arange(base, base + ny - 1)
    quad = np.stack([a, a + ny, a + ny + 1, a + 1], axis=-1).ravel()
    template = (prefix + "%d %d %d %d\n") * (ny - 1)
    return tuple((template % tuple((quad + i * ny).tolist())).encode()
                 for i in range(nx - 1))


def write_obj(path, f, curves_stride=None):
    """Quad mesh over the grid; vertex (i, j) is line i*ny + j + 1.

    Faces wind (i,j) (i+1,j) (i+1,j+1) (i,j+1) so the mesh normal matches the
    front normal wherever the area element is positive. curves_stride, if
    given, writes polylines along every stride-th grid row and column instead
    of faces.
    """
    nx, ny = f.shape[:2]
    with open(path, "wb") as fh:
        _write_rows(fh, f, prefix=b"v ")
        if curves_stride is None:
            fh.writelines(_quad_faces(nx, ny, "f ", 1))
        else:
            idx = np.arange(1, nx * ny + 1).reshape(nx, ny)
            for curve in [*idx[::curves_stride], *idx.T[::curves_stride]]:
                fh.write(f"l {' '.join(map(str, curve.tolist()))}\n".encode())


def write_ply(path, f):
    """ASCII PLY quad mesh with double precision coordinates."""
    nx, ny = f.shape[:2]
    nquad = (nx - 1) * (ny - 1)
    with open(path, "wb") as fh:
        fh.write(f"ply\nformat ascii 1.0\nelement vertex {nx * ny}\n"
                 "property double x\nproperty double y\nproperty double z\n"
                 f"element face {nquad}\n"
                 "property list uchar int vertex_indices\nend_header\n"
                 .encode())
        _write_rows(fh, f)
        fh.writelines(_quad_faces(nx, ny, "4 ", 0))


def _start_worker(task):
    """Pool initializer: a forked worker keeps the task it inherits."""
    global _worker_task
    _worker_task = task


def _run_in_worker(lam):
    return _worker_task(lam)


def _fork_pool(task):
    """A fork-context pool of min(2, usable cores) workers that inherit task
    and everything it holds, or None where the platform cannot fork."""
    # imported here, not at the top: about 5 ms that verify never needs
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    from concurrent.futures import ProcessPoolExecutor
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return ProcessPoolExecutor(min(2, cores), multiprocessing.get_context(
        "fork"), initializer=_start_worker, initargs=(task,))


def _map_lambdas(task, lambdas):
    """Run task(lam) -> (warning or None, paths, row) for every lambda, in
    _fork_pool when there are two or more and the platform can fork (only
    lambda and result cross), else here. Each warning and "wrote path" line
    prints in lambda order as the results arrive; returns the rows. Every
    lambda runs to the end, then the first failure in lambda order raises."""
    pool = _fork_pool(task) if len(lambdas) > 1 else None
    rows, failure = [], None
    try:
        calls = ([functools.partial(task, lam) for lam in lambdas]
                 if pool is None else
                 [pool.submit(_run_in_worker, lam).result for lam in lambdas])
        for call in calls:
            try:
                warning, paths, row = call()
            except Exception as exc:
                failure = exc if failure is None else failure
                continue
            if warning is not None:
                print(warning, file=sys.stderr)
            for path in paths:
                print(f"wrote {path}")
            rows.append(row)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    if failure is not None:
        raise failure
    return rows


def write_csv(path, header, columns):
    """Per-node CSV; columns is a list of flat arrays in header order."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for block in frames._row_blocks(len(columns[0]), 1):
            fh.write(_format_rows(
                np.column_stack([c[block] for c in columns]), sep=b","))


def _node_columns(S, rep, omega_field):
    """Header and columns of the per-node CSV report."""
    X, Y = np.meshgrid(S.x, S.y, indexing="ij")
    header = ["x", "y", "fx", "fy", "fz", "Nx", "Ny", "Nz",
              "E", "F", "G", "K", "omega"]
    cols = [X.ravel(), Y.ravel()]
    cols += [fld[..., k].ravel() for fld in (S.f, S.N) for k in range(3)]
    cols += [rep.E.ravel(), rep.F.ravel(), rep.G.ravel(), rep.K.ravel(),
             omega_field.ravel()]
    return header, cols


def _glyph_columns(S, omega_field):
    """Header and columns of the orthonormal frame (e1, e2, N) along the grid
    row closest to y = 0; the frame is built and gated on that row alone."""
    row = np.s_[:, S.i0y]
    e1, e2 = analysis.complete_frame(S.fx[row], S.N[row], omega_field[row])
    header = ["x", "fx", "fy", "fz", "e1x", "e1y", "e1z",
              "e2x", "e2y", "e2z", "Nx", "Ny", "Nz"]
    cols = [S.x] + [fld[:, k] for fld in (S.f[row], e1, e2, S.N[row])
                    for k in range(3)]
    return header, cols


def cmd_generate(args):
    cfg = RunConfig.from_args(args)
    if args.curves is not None and args.curves < 1:
        raise ConfigError(f"--curves must be at least 1, got {args.curves}")
    os.makedirs(cfg.out, exist_ok=True)
    field, conn = _build_state(cfg)

    def task(lam):
        S = sym.sym_immersion(field, lam, conn)
        rep = analysis.fundamental_forms(S)
        warning = None if rep.regular_count else (
            f"warning: surface at lambda={lam:g} is not regular "
            "(image degenerates to a line)")
        stem = os.path.join(cfg.out, f"{cfg.name}_lam{lam:g}_n{cfg.grid}")
        paths = [f"{stem}.{args.format}"]
        if args.format == "csv":
            write_csv(paths[0], *_node_columns(S, rep, conn.omega))
        else:
            (write_ply if args.format == "ply" else write_obj)(paths[0], S.f)
        if args.curves is not None:
            paths.append(stem + "_curves.obj")
            write_obj(paths[-1], S.f, args.curves)
        if args.glyphs:
            paths.append(stem + "_glyphs.csv")
            write_csv(paths[-1], *_glyph_columns(S, conn.omega))
        return warning, paths, None

    _map_lambdas(task, cfg.lambdas)
    return 0


def cmd_verify(args):
    cfg = RunConfig.from_args(args)
    os.makedirs(cfg.out, exist_ok=True)
    field, conn = _build_state(cfg)
    zcc_sup = float(frames.zcc_residual(conn).max())
    summary = {"preset": cfg.name, "grid": cfg.grid, "trunc": cfg.trunc,
               "interval": list(cfg.interval), "lambdas": {}, "pass": True}
    first_fail = None
    for lam in cfg.lambdas:
        S = sym.sym_immersion(field, lam, conn)
        rep = analysis.fundamental_forms(S)
        entry = {"regular nodes": rep.regular_count, "checks": {}}
        for name, _, check in analysis.CHECKS:
            residual = check(S, rep, conn.omega, zcc_sup)
            tol = cfg.tolerances[name]
            ok = residual < tol
            entry["checks"][name] = {"residual": residual, "tolerance": tol,
                                     "pass": ok}
            if not ok and first_fail is None:
                first_fail = (name, residual, tol, lam)
            summary["pass"] = summary["pass"] and ok
        summary["lambdas"][f"{lam:g}"] = entry
        del S, rep          # held while the next lambda runs, they set the peak
    path = os.path.join(cfg.out, f"verify_{cfg.name}_n{cfg.grid}.json")
    text = json.dumps(summary, indent=2, sort_keys=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")
    print(f"wrote {path}")
    if first_fail:
        name, residual, tol, lam = first_fail
        print(f"FAIL: {name} = {residual:.6e} exceeds tolerance {tol:g} "
              f"at lambda={lam:g}", file=sys.stderr)
        return 1
    print(f"all checks passed for {cfg.name} "
          f"({len(cfg.lambdas)} evaluation points)")
    return 0


def cmd_sweep(args):
    cfg = RunConfig.from_args(args)
    os.makedirs(cfg.out, exist_ok=True)
    field, conn = _build_state(cfg)
    unit_tol = cfg.tolerances[analysis.UNITARITY_CHECK]
    checks = {name: check for name, _, check in analysis.CHECKS}
    columns = [checks[name] for name in SWEEP_COLUMNS.values()]

    def task(lam):
        S = sym.sym_immersion(field, lam, conn)
        warning = None if S.unitarity <= unit_tol else (
            f"warning: frame at lambda={lam:g} is not unitary "
            f"(residual {S.unitarity:.3e})")
        rep = analysis.fundamental_forms(S)
        row = ([lam] + [check(S, rep, conn.omega, None) for check in columns]
               + [float(rep.regular_count)])
        paths = []
        if args.mesh:
            paths.append(os.path.join(
                cfg.out, f"{cfg.name}_lam{lam:g}_n{cfg.grid}.obj"))
            write_obj(paths[0], S.f)
        return warning, paths, row

    rows = _map_lambdas(task, cfg.lambdas)
    header = ["lambda", *SWEEP_COLUMNS, "regular_nodes"]
    path = os.path.join(cfg.out, f"sweep_{cfg.name}_n{cfg.grid}.csv")
    write_csv(path, header, list(zip(*rows)))
    print(f"wrote {path}")
    return 0


def cmd_oracle_sg(args):
    cfg = RunConfig.from_args(args)
    spec = cfg.potential_spec()
    n = cfg.grid
    x = np.linspace(cfg.interval[0], cfg.interval[1], n)
    sol = oracles.goursat_solve(spec.alpha, spec.beta, x, x)
    out = {"preset": cfg.name, "grid": n, "iterations": sol.iterations,
           "final delta": sol.final_delta, "contraction": sol.contraction,
           "sup |phi|": float(np.abs(sol.phi).max())}
    print(json.dumps(out, indent=2, sort_keys=True))
    if args.out_csv:
        os.makedirs(cfg.out, exist_ok=True)
        path = os.path.join(cfg.out, f"goursat_{cfg.name}_n{n}.csv")
        X, Y = np.meshgrid(x, x, indexing="ij")
        write_csv(path, ["x", "y", "phi"],
                  [X.ravel(), Y.ravel(), sol.phi.ravel()])
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="psfront",
        description="Constant negative curvature fronts from loop group "
                    "factorization: generate and verify.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration file")
    common.add_argument("--preset",
                        choices=("pseudosphere", "vacuum", "c0_kink"),
                        help="built-in potential (overrides config)")
    common.add_argument("--amplitude", type=float,
                        help="slope for the c0_kink preset")
    common.add_argument("--grid", type=int, metavar="N",
                        help="nodes per axis (default 129)")
    common.add_argument("--out", metavar="DIR", help="output directory")
    # the flags of the frame build, which oracle-sg does not run
    frame = argparse.ArgumentParser(add_help=False)
    frame.add_argument("--lambda", dest="lambdas", metavar="L1,L2,...",
                       help="comma list of evaluation points, all > 0")
    frame.add_argument("--trunc", type=int, metavar="K",
                       help="Laurent truncation degree (default 16)")

    p = sub.add_parser("generate", parents=[common, frame],
                       help="run the pipeline and write each lambda's mesh "
                            "or per-node CSV report")
    p.add_argument("--format", choices=("obj", "ply", "csv"), default="obj")
    p.add_argument("--curves", type=int, nargs="?", const=16, metavar="STRIDE",
                   help="also write every STRIDE-th coordinate curve (16)")
    p.add_argument("--glyphs", action="store_true",
                   help="also write the orthonormal frame along y = 0")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", parents=[common, frame],
                       help="residuals of all checked identities; exit 0 iff "
                            "every one passes")
    p.add_argument("--tol", action="append", metavar="VAL|NAME=VAL",
                   help="override one tolerance (NAME=VAL) or all (VAL)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", parents=[common, frame],
                       help="evaluate several lambda from one frame build")
    p.add_argument("--mesh", action="store_true",
                   help="also write a mesh per lambda")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle-sg", parents=[common],
                       help="direct sine-Gordon solve on preset boundary data")
    p.add_argument("--out-csv", action="store_true",
                   help="write the angle field as per-node CSV")
    p.set_defaults(func=cmd_oracle_sg)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"psfront: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
