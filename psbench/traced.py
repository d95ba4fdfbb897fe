"""Traced in-process runs for the psfront benchmark; run.py starts this file.

Two modes, each run in a fresh child process:

    python3 psbench/traced.py cli OUT.json <psfront argv...>
        Runs psfront.cli.main(argv) with spans recorded around the calls into
        each layer, then writes the spans and the per-layer metrics to OUT.json.
    python3 psbench/traced.py c0 OUT.json SEED
        Counts shape-check rejections over seeded random piecewise-linear C0
        potentials built through the library, and writes the count to OUT.json.

Spans are recorded from this file, by replacing module attributes with timing
wrappers at the names the callers look up at call time: cli reaches frames,
sym, analysis and potentials through module attributes and calls its writers
as module globals; frames and sym bind the loops kernels as their own module
globals. Nothing in the package is edited.
"""

import functools
import json
import math
import os
import random
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

# random C0 potentials: a corner every 0.25, slopes within the README's kink
# amplitude, on the grid and truncation of the C0 sweep workload
C0_POTENTIALS = 6
C0_CORNER_STEP = 0.25
C0_MAX_SLOPE = 0.75
C0_GRID = 129
C0_TRUNC = 8


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory spans: name, start, end, parent index, RSS high-water marks."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def call(self, name, fn, args=(), kwargs=None, attrs=None):
        """Run fn inside a span; returns (result, span record)."""
        rec = {"name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "rss0_mb": _maxrss_mb()}
        if attrs:
            rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **(kwargs or {})), rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()
            rec["rss1_mb"] = _maxrss_mb()

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace owner.attr by a wrapper that records one span per call.

        before(args) returns extra span fields known before the call;
        after(rec, args, result) adds fields once the call has returned.
        """
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            attrs = before(args) if before else None
            result, rec = self.call(name, orig, args, kwargs, attrs)
            if after:
                after(rec, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    def unwrap(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)


def _mul_pairs(args):
    """Computed count of 2x2 coefficient products in one mul_coeffs call."""
    import numpy as np
    A, B, amin, bmin, outmin, outlen = args[:6]
    batch = math.prod(np.broadcast_shapes(A.shape[:-3], B.shape[:-3]))
    na, nb = A.shape[-3], B.shape[-3]
    terms = sum(1 for d in range(outlen) for i in range(na)
                if 0 <= outmin + d - amin - i - bmin < nb)
    return {"pairs": batch * terms}


def _field_size(rec, args, field):
    nx, ny = field.Uhat.shape[:2]
    rec["nodes"] = nx * ny
    rec["degrees"] = 2 * field.n_trunc + 1
    rec["field_mb"] = (field.Uhat.nbytes + field.Lp.nbytes
                       + field.Lm.nbytes) / 2.0 ** 20


def _shape_report(rec, args, conn):
    report = conn.shape_report
    rec["shape_report"] = bool(report) and all(
        math.isfinite(v) for v in report.values())


def _bytes_landed(rec, args, result):
    rec["bytes"] = os.path.getsize(args[0])


def install(tracer):
    """Wrap every measured layer boundary; see the module docstring."""
    from psfront import analysis, cli, frames, loops, potentials, sym
    w = tracer.wrap
    w(potentials, "preset_by_name", "potentials.spec")
    w(potentials, "from_json", "potentials.spec")
    w(frames, "mul_coeffs", "loops.mul_coeffs", before=_mul_pairs)
    w(frames, "inverse_coeffs", "loops.inverse_coeffs")
    w(frames, "eval_coeffs", "loops.eval_coeffs")
    w(sym, "eval_coeffs", "loops.eval_coeffs")
    w(loops, "eval_coeffs", "loops.eval_coeffs")    # cli imports it per call
    w(frames, "integrate_half_frame", "frames.ladder")
    w(frames, "build_frame_field", "frames.build", after=_field_size)
    w(frames, "extract_connection", "frames.connection", after=_shape_report)
    w(frames, "zcc_residual", "frames.zcc")
    w(sym, "sym_immersion", "sym.immersion")
    w(analysis, "fundamental_forms", "analysis.forms")
    for name in ("sine_gordon_residual", "harmonicity_residual",
                 "asymptotic_torsion"):
        w(analysis, name, "analysis.residuals")
    for name in ("write_obj", "write_ply", "write_csv"):
        w(cli, name, "cli.write", after=_bytes_landed)


def layer_metrics(spans):
    """Per-layer totals; a span nested in one of its own name counts once."""
    dur = [s["end"] - s["start"] for s in spans]
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            covered[s["parent"]] += dur[i]

    def outermost(name):
        for i, s in enumerate(spans):
            if s["name"] != name:
                continue
            p = s["parent"]
            while p is not None and spans[p]["name"] != name:
                p = spans[p]["parent"]
            if p is None:
                yield i

    def total(name, field=None):
        return sum(spans[i].get(field, 0) if field else dur[i]
                   for i in outermost(name))

    def self_time(name):
        return sum(dur[i] - covered[i] for i in outermost(name))

    builds = list(outermost("frames.build"))
    return {
        "potentials.spec_s": total("potentials.spec"),
        "loops.mul_coeffs_s": total("loops.mul_coeffs"),
        "loops.mul_coeffs.calls": len(list(outermost("loops.mul_coeffs"))),
        "loops.mul_coeffs.pairs": total("loops.mul_coeffs", "pairs"),
        "loops.inverse_coeffs_s": total("loops.inverse_coeffs"),
        "loops.eval_coeffs_s": total("loops.eval_coeffs"),
        "frames.ladder_s": total("frames.ladder"),
        "frames.build_s": total("frames.build"),
        "frames.build.self_s": self_time("frames.build"),
        "frames.build.rss_rise_mb": sum(
            spans[i]["rss1_mb"] - spans[i]["rss0_mb"] for i in builds),
        "frames.field_mb": total("frames.build", "field_mb"),
        "frames.nodes": total("frames.build", "nodes"),
        "frames.degrees": max((spans[i]["degrees"] for i in builds),
                              default=0),
        "frames.connection_s": total("frames.connection"),
        "frames.zcc_s": total("frames.zcc"),
        "sym.immersion_s": total("sym.immersion"),
        "sym.calls": len(list(outermost("sym.immersion"))),
        "analysis.forms_s": total("analysis.forms"),
        "analysis.residuals_s": total("analysis.residuals"),
        "cli.write_s": total("cli.write"),
        "cli.bytes_written": total("cli.write", "bytes"),
        "cli.self_s": self_time("cli"),
    }


def traced_cli(argv):
    from psfront import cli
    tracer = Tracer()
    install(tracer)
    try:
        rc, _ = tracer.call("cli", cli.main, (argv,))
    finally:
        tracer.unwrap()
    conns = [s for s in tracer.spans if s["name"] == "frames.connection"]
    return {"rc": rc, "metrics": layer_metrics(tracer.spans),
            "shape_report": bool(conns) and all(s.get("shape_report")
                                                for s in conns),
            "spans": tracer.spans}


def _random_c0_pairs(rng):
    """(coordinate, value) corners of a piecewise-linear angle, zero at 0."""
    lo, hi = -4.0, 4.0                       # the default potential interval
    n = round((hi - lo) / C0_CORNER_STEP)
    xs = [lo + C0_CORNER_STEP * k for k in range(n + 1)]
    vals = [0.0]
    for _ in range(n):
        vals.append(vals[-1] + C0_CORNER_STEP
                    * rng.uniform(-C0_MAX_SLOPE, C0_MAX_SLOPE))
    k0 = xs.index(0.0)
    return [[x, v - vals[k0]] for x, v in zip(xs, vals)]


def c0_rejects(seed):
    """Shape-check rejections over seeded random C0 potentials."""
    import numpy as np
    import psfront as pf
    rng = random.Random(f"c0-{seed}")
    grid = np.linspace(-2.0, 2.0, C0_GRID)
    rejects, defects = 0, []
    for _ in range(C0_POTENTIALS):
        spec = pf.PotentialSpec.from_samples(_random_c0_pairs(rng),
                                             _random_c0_pairs(rng))
        up = pf.integrate_half_frame(spec, "x", grid, n_trunc=C0_TRUNC)
        um = pf.integrate_half_frame(spec, "y", grid, n_trunc=C0_TRUNC)
        field = pf.build_frame_field(up, um)
        try:
            pf.extract_connection(field)
        except pf.ConnectionShapeError as exc:
            rejects += 1
            defects.append(str(exc))
    return {"rejects": rejects, "attempted": C0_POTENTIALS,
            "defects": defects}


def main(argv):
    mode, out = argv[0], argv[1]
    if mode == "cli":
        result = traced_cli(argv[2:])
    elif mode == "c0":
        result = c0_rejects(int(argv[2]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
