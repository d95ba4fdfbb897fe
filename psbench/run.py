"""End-to-end benchmark of the psfront command line, with checked outputs.

Run from the repository root:

    python3 psbench/run.py --workload verify-ps129 --seed 1 --seconds 60 --trace 0

Both workloads are closed loop: one client runs one psfront command at a
time, each in a fresh child process (peak RSS is a per-process high-water
mark that never drops), with the BLAS pool pinned to min(2, nproc) threads.

  verify-ps129   psfront verify --preset pseudosphere --grid 129 --trunc 16
                 --lambda 0.5,1,2. The headline run: the frame build and the
                 connection extraction dominate it.
  sweep-kink129  psfront sweep --preset c0_kink --amplitude A --grid 129
                 --trunc 8 --lambda <65 values> --mesh. C0 data, one cheap
                 frame build at half the degree, then 65 Sym evaluations, form
                 defects and OBJ writes. The seed draws A from [0.25, 0.75]
                 and the lambda values log-uniformly from [0.5, 2].

--trace 0 repeats the command for --seconds and prints the end-to-end
metrics (medians over the runs): run_s, setup_s and peak_rss_mb in the JSON
result, failed_frac and (verify only) residual_ratio on lines of their own,
since the first is 0 on a healthy run and the second is defined on verify
alone. --trace 1 runs the command once untraced
and once traced (see traced.py), plus the random C0 robustness count, and
prints the per-layer metrics. Every run's outputs are checked; the last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics. The lines before it record the environment and every sample.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".psbench_out")

DEADLINE_S = 170.0          # children still running then are killed
SETUP_PER_COMMAND = 2
SETUP_MIN = 5
SWEEP_LAMBDAS = 65
MIN_REGULAR = 0.9           # share of sweep nodes off the cusp lines

# psfront verify's default tolerances, kept here so that a change which drops
# a check or loosens a bound fails the benchmark instead of speeding it up
TOLERANCES = {
    "K+1 residual": 1e-3,
    "first form E residual": 1e-8,
    "first form G residual": 1e-8,
    "first form F residual": 1e-6,
    "second form ell residual": 1e-5,
    "second form n residual": 1e-5,
    "second form m residual": 1e-5,
    "unitarity residual": 1e-8,
    "zero-curvature residual": 2e-3,
    "sine-Gordon residual": 2e-2,
    "harmonicity residual": 5e-3,
    "torsion deviation": 1e-2,
}
# sweep CSV column -> the verify check whose default tolerance bounds it
SWEEP_COLUMNS = {
    "E_defect": "first form E residual",
    "G_defect": "first form G residual",
    "F_defect": "first form F residual",
    "ell_max": "second form ell residual",
    "n_max": "second form n residual",
    "m_defect": "second form m residual",
    "K_defect": "K+1 residual",
}
SWEEP_HEADER = ["lambda", "E_defect", "G_defect", "F_defect", "ell_max",
                "n_max", "m_defect", "K_defect", "regular_nodes"]

SETUP_CODE = """\
import sys
import psfront
if not psfront.__file__.startswith(sys.argv[1]):
    sys.exit(f"psfront imported from {psfront.__file__}")
psfront.preset_by_name(sys.argv[2],
                       amplitude=float(sys.argv[3]) if sys.argv[3:] else None)
"""


class CheckError(Exception):
    """A command's outputs are missing or wrong."""


def _expect(cond, msg):
    if not cond:
        raise CheckError(msg)


# ---------------------------------------------------------------------------
# workloads

class Workload:
    def __init__(self, command, preset, amplitude, grid, trunc, lambdas,
                 check):
        self.preset = preset
        self.amplitude = amplitude
        self.grid = grid
        self.trunc = trunc
        self.lambdas = lambdas
        self.check = check
        self.argv = [command, "--preset", preset, "--grid", str(grid),
                     "--trunc", str(trunc),
                     "--lambda", ",".join(repr(l) for l in lambdas)]
        if amplitude is not None:
            self.argv += ["--amplitude", repr(amplitude)]

    @property
    def stem(self):
        return (self.preset if self.amplitude is None
                else f"{self.preset}{self.amplitude:g}")


def make_workload(name, seed):
    if name == "verify-ps129":
        return Workload("verify", "pseudosphere", None, 129, 16,
                        [0.5, 1.0, 2.0], check_verify)
    rng = random.Random(f"sweep-{seed}")
    amplitude = round(rng.uniform(0.25, 0.75), 4)
    # four decimals keep the OBJ names (lambda printed with %g) distinct
    lambdas = []
    while len(lambdas) < SWEEP_LAMBDAS:
        lam = round(math.exp(rng.uniform(math.log(0.5), math.log(2.0))), 4)
        if lam not in lambdas:
            lambdas.append(lam)
    wl = Workload("sweep", "c0_kink", amplitude, 129, 8, lambdas,
                  check_sweep)
    wl.argv.append("--mesh")
    return wl


WORKLOADS = ("verify-ps129", "sweep-kink129")


# ---------------------------------------------------------------------------
# output checks

def check_verify(out, wl):
    """Pass, exactly the named checks per lambda, default bounds, all met."""
    with open(os.path.join(out, f"verify_{wl.stem}_n{wl.grid}.json")) as fh:
        summary = json.load(fh)
    _expect(summary["pass"] is True, "verify summary does not pass")
    _expect(summary["grid"] == wl.grid and summary["trunc"] == wl.trunc,
            "verify summary has the wrong grid or truncation")
    keys = sorted(f"{lam:g}" for lam in wl.lambdas)
    _expect(sorted(summary["lambdas"]) == keys,
            f"verify summary lambdas {sorted(summary['lambdas'])} != {keys}")
    ratio = 0.0
    for key, entry in summary["lambdas"].items():
        checks = entry["checks"]
        _expect(sorted(checks) == sorted(TOLERANCES),
                f"lambda={key}: checks {sorted(checks)}")
        for name, c in checks.items():
            tol = TOLERANCES[name]
            _expect(c["tolerance"] == tol,
                    f"lambda={key}: tolerance of '{name}' is {c['tolerance']}")
            _expect(c["pass"] is True and c["residual"] < tol,
                    f"lambda={key}: '{name}' = {c['residual']} fails")
            ratio = max(ratio, c["residual"] / tol)
    return {"residual_ratio": ratio}


def _check_obj(path, grid):
    """grid^2 vertices of three finite numbers and (grid-1)^2 quads.

    Finiteness is read off the text, which is much faster than parsing 65
    meshes: %.17g writes a non-finite value as nan or inf, so a vertex line
    left as "v   " once digits, signs, '.' and 'e' are deleted, and holding
    no empty field, has three finite coordinates.
    """
    with open(path, "rb") as fh:
        text = fh.read()
    verts = text[:text.find(b"\nf ") + 1]
    n = grid * grid
    _expect(verts.translate(None, b"0123456789.+-e") == b"v   \n" * n
            and b"  " not in verts and b" \n" not in verts,
            f"{os.path.basename(path)}: expected {n} finite vertices")
    _expect(text.count(b"\nf ") == (grid - 1) ** 2,
            f"{os.path.basename(path)}: expected {(grid - 1) ** 2} faces")


def check_sweep(out, wl):
    """One CSV row per lambda, defects within verify's bounds, one OBJ each."""
    with open(os.path.join(out, f"sweep_{wl.stem}_n{wl.grid}.csv")) as fh:
        lines = fh.read().splitlines()
    _expect(lines[0].split(",") == SWEEP_HEADER, "sweep CSV header")
    rows = [dict(zip(SWEEP_HEADER, map(float, line.split(","))))
            for line in lines[1:]]
    _expect(len(rows) == len(wl.lambdas),
            f"sweep CSV has {len(rows)} rows for {len(wl.lambdas)} lambdas")
    for row, lam in zip(rows, wl.lambdas):
        _expect(row["lambda"] == lam, f"sweep row {row['lambda']} != {lam}")
        for col, check in SWEEP_COLUMNS.items():
            _expect(row[col] < TOLERANCES[check],
                    f"lambda={lam:g}: {col} = {row[col]} fails")
        # K_defect covers regular nodes only; off the cusp lines (about
        # 2-5 % of the grid) every node is regular
        _expect(row["regular_nodes"] >= MIN_REGULAR * wl.grid ** 2,
                f"lambda={lam:g}: {row['regular_nodes']:g} regular nodes")
    objs = sorted(f for f in os.listdir(out) if f.endswith(".obj"))
    expected = sorted(f"{wl.stem}_lam{lam:g}_n{wl.grid}.obj"
                      for lam in wl.lambdas)
    _expect(objs == expected, f"{len(objs)} OBJ files for "
                              f"{len(expected)} lambdas")
    for name in objs:
        _check_obj(os.path.join(out, name), wl.grid)
    return {}


# ---------------------------------------------------------------------------
# child processes

class Runner:
    """Starts each child with the pinned environment and waits for it."""

    def __init__(self, threads, workdir):
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=SRC,
                        PSFRONT_THREADS=str(threads))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            self.env[var] = str(threads)
        self.count = 0

    def run(self, argv, log):
        """Returns (exit code, wall seconds, rusage); kills at the deadline."""
        with open(log, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT,
                                    env=self.env, stdout=subprocess.DEVNULL,
                                    stderr=err)
        timer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage

    def fresh_dir(self):
        self.count += 1
        path = os.path.join(self.workdir, f"run{self.count}")
        os.makedirs(path)
        return path


def _stderr_tail(log):
    with open(log) as fh:
        lines = fh.read().strip().splitlines()
    return lines[-1] if lines else ""


def run_command(runner, wl, traced=False):
    """One command in a fresh process, its outputs checked; returns a record."""
    out = runner.fresh_dir()
    log = os.path.join(out, "stderr.txt")
    calib = calibrate()
    if traced:
        trace_out = os.path.join(out, "trace.json")
        argv = [os.path.join(HERE, "traced.py"), "cli", trace_out]
    else:
        argv = ["-m", "psfront.cli"]
    rc, wall, usage = runner.run(argv + wl.argv + ["--out", out], log)
    rec = {"run_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
           "peak_rss_mb": usage.ru_maxrss / 1024.0, "calib_s": calib,
           "rc": rc, "ok": False}
    try:
        _expect(rc == 0, f"exit code {rc}: {_stderr_tail(log)}")
        rec.update(wl.check(out, wl))
        if traced:
            with open(trace_out) as fh:
                trace = json.load(fh)
            _expect(trace["rc"] == 0, f"traced exit code {trace['rc']}")
            _expect(trace["shape_report"],
                    "extract_connection returned no shape report")
            rec["trace"] = trace["metrics"]
        rec["ok"] = True
    except (CheckError, OSError, ValueError, LookupError, TypeError) as exc:
        rec["error"] = f"{type(exc).__name__}: {exc}"
    shutil.rmtree(out)
    return rec


def measure_setup(runner, wl, reps):
    """Wall times of fresh processes that import psfront and build the spec."""
    argv = ["-c", SETUP_CODE, SRC, wl.preset]
    if wl.amplitude is not None:
        argv.append(repr(wl.amplitude))
    log = os.path.join(runner.workdir, "setup_stderr.txt")
    walls = []
    for _ in range(reps):
        rc, wall, _ = runner.run(argv, log)
        if rc != 0:
            raise RuntimeError(f"set-up process failed: {_stderr_tail(log)}")
        walls.append(wall)
    return walls


def run_c0(runner, seed):
    out = runner.fresh_dir()
    path = os.path.join(out, "c0.json")
    log = os.path.join(out, "stderr.txt")
    rc, _, _ = runner.run([os.path.join(HERE, "traced.py"), "c0", path,
                           str(seed)], log)
    result = None
    if rc == 0:
        with open(path) as fh:
            result = json.load(fh)
    else:
        print(f"c0 robustness run failed: {_stderr_tail(log)}",
              file=sys.stderr)
    shutil.rmtree(out)
    return result


# ---------------------------------------------------------------------------
# environment and calibration

def calibrate():
    """Wall time of a fixed batched 2x2 complex product, the build's kernel."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((16641, 2, 2)) * (1 + 1j)
    b = rng.standard_normal((16641, 2, 2)) * (1 - 1j)
    t0 = time.perf_counter()
    for _ in range(40):
        np.einsum("nab,nbc->nac", a, b)
    return time.perf_counter() - t0


def _git_hash():
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _src_digest():
    h = hashlib.sha256()
    for dirpath, dirnames, files in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(args, threads):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git": _git_hash(), "src_sha256": _src_digest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in
                     ("name", "version", "openblas configuration")},
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "PSFRONT_THREADS": threads}


# ---------------------------------------------------------------------------
# reporting

def high_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return 100.0 * (k + 1) / n, sorted(values)[k]


def timing_line(name, values, unit, what):
    med = statistics.median(values)
    hp = high_percentile(values)
    tail = (f"p{hp[0]:.0f} {hp[1]:.4f} {unit}" if hp else
            "no percentile has 10 samples beyond it")
    return (f"{name:<15} {med:.4f} {unit:<5} median of {len(values)} "
            f"{what}; {tail}")


def end_to_end(runner, wl, seconds):
    """Commands for `seconds`; set-up samples interleaved, outside that time.

    The machine's speed varies from one second to the next, so set-up
    samples spread over the run see the same conditions as the commands.
    """
    samples, setup = [], []
    elapsed = 0.0
    while True:
        setup += measure_setup(runner, wl, SETUP_PER_COMMAND)
        start = time.perf_counter()
        rec = run_command(runner, wl)
        elapsed += time.perf_counter() - start
        samples.append(rec)
        print("sample " + json.dumps(rec, sort_keys=True))
        if elapsed + rec["run_s"] > seconds or \
                time.monotonic() + 1.2 * rec["run_s"] > runner.deadline:
            break
    setup += measure_setup(runner, wl, max(0, SETUP_MIN - len(setup)))
    failed = sum(not r["ok"] for r in samples)
    runs = [r["run_s"] for r in samples]
    rss = [r["peak_rss_mb"] for r in samples]
    print("setup_samples " + json.dumps(setup))
    print(timing_line("run_s", runs, "s", "runs"))
    print(timing_line("setup_s", setup, "s", "fresh processes"))
    print(f"{'peak_rss_mb':<15} {statistics.median(rss):.1f} MB    "
          f"median of {len(rss)} runs")
    print(f"{'failed_frac':<15} {failed / len(samples):g} ratio "
          f"({failed} of {len(samples)} runs)")
    ratios = [r["residual_ratio"] for r in samples if "residual_ratio" in r]
    if ratios:
        print(f"{'residual_ratio':<15} {max(ratios):.6g} ratio largest "
              f"residual/tolerance over every check and lambda")
    metrics = {"run_s": (statistics.median(runs), "s"),
               "setup_s": (statistics.median(setup), "s"),
               "peak_rss_mb": (statistics.median(rss), "MB")}
    return len(samples), failed, metrics


PER_LAYER_UNITS = {"_s": "s", "_mb": "MB", "bytes_written": "bytes"}


def per_layer(runner, wl, seed):
    base = run_command(runner, wl)
    print("sample " + json.dumps(base, sort_keys=True))
    traced = run_command(runner, wl, traced=True)
    print("traced " + json.dumps(traced, sort_keys=True))
    c0 = run_c0(runner, seed)
    if c0:
        print("c0_random " + json.dumps(c0))
    failed = (not base["ok"]) + (not traced["ok"]) + (c0 is None)
    if failed:
        return 3, failed, {}
    values = dict(traced["trace"])
    values["cli.cpu_s"] = base["cpu_s"]
    values["trace.overhead_s"] = traced["run_s"] - base["run_s"]
    values["machine.calib_s"] = traced["calib_s"]
    values["frames.c0_random.rejects"] = c0["rejects"]
    values["frames.c0_random.attempted"] = c0["attempted"]
    metrics = {}
    for name, value in values.items():
        unit = next((u for suf, u in PER_LAYER_UNITS.items()
                     if name.endswith(suf)), "count")
        metrics[name] = (value, unit)
        print(f"{name:<28} {value:.6g} {unit}")
    print(f"frames.c0_random.rejects {c0['rejects']} of {c0['attempted']} "
          "random C0 potentials (recorded, not gated)")
    return 3, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "psfront", "cli.py")):
        print(f"psbench: no psfront sources under {SRC}", file=sys.stderr)
        return 2
    threads = max(1, min(2, len(os.sched_getaffinity(0))))
    print("env " + json.dumps(environment(args, threads), sort_keys=True))
    wl = make_workload(args.workload, args.seed)
    workdir = os.path.join(WORK, str(os.getpid()))
    os.makedirs(workdir)
    try:
        runner = Runner(threads, workdir)
        if args.trace:
            attempted, failed, metrics = per_layer(runner, wl, args.seed)
        else:
            attempted, failed, metrics = end_to_end(runner, wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass                    # another run still uses it
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
