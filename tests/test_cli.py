"""Command line driver, exercised in process through main(argv)."""

import collections
import decimal
import importlib.util
import json
import multiprocessing
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import psfront
import psfront.cli as cli
from psfront import _threads, analysis, frames, loops, sym


def read_lines(path):
    return path.read_text().splitlines()


def read_ply(path):
    """Vertices and faces of an ASCII PLY, counted by its element lines."""
    lines = read_lines(path)
    end = lines.index("end_header") + 1
    count = {l.split()[1]: int(l.split()[2]) for l in lines[:end]
             if l.startswith("element ")}
    verts = np.loadtxt(path, skiprows=end, max_rows=count["vertex"], ndmin=2)
    faces = np.loadtxt(path, dtype=int, skiprows=end + count["vertex"],
                       ndmin=2)
    assert faces.shape[0] == count["face"]
    assert (faces[:, 0] == 4).all()
    return verts, faces[:, 1:]


# -- generate ----------------------------------------------------------------

def test_generate_writes_quad_mesh_and_no_frame_cache(tmp_path, capsys):
    rc = cli.main(["generate", "--preset", "pseudosphere", "--grid", "33",
                   "--out", str(tmp_path)])
    assert rc == 0
    lines = read_lines(tmp_path / "pseudosphere_lam1_n33.obj")
    verts = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(verts) == 33 * 33
    assert len(faces) == 32 * 32
    assert faces[0] == "f 1 34 35 2"
    assert not list(tmp_path.glob("*.npz"))
    assert "wrote" in capsys.readouterr().out


def test_generate_warns_on_degenerate_image(tmp_path, capsys):
    rc = cli.main(["generate", "--preset", "vacuum", "--grid", "17",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert "not regular" in capsys.readouterr().err
    assert (tmp_path / "vacuum_lam1_n17.obj").exists()


def test_generate_one_mesh_per_lambda(tmp_path):
    rc = cli.main(["generate", "--preset", "c0_kink", "--amplitude", "0.5",
                   "--grid", "17", "--lambda", "0.5,1,2",
                   "--out", str(tmp_path)])
    assert rc == 0
    for tag in ("lam0.5", "lam1", "lam2"):
        assert (tmp_path / f"c0_kink0.5_{tag}_n17.obj").exists()


def test_generate_ply_format(tmp_path):
    rc = cli.main(["generate", "--preset", "pseudosphere", "--grid", "17",
                   "--format", "ply", "--out", str(tmp_path)])
    assert rc == 0
    verts, faces = read_ply(tmp_path / "pseudosphere_lam1_n17.ply")
    assert verts.shape == (289, 3)
    assert len(faces) == 256
    assert faces[0].tolist() == [0, 17, 18, 1]


# -- verify ------------------------------------------------------------------

def test_verify_default_run_passes(tmp_path, capsys):
    rc = cli.main(["verify", "--preset", "pseudosphere",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert "all checks passed" in capsys.readouterr().out
    summary = json.loads((tmp_path / "verify_pseudosphere_n129.json")
                         .read_text())
    assert summary["pass"] is True
    checks = summary["lambdas"]["1"]["checks"]
    assert len(checks) == 12
    assert all(entry["pass"] for entry in checks.values())


def test_verify_fails_with_tight_tolerance(tmp_path, capsys):
    rc = cli.main(["verify", "--preset", "pseudosphere", "--grid", "65",
                   "--tol", "1e-15", "--out", str(tmp_path)])
    assert rc == 1
    assert "FAIL: K+1 residual" in capsys.readouterr().err
    summary = json.loads((tmp_path / "verify_pseudosphere_n65.json")
                         .read_text())
    assert summary["pass"] is False


def test_verify_degenerate_image_passes_with_zero_regular_nodes(tmp_path):
    rc = cli.main(["verify", "--preset", "vacuum", "--grid", "17",
                   "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "verify_vacuum_n17.json").read_text())
    assert summary["lambdas"]["1"]["regular nodes"] == 0


def test_verify_first_form_residuals_are_relative(tmp_path):
    # E = lam^2 and G = lam^-2 are checked as E / lam^2 - 1 and G lam^2 - 1;
    # E - lam^2 read 1.04e-7 on rounding alone at lam = 1e4
    rc = cli.main(["verify", "--preset", "pseudosphere", "--grid", "65",
                   "--lambda", "1e4", "--out", str(tmp_path)])
    assert rc == 1                            # the frame is not unitary there
    summary = json.loads((tmp_path / "verify_pseudosphere_n65.json")
                         .read_text())
    checks = summary["lambdas"]["10000"]["checks"]
    for name in ("first form E residual", "first form G residual"):
        assert checks[name]["pass"] and checks[name]["residual"] <= 1e-14
    assert not checks[analysis.UNITARITY_CHECK]["pass"]


# -- the table of checked residuals ------------------------------------------

CHECK_NAMES = [name for name, _, _ in analysis.CHECKS]


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_each_check_gates_verify_under_its_own_name(tmp_path, capsys, name):
    rc = cli.main(["verify", "--preset", "pseudosphere", "--grid", "33",
                   "--tol", "1e300", "--tol", f"{name}=1e-300",
                   "--out", str(tmp_path)])
    assert rc == 1
    assert f"FAIL: {name} = " in capsys.readouterr().err
    summary = json.loads((tmp_path / "verify_pseudosphere_n33.json")
                         .read_text())
    checks = summary["lambdas"]["1"]["checks"]
    assert list(checks) == sorted(CHECK_NAMES)
    assert [k for k, c in checks.items() if not c["pass"]] == [name]


@pytest.fixture(scope="module")
def verify_and_sweep(tmp_path_factory):
    """verify and sweep of one configuration; (JSON summary, CSV lines)."""
    out = tmp_path_factory.mktemp("table")
    argv = ["--preset", "c0_kink", "--amplitude", "0.5", "--grid", "33",
            "--lambda", "0.5,1,2", "--out", str(out)]
    assert cli.main(["verify"] + argv) in (0, 1)
    assert cli.main(["sweep"] + argv) == 0
    summary = json.loads((out / "verify_c0_kink0.5_n33.json").read_text())
    return summary, read_lines(out / "sweep_c0_kink0.5_n33.csv")


def test_sweep_columns_are_verify_residuals(verify_and_sweep):
    summary, lines = verify_and_sweep
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, map(float, line.split(","))))
        checks = summary["lambdas"][f"{row['lambda']:g}"]["checks"]
        for column, name in cli.SWEEP_COLUMNS.items():
            assert row[column] == checks[name]["residual"], (column, row)
    assert len(lines) == 4


def test_traced_verify_computes_each_field_once_per_lambda(tmp_path, ps_run,
                                                           monkeypatch):
    # the benchmark's verify-ps129 run, traced: it must pass (coarser grids
    # fail the zero-curvature bound) and size the field ps_run holds
    traced = load_psbench(monkeypatch, "traced")
    result = traced.traced_cli(["verify", "--preset", "pseudosphere",
                                "--grid", "129", "--lambda", "0.5,1,2",
                                "--out", str(tmp_path)])
    assert result["rc"] == 0
    names = collections.Counter(s["name"] for s in result["spans"])
    assert (names["analysis.forms"], names["analysis.residuals"],
            names["frames.zcc"]) == (3, 9, 1)
    field = ps_run.field
    assert result["metrics"]["frames.field_mb"] == (
        field.Uhat.nbytes + field.Lp.nbytes + field.Lm.nbytes) / 2 ** 20


def test_checks_match_the_benchmark_pins(verify_and_sweep, monkeypatch):
    # psbench/run.py keeps its own copy of the bounds and the sweep columns
    bench = load_psbench(monkeypatch, "run")
    assert [(name, tol) for name, tol, _ in analysis.CHECKS] == \
        list(bench.TOLERANCES.items())
    assert list(cli.SWEEP_COLUMNS.items()) == list(bench.SWEEP_COLUMNS.items())
    assert verify_and_sweep[1][0].split(",") == bench.SWEEP_HEADER


# -- generate's CSV report, curves and glyphs --------------------------------

def test_export_csv_is_deterministic(tmp_path):
    for sub in ("a", "b"):
        rc = cli.main(["generate", "--preset", "pseudosphere", "--grid", "33",
                       "--format", "csv", "--out", str(tmp_path / sub)])
        assert rc == 0
    fa = (tmp_path / "a" / "pseudosphere_lam1_n33.csv").read_bytes()
    fb = (tmp_path / "b" / "pseudosphere_lam1_n33.csv").read_bytes()
    assert fa == fb
    lines = fa.decode().splitlines()
    assert lines[0] == "x,y,fx,fy,fz,Nx,Ny,Nz,E,F,G,K,omega"
    assert len(lines) == 33 * 33 + 1


def test_export_frame_glyphs_are_orthonormal(tmp_path):
    rc = cli.main(["generate", "--preset", "pseudosphere", "--grid", "33",
                   "--glyphs", "--out", str(tmp_path)])
    assert rc == 0
    data = np.loadtxt(tmp_path / "pseudosphere_lam1_n33_glyphs.csv",
                      delimiter=",", skiprows=1)
    assert data.shape == (33, 13)
    triple = data[:, 4:13].reshape(33, 3, 3)
    gram = np.einsum("nik,njk->nij", triple, triple)
    assert np.abs(gram - np.eye(3)).max() < 1e-8


def glyph_peak(n):
    """Traced peak bytes of cli._glyph_columns on the n x n closed-form
    pseudosphere, whose fields the caller holds."""
    x = np.linspace(-2.0, 2.0, n)
    f, N, omega = psfront.pseudosphere_closed_form(x, x)
    fx, fy = psfront.pseudosphere_tangents(x, x)
    S = psfront.SurfaceGrid(x, x, 1.0, f, N, fx=fx, fy=fy)
    tracemalloc.start()
    try:
        cli._glyph_columns(S, omega)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_glyph_memory_does_not_grow_with_the_grid():
    # the frame is built on the written row alone
    assert glyph_peak(513) <= glyph_peak(129) + 2 ** 20


def test_export_coordinate_curves(tmp_path):
    # rows and columns 0, 8, 16 at stride 8; 0 and 16 at the default 16
    for stride, count in ((["8"], 6), ([], 4)):
        out = tmp_path / f"n{count}"
        rc = cli.main(["generate", "--preset", "pseudosphere", "--grid", "17",
                       "--curves", *stride, "--out", str(out)])
        assert rc == 0
        lines = read_lines(out / "pseudosphere_lam1_n17_curves.obj")
        polys = [l for l in lines if l.startswith("l ")]
        assert len(polys) == count
        assert all(len(p.split()) == 18 for p in polys)


def test_export_has_no_stride_flag(tmp_path, capsys):
    # the stride is --curves' own value, so it cannot be given without it
    with pytest.raises(SystemExit) as exc:
        cli.main(["generate", "--preset", "pseudosphere", "--grid", "17",
                  "--stride", "4", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --stride 4" in capsys.readouterr().err


def test_ply_writer_round_trip(tmp_path):
    f = awkward_mesh(4, 3)              # nan, inf, -0.0, 1e300, subnormal
    path = tmp_path / "mesh.ply"
    cli.write_ply(path, f)
    verts, faces = read_ply(path)
    np.testing.assert_array_equal(verts, f.reshape(-1, 3))
    assert np.array_equal(np.signbit(verts), np.signbit(f.reshape(-1, 3)))
    assert len(faces) == 6
    assert faces[0].tolist() == [0, 3, 4, 1]


def test_export_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["export", "--preset", "pseudosphere", "--grid", "17"])
    assert exc.value.code == 2
    assert "invalid choice: 'export'" in capsys.readouterr().err


# -- writers against a per-line reference ----------------------------------

def ref_vertices(f, prefix):
    return "".join(prefix + " ".join("%.17g" % v for v in f[i, j]) + "\n"
                   for i in range(f.shape[0]) for j in range(f.shape[1]))


def ref_faces(nx, ny, prefix, base):
    return "".join(f"{prefix}{a} {a + ny} {a + ny + 1} {a + 1}\n"
                   for i in range(nx - 1) for j in range(ny - 1)
                   for a in [i * ny + j + base])


def ref_obj(f, curves_stride=None):
    nx, ny = f.shape[:2]
    text = ref_vertices(f, "v ")
    if curves_stride is None:
        return text + ref_faces(nx, ny, "f ", 1)
    for i in range(0, nx, curves_stride):
        text += "l " + " ".join(str(i * ny + j + 1) for j in range(ny)) + "\n"
    for j in range(0, ny, curves_stride):
        text += "l " + " ".join(str(i * ny + j + 1) for i in range(nx)) + "\n"
    return text


def ref_ply(f):
    nx, ny = f.shape[:2]
    return ("ply\nformat ascii 1.0\n"
            f"element vertex {nx * ny}\n"
            "property double x\nproperty double y\nproperty double z\n"
            f"element face {(nx - 1) * (ny - 1)}\n"
            "property list uchar int vertex_indices\nend_header\n"
            + ref_vertices(f, "") + ref_faces(nx, ny, "4 ", 0))


def awkward_mesh(nx, ny):
    rng = np.random.default_rng(nx * 100 + ny)
    scale = 10.0 ** rng.integers(-20, 20, (nx, ny, 3))
    f = rng.normal(size=(nx, ny, 3)) * scale
    f.flat[:7] = [np.nan, np.inf, -np.inf, -0.0, 1e300, -1e-300, 5e-324]
    return f


@pytest.mark.parametrize("nx, ny", [(7, 5), (5, 7), (2, 2), (1, 4)])
def test_writers_match_per_line_reference(tmp_path, nx, ny):
    f = awkward_mesh(nx, ny)
    for _ in range(2):                  # the face block is cached per shape
        cli.write_obj(tmp_path / "m.obj", f)
        assert (tmp_path / "m.obj").read_bytes() == ref_obj(f).encode()
    for stride in (1, 2, 3):
        cli.write_obj(tmp_path / "c.obj", f, curves_stride=stride)
        assert (tmp_path / "c.obj").read_bytes() == ref_obj(f, stride).encode()
    cli.write_ply(tmp_path / "m.ply", f)
    assert (tmp_path / "m.ply").read_bytes() == ref_ply(f).encode()
    cols = [f[..., k].ravel() for k in range(3)] + [np.arange(nx * ny)]
    cli.write_csv(tmp_path / "m.csv", ["a", "b", "c", "k"], cols)
    want = "a,b,c,k\n" + "".join(",".join("%.17g" % v for v in row) + "\n"
                                 for row in zip(*cols))
    assert (tmp_path / "m.csv").read_bytes() == want.encode()


# -- the FMT kernel against "%.17g" ------------------------------------------

def assert_formats_like_fmt(values):
    """Each value, one per line, as the kernel writes it and as "%.17g"."""
    flat = np.asarray(values, float).ravel()
    for block in np.array_split(flat, -(-flat.size // 2 ** 16)):
        got = cli._format_rows(block[:, None])
        want = b"".join(b"%.17g\n" % v for v in block.tolist())
        if got != want:
            bad = [(v, g, w) for v, g, w in zip(
                block.tolist(), got.splitlines(), want.splitlines()) if g != w]
            pytest.fail(f"{len(bad)} fields differ from %.17g: {bad[:3]}")


@given(st.lists(st.floats(), min_size=1, max_size=6))
def test_kernel_matches_fmt_on_any_float(values):
    # st.floats() draws NaN, both infinities, both zeros and subnormals
    want = b"v " + b" ".join(b"%.17g" % v for v in values) + b"\n"
    assert cli._format_rows(np.array([values]), b"v ", b" ") == want


def test_kernel_matches_fmt_on_random_bit_patterns():
    # half of the patterns are raw 64-bit words (NaN payloads, subnormals,
    # the scientific range); the other half keep their sign and mantissa
    # bits under an exponent from 2^-20 to 2^60, across both ends of the
    # fixed range 1e-4 <= |v| < 1e16
    rng = np.random.default_rng(26)
    bits = rng.integers(0, 2 ** 64, 2 ** 20, np.uint64)
    exponent = rng.integers(1023 - 20, 1023 + 60, 2 ** 19).astype(np.uint64)
    bits[::2] = (bits[::2] & ~np.uint64(0x7FF << 52)
                 | exponent << np.uint64(52))
    values = bits.view(np.float64)
    assert np.signbit(values).mean() == pytest.approx(0.5, abs=0.01)
    assert_formats_like_fmt(values)


def test_kernel_matches_fmt_at_powers_of_ten():
    # 1e-4 and 1e16 bound the fixed range; each power and the doubles next
    # to it, with both signs
    powers = np.array([float(f"1e{k}") for k in range(-6, 19)])
    near = np.concatenate([powers, np.nextafter(powers, 0),
                           np.nextafter(powers, np.inf)])
    assert_formats_like_fmt(np.concatenate([near, -near]))


def test_kernel_rounds_halfway_cases_to_even():
    # v = m 2^-j with m odd and 10^(17-j) <= v < 10^(18-j) has 18
    # significant digits, the last a 5: its 17-digit rounding is a tie
    rng = np.random.default_rng(27)
    values = []
    for j in range(2, 22):
        lo = -(-10 ** 17 * 2 ** j // 10 ** j)
        hi = min(10 ** 18 * 2 ** j // 10 ** j, 2 ** 53)
        m = rng.integers(lo, hi, 5000) | 1
        v = np.ldexp(m.astype(float), -j)
        digits = decimal.Decimal(v[0]).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
        values += [v, -v]
    assert_formats_like_fmt(values)


@pytest.mark.parametrize("prefix, sep", [(b"v ", b" "), (b"", b",")])
def test_kernel_row_mixes_fixed_and_fmt_fields(prefix, sep):
    row = [1.5, np.nan, -0.0, 1e-300, 123456789.125, -np.inf, 1e16,
           9.999e-5, 0.0, -2.5e-4, 5e-324, 0.1]
    want = prefix + sep.join(b"%.17g" % v for v in row) + b"\n"
    assert cli._format_rows(np.array([row, row[::-1]]), prefix, sep) == (
        want + prefix + sep.join(b"%.17g" % v for v in row[::-1]) + b"\n")


def writer_peaks(tmp_path, n):
    """Traced peak bytes of write_obj and write_csv on an n x n mesh and its
    three coordinate columns, which the caller holds."""
    f = np.random.default_rng(n).normal(size=(n, n, 3))
    cols = [f[..., k].ravel() for k in range(3)]
    cli.write_obj(tmp_path / "m.obj", f)    # the face block is cached per shape
    peaks = []
    for write in (lambda: cli.write_obj(tmp_path / "m.obj", f),
                  lambda: cli.write_csv(tmp_path / "m.csv", "xyz", cols)):
        tracemalloc.start()
        try:
            write()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return np.array(peaks)


def test_face_cache_holds_one_grid_shape(tmp_path):
    # a run writes one grid shape; a second shape replaces the first's faces
    rng = np.random.default_rng(3)
    meshes = {n: rng.normal(size=(n, n + 1, 3)) for n in (5, 9)}
    written = []
    for n in (5, 9, 5):
        cli.write_obj(tmp_path / "m.obj", meshes[n])
        cli.write_ply(tmp_path / "m.ply", meshes[n])
        assert cli._quad_faces.cache_info().currsize == 1
        written.append([(tmp_path / f"m.{ext}").read_bytes()
                        for ext in ("obj", "ply")])
    assert written[0] == written[2]
    faces = [l for l in written[1][0].decode().splitlines()
             if l.startswith("f ")]
    assert len(faces) == 8 * 9 and faces[0] == "f 1 11 12 2"


def test_writer_memory_does_not_grow_with_the_grid(tmp_path):
    # the rows are formatted one block of about 1024 lines at a time
    assert (writer_peaks(tmp_path, 513)
            <= writer_peaks(tmp_path, 129) + 2 ** 20).all()


# -- sweep and oracle --------------------------------------------------------

def test_sweep_builds_frame_once(tmp_path, monkeypatch):
    calls = []
    orig = cli._build_state

    def counting(cfg):
        calls.append(cfg.name)
        return orig(cfg)

    monkeypatch.setattr(cli, "_build_state", counting)
    rc = cli.main(["sweep", "--preset", "pseudosphere", "--grid", "33",
                   "--lambda", "0.5,1,2", "--out", str(tmp_path)])
    assert rc == 0
    assert calls == ["pseudosphere"]
    rows = np.loadtxt(tmp_path / "sweep_pseudosphere_n33.csv",
                      delimiter=",", skiprows=1)
    assert rows.shape == (3, 9)
    assert np.array_equal(rows[:, 0], [0.5, 1.0, 2.0])


@pytest.mark.parametrize("trunc, warned", [(4, True), (16, False)])
def test_sweep_warns_on_a_non_unitary_frame(tmp_path, capsys, trunc, warned):
    rc = cli.main(["sweep", "--preset", "pseudosphere", "--grid", "33",
                   "--trunc", str(trunc), "--lambda", "0.5,1,2",
                   "--out", str(tmp_path)])
    assert rc == 0
    err = capsys.readouterr().err
    assert ("warning: frame at lambda=0.5 is not unitary (residual "
            in err) is warned
    assert ("not unitary" in err) is warned
    header = (tmp_path / "sweep_pseudosphere_n33.csv").read_text().split("\n")[0]
    assert header == ("lambda,E_defect,G_defect,F_defect,ell_max,n_max,"
                      "m_defect,K_defect,regular_nodes")


def test_oracle_sg_reports_and_writes_csv(tmp_path, capsys):
    rc = cli.main(["oracle-sg", "--preset", "pseudosphere", "--grid", "33",
                   "--out-csv", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].startswith("wrote ")
    report = json.loads("\n".join(out[:-1]))
    assert report["preset"] == "pseudosphere"
    assert report["grid"] == 33
    assert report["final delta"] < 1e-12
    assert report["iterations"] <= 20
    assert report["contraction"] == pytest.approx(0.25 * 0.125 ** 2)
    lines = read_lines(tmp_path / "goursat_pseudosphere_n33.csv")
    assert lines[0] == "x,y,phi"
    assert len(lines) == 33 * 33 + 1


# -- configuration -----------------------------------------------------------

@pytest.mark.parametrize("argv,needle", [
    (["generate", "--preset", "pseudosphere", "--grid", "2"],
     "at least 3 nodes"),
    (["generate", "--preset", "pseudosphere", "--lambda=-1"],
     "must be positive"),
    (["generate", "--preset", "pseudosphere", "--trunc", "0"],
     "truncation degree"),
    (["generate", "--preset", "c0_kink", "--grid", "17"],
     "requires --amplitude"),
    (["verify", "--preset", "pseudosphere", "--grid", "9",
      "--tol", "bogus=1"], "unknown tolerance name"),
    (["oracle-sg", "--preset", "pseudosphere", "--grid", "64"],
     "x has no node at 0"),
    (["sweep", "--preset", "vacuum", "--grid", "9", "--mesh",
      "--lambda", "1.00001,1.000012"],
     "lambda values 1.00001 and 1.000012 share the file label '1.00001'"),
    (["verify", "--preset", "pseudosphere", "--grid", "9", "--lambda", "inf"],
     "must be positive and finite, got inf"),
    (["verify", "--preset", "pseudosphere", "--grid", "9", "--trunc", "65"],
     "truncation degree 65 exceeds maximum degree 64"),
    (["verify", "--config", {"interval": [-2, "inf"], "grid": 9}],
     "interval must be finite, got [-2.0, inf]"),
    (["generate", "--preset", "pseudosphere", "--grid", "17", "--curves",
      "-3"], "--curves must be at least 1, got -3"),
    (["generate", "--preset", "pseudosphere", "--grid", "17", "--curves",
      "0"], "--curves must be at least 1, got 0"),
    (["verify", "--config", {"grid": 17.9, "trunc": 8.5}],
     "grid must be an integer, got 17.9"),
    (["verify", "--config", {"grid": 9, "trunc": 8.5}],
     "trunc must be an integer, got 8.5"),
    (["verify", "--config", {"grid": float("inf")}],
     "grid must be an integer, got inf"),
    (["verify", "--preset", "pseudosphere", "--grid", "9", "--lambda", ""],
     "at least one lambda value is required"),
    (["verify", "--preset", "c0_kink", "--amplitude", "inf", "--grid", "9"],
     "amplitude must be finite, got inf"),
    (["verify", "--config", {"preset": "c0_kink", "amplitude": float("nan"),
                             "grid": 9}], "amplitude must be finite, got nan"),
])
def test_bad_configuration_exits_2(tmp_path, capsys, argv, needle):
    # a dict stands for a --config file holding it
    config = tmp_path / "run.json"
    for k, arg in enumerate(argv):
        if isinstance(arg, dict):
            config.write_text(json.dumps(arg))
            argv = argv[:k] + [str(config)] + argv[k + 1:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(argv + ["--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "psfront: error" in err
    assert needle in err


# |a|^2 reaches degree +-2 n_trunc = +-32: lambda = 1e9 still evaluates
@pytest.mark.parametrize("lam,degree", [
    ("1e300", 32), ("1e-300", -32), ("1e15", 32), ("1e19", 32),
    ("1e-19", -32)])
def test_overflowing_lambda_exits_2(tmp_path, capsys, lam, degree):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["verify", "--preset", "pseudosphere", "--grid", "9",
                       "--lambda", lam, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"lambda={float(lam):g} overflows" in err
    assert f"lambda^{degree} is out of float range" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_largest_lambda_inside_the_window_evaluates(tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["verify", "--preset", "pseudosphere", "--grid", "9",
                       "--lambda", "1e9", "--out", str(tmp_path)])
    assert rc in (0, 1)
    assert (tmp_path / "verify_pseudosphere_n9.json").is_file()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("flag, value", [("--lambda", "3"), ("--trunc", "4"),
                                         ("--sg-tol", "1e-12"),
                                         ("--max-iter", "60")])
def test_oracle_rejects_the_frame_flags(tmp_path, capsys, flag, value):
    # the direct solver builds no frame, so it has no flag to read the
    # frame's flags, and its march has no tolerance or sweep cap to set
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle-sg", "--preset", "pseudosphere", "--grid", "17",
                  flag, value, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_unknown_preset_in_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"preset": "nope", "grid": 9}))
    rc = cli.main(["generate", "--config", str(cfg),
                   "--out", str(tmp_path)])
    assert rc == 2
    assert "unknown preset" in capsys.readouterr().err


@pytest.mark.parametrize("config,needle", [
    ([{"preset": "vacuum"}], "must hold a JSON object, got list"),
    ({"lambdas": 1.0}, "lambdas must be a list of numbers, got 1.0"),
    ({"interval": 3}, "interval must be a list of numbers, got 3"),
    ({"tolerances": [1]}, "tolerances must map names to numbers, got [1]"),
    ({"potential": {"alpha": 3, "beta": 3}},
     "potential 'alpha' must be an object with 'preset' or 'samples', got 3"),
    ({"grid": "x"}, "grid must be a number, got 'x'"),
    ({"out": 3}, "out must be a string, got 3"),
    ({"interval": [1, 2, 3]}, "interval must hold two numbers, got 3"),
    ({"interval": [2, -2]}, "domain interval must have positive length"),
    ({"lambdas": []}, "at least one lambda value is required"),
    ({"tolerances": {"K+1 residual": 0}}, "must be positive, got 0"),
])
def test_malformed_config_file_exits_2(tmp_path, capsys, config, needle):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    argv = ["verify", "--config", str(cfg)]
    # no flag overrides the key under test
    if "grid" not in config:
        argv += ["--grid", "9"]
    if "out" not in config:
        argv += ["--out", str(tmp_path)]
    rc = cli.main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("psfront: error: ")
    assert needle in err


def kink(amplitude):
    return {"preset": "c0_kink", "amplitude": amplitude}


VACUUM = {"preset": "vacuum"}


# each input reads what it says (side, point, value), or exits 2 naming the
# key no path reads or the key whose value has the wrong type
@pytest.mark.parametrize("config,flags,expect", [
    ({"potential": {"alpha": kink(0.5), "beta": kink(0.75)}}, [],
     ("beta", 1.0, 0.75)),
    ({"potential": {"alpha": VACUUM,
                    "beta": {"samples": [[-4, 0], [0, 0], [0.5, 1], [4, 1]]}}},
     [], ("beta", 0.25, 0.5)),
    ({"potential": {"alpha": {"preset": "c0_kink", "amplitud": 0.5},
                    "beta": kink(0.5)}}, [],
     "potential 'alpha' (preset 'c0_kink'): unknown key 'amplitud'"),
    ({"potential": {"alpha": {"preset": "vacuum", "samples": [[0, 1]]},
                    "beta": VACUUM}}, [],
     "potential 'alpha' (preset 'vacuum'): unknown key 'samples'"),
    ({}, ["--preset", "pseudosphere", "--amplitude", "0.5"],
     "(preset 'pseudosphere'): unknown key 'amplitude'"),
    ({"potential": {"alpha": VACUUM, "beta": VACUUM}, "step": 0.001953125},
     [], "step is not read next to a potential"),
    ({"potential": {"alpha": VACUUM, "beta": {"samples": [[4, 1], [-4, 0]]}}},
     [], ("beta", 0.0, 0.5)),
    ({"preset": "vacuum", "grid": 9, "trunk": 4, "lambda": [2.0]}, [],
     "unknown config key 'lambda', 'trunk'; accepted: preset, amplitude"),
    ({"preset": "c0_kink", "amplitude": 0.5, "potential": {}}, [],
     "preset is not read next to a potential"),
    ({"potential": {"alpha": kink([1]), "beta": VACUUM}}, [],
     "potential 'alpha' amplitude must be a number, got [1]"),
    ({"potential": {"alpha": VACUUM, "beta": {"preset": ["x"]}}}, [],
     "potential 'beta' preset must be a string, got ['x']"),
    ({"potential": {"alpha": VACUUM, "beta": VACUUM, "interval": 3}}, [],
     "potential interval must be a list of two numbers, got 3"),
    ({"potential": {"alpha": VACUUM, "beta": VACUUM, "step": [1]}}, [],
     "potential step must be a number, got [1]"),
    ({"potential": {"alpha": VACUUM, "beta": {"samples": {"0": 1}}}}, [],
     "potential 'beta' samples must be a list of [coordinate, value] pairs"),
    # samples are read piecewise linearly, and no key chooses another rule
    ({"potential": {"alpha": VACUUM, "beta": VACUUM,
                    "interpolation": "piecewise-linear"}}, [],
     "potential: unknown key 'interpolation'"),
    ({"potential": {"alpha": VACUUM, "beta": VACUUM, "step": 0}}, [],
     "potential step must be positive and finite, got 0.0"),
    ({"preset": "vacuum", "step": 0}, [],
     "potential step must be positive and finite, got 0.0"),
    ({"potential": {"alpha": VACUUM, "beta": VACUUM, "step": -0.25}}, [],
     "potential step must be positive and finite, got -0.25"),
    ({"potential": {"alpha": VACUUM, "beta": VACUUM, "step": "nan"}}, [],
     "potential step must be positive and finite, got nan"),
    ({"potential": {"alpha": VACUUM, "beta": VACUUM,
                    "interval": [-4, "inf"]}}, [],
     "potential interval [-4.0, inf] spans a non-finite number of steps"),
    ({"potential": {"alpha": VACUUM, "beta": VACUUM,
                    "interval": [-1e308, 1e308]}}, [],
     "potential interval [-1e+308, 1e+308] spans a non-finite number of "
     "steps"),
])
def test_config_reads_every_key_or_exits_2(tmp_path, capsys, config, flags,
                                           expect):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    argv = ["verify", "--config", str(path), "--grid", "9",
            "--out", str(tmp_path)] + flags
    if isinstance(expect, str):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("psfront: error: ") and expect in err
    else:
        side, point, value = expect
        cfg = cli.RunConfig.from_args(cli.build_parser().parse_args(argv))
        assert getattr(cfg.potential_spec(), side)(point) == value


def readme_config():
    """The JSON block of the README's "Run configuration" section."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("## Run configuration", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


def test_readme_config_runs_as_written(tmp_path):
    config = readme_config()
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    argv = ["verify", "--config", str(path), "--grid", "17",
            "--out", str(tmp_path)]
    assert cli.main(argv) in (0, 1)
    spec = cli.RunConfig.from_args(
        cli.build_parser().parse_args(argv)).potential_spec()
    sides = config["potential"]
    assert spec.alpha(1.0) == sides["alpha"]["amplitude"]
    assert spec.beta(1.0) == sides["beta"]["amplitude"]


def test_readme_commands_parse():
    # parsed only, never run: the README names no subcommand or flag that
    # the parser has not got
    text = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = text.split("```")[1::2]
    lines = [l.strip() for b in blocks for l in b.splitlines()
             if l.strip().startswith("psfront ")]
    assert len(lines) >= 6
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_top_level_step_sets_the_preset_lattice(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"preset": "c0_kink", "amplitude": 0.5,
                               "step": 0.001953125}))
    run = cli.RunConfig.from_args(
        cli.build_parser().parse_args(["verify", "--config", str(cfg)]))
    assert run.potential_spec().step == 1 / 512


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"preset": "vacuum", "grid": 9,
                               "lambdas": [1.0], "out": str(tmp_path)}))
    assert cli.main(["generate", "--config", str(cfg)]) == 0
    assert (tmp_path / "vacuum_lam1_n9.obj").exists()
    assert cli.main(["generate", "--config", str(cfg), "--grid", "17"]) == 0
    assert (tmp_path / "vacuum_lam1_n17.obj").exists()


def test_empty_config_file_keeps_every_default(tmp_path):
    cfg = tmp_path / "empty.json"
    cfg.write_text("{}")
    parser = cli.build_parser()
    with_file = cli.RunConfig.from_args(
        parser.parse_args(["verify", "--config", str(cfg)]))
    without = cli.RunConfig.from_args(parser.parse_args(["verify"]))
    assert vars(with_file) == vars(without)


def test_out_path_under_a_regular_file_exits_2(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "sub"
    rc = cli.main(["verify", "--preset", "vacuum", "--grid", "9",
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("psfront: error: ")
    assert str(out) in err


# -- the per-lambda workers --------------------------------------------------

@pytest.mark.parametrize("command, fmt", [
    ("sweep", "obj"), ("generate", "obj"), ("generate", "ply"),
    ("generate", "csv")])
def test_pool_writes_the_bytes_of_serial_writers(tmp_path, capsys, command,
                                                 fmt):
    lams = [2.0, 0.5, 1.5, 0.75, 1.0, 1.25]       # not sorted: order is kept
    argv = [command, "--preset", "pseudosphere", "--grid", "17"]
    argv += ["--mesh"] if command == "sweep" else ["--format", fmt]
    suffixes = ["." + fmt]
    if fmt == "csv":
        argv += ["--curves", "--glyphs"]
        suffixes += ["_curves.obj", "_glyphs.csv"]
    pooled, serial = tmp_path / "pooled", tmp_path / "serial"
    assert cli.main(argv + ["--lambda", ",".join(map(repr, lams)),
                            "--out", str(pooled)]) == 0
    names = [f"pseudosphere_lam{lam:g}_n17{sfx}"
             for lam in lams for sfx in suffixes]
    wrote = [f"wrote {pooled / name}" for name in names]
    if command == "sweep":
        wrote.append(f"wrote {pooled / 'sweep_pseudosphere_n17.csv'}")
    assert capsys.readouterr().out.splitlines() == wrote
    assert multiprocessing.active_children() == []
    for lam in lams:                # one lambda is written in process
        assert cli.main(argv + ["--lambda", repr(lam),
                                "--out", str(serial)]) == 0
    for name in names:
        assert (pooled / name).read_bytes() == (serial / name).read_bytes()
    if fmt == "csv":
        return
    field, conn = cli._build_state(cli.RunConfig(grid=17, lambdas=lams))
    ref = tmp_path / "ref"          # a mesh is its writer's output
    for lam, name in zip(lams, names):
        S = sym.sym_immersion(field, lam, conn)
        getattr(cli, "write_" + fmt)(ref, S.f)
        assert (pooled / name).read_bytes() == ref.read_bytes()


def test_pool_bounds_the_meshes_in_flight(tmp_path, capsys):
    # at most two workers, each running one task at a time, and none of the
    # tasks in the main process; the rows and lines come back in order
    f = awkward_mesh(5, 4)
    log = tmp_path / "pids"

    def task(k):
        path = tmp_path / f"m{k}.obj"
        cli.write_obj(path, f)
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return None, [path], k

    assert cli._map_lambdas(task, range(12)) == list(range(12))
    assert capsys.readouterr().out.splitlines() == [
        f"wrote {tmp_path / f'm{k}.obj'}" for k in range(12)]
    pids = read_lines(log)
    assert len(pids) == 12
    assert 1 <= len(set(pids)) <= 2 and str(os.getpid()) not in pids
    assert multiprocessing.active_children() == []
    for k in range(12):
        assert (tmp_path / f"m{k}.obj").read_bytes() == ref_obj(f).encode()


def record_sym_pids(monkeypatch, log):
    """Wrap sym_immersion to append the calling process id to log."""
    surface = sym.sym_immersion

    def recorded(field, lam, conn):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return surface(field, lam, conn)

    monkeypatch.setattr(sym, "sym_immersion", recorded)


def test_pool_without_affinity_or_fork(tmp_path, capsys, monkeypatch):
    # platforms without sched_getaffinity count cpus for the pool; without
    # fork the same tasks run in the main process, with the same bytes
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    argv = ["generate", "--preset", "pseudosphere", "--grid", "9",
            "--lambda", "0.5,2"]
    names = [f"pseudosphere_lam{lam}_n9.obj" for lam in ("0.5", "2")]
    record_sym_pids(monkeypatch, tmp_path / "pids")
    runs = {}
    for fork in (True, False):
        if not fork:
            monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                                lambda: ["spawn"])
        out = tmp_path / f"fork{fork}"
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {out / name}" for name in names]
        assert multiprocessing.active_children() == []
        runs[fork] = [(out / name).read_bytes() for name in names]
    assert runs[True] == runs[False]
    pids, main = read_lines(tmp_path / "pids"), str(os.getpid())
    assert len(pids) == 4 and main not in pids[:2] and pids[2:] == [main] * 2
    field, conn = cli._build_state(cli.RunConfig(grid=9, lambdas=(0.5, 2.0)))
    for lam, text in zip((0.5, 2.0), runs[False]):
        S = sym.sym_immersion(field, lam, conn)
        cli.write_obj(tmp_path / "serial", S.f)
        assert text == (tmp_path / "serial").read_bytes()


@pytest.mark.parametrize("argv", [
    ["sweep", "--lambda", "1"],                        # no --mesh
    ["sweep", "--lambda", "1", "--mesh"],
    ["generate"],                                      # one lambda
    ["generate", "--format", "csv", "--curves", "--glyphs"],  # three files
])
def test_fewer_than_two_meshes_start_no_pool(tmp_path, capsys, monkeypatch,
                                             argv):
    def no_pool(task):
        raise AssertionError("pool started")

    monkeypatch.setattr(cli, "_fork_pool", no_pool)
    assert cli.main(argv + ["--preset", "pseudosphere", "--grid", "9",
                            "--out", str(tmp_path)]) == 0
    reported = [l.removeprefix("wrote ")
                for l in capsys.readouterr().out.splitlines()]
    assert sorted(reported) == sorted(str(p) for p in tmp_path.iterdir())
    meshes = [p for p in reported if p.endswith(".obj")]
    assert len(meshes) == (0 if argv[-1] == "1" else 1)
    if "--glyphs" in argv:
        assert [Path(p).name for p in reported] == [
            "pseudosphere_lam1_n9" + sfx
            for sfx in (".csv", "_curves.obj", "_glyphs.csv")]


def holds_an_array(value):
    return isinstance(value, np.ndarray) or (
        isinstance(value, (list, tuple)) and any(map(holds_an_array, value)))


@pytest.mark.parametrize("argv", [
    ["sweep", "--mesh"], ["sweep"], ["generate"],
    ["generate", "--format", "csv", "--curves", "--glyphs"]])
def test_main_process_runs_no_sym_with_two_lambdas(tmp_path, monkeypatch,
                                                   argv):
    # every lambda's Sym runs in a worker, which sends back no array
    from concurrent.futures import Future
    log = tmp_path / "pids"
    record_sym_pids(monkeypatch, log)
    results = []
    set_result = Future.set_result

    def recorded(self, result):
        results.append(result)
        set_result(self, result)

    monkeypatch.setattr(Future, "set_result", recorded)
    assert cli.main(argv + ["--preset", "pseudosphere", "--grid", "17",
                            "--lambda", "0.5,1,2",
                            "--out", str(tmp_path / "out")]) == 0
    pids = read_lines(log)
    assert len(pids) == 3 and str(os.getpid()) not in pids
    assert len(results) == 3
    assert not any(map(holds_an_array, results))


def written_and_reported(tmp_path, out):
    on_disk = sorted(str(p) for p in tmp_path.glob("*.obj") if p.is_file())
    reported = [l.removeprefix("wrote ") for l in out.splitlines()]
    assert sorted(reported) == on_disk
    return reported


def test_worker_write_error_exits_2(tmp_path, capsys):
    (tmp_path / "vacuum_lam2_n9.obj").mkdir()     # the worker cannot open it
    rc = cli.main(["generate", "--preset", "vacuum", "--grid", "9",
                   "--lambda", "1,2,3", "--out", str(tmp_path)])
    assert rc == 2
    out, err = capsys.readouterr()
    # the third mesh was handed over before the second failed: it lands too
    assert written_and_reported(tmp_path, out) == [
        str(tmp_path / f"vacuum_lam{k}_n9.obj") for k in (1, 3)]
    assert "psfront: error: " in err
    assert "vacuum_lam2_n9.obj" in err
    assert multiprocessing.active_children() == []


def test_failure_between_meshes_lands_the_earlier_ones(tmp_path, capsys,
                                                       monkeypatch):
    # every lambda runs to the end: those that succeed, before and after the
    # failure, land and are reported in order, then the failure exits 2
    surface = sym.sym_immersion

    def sym_fails_at_3(field, lam, conn):
        if lam == 3:
            raise RuntimeError("Sym failed")
        return surface(field, lam, conn)

    monkeypatch.setattr(sym, "sym_immersion", sym_fails_at_3)
    rc = cli.main(["sweep", "--preset", "vacuum", "--grid", "9", "--mesh",
                   "--lambda", "1,2,3,4", "--out", str(tmp_path)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert written_and_reported(tmp_path, out) == [
        str(tmp_path / f"vacuum_lam{k}_n9.obj") for k in (1, 2, 4)]
    assert err.splitlines()[-1] == "psfront: error: Sym failed"
    assert not list(tmp_path.glob("*.csv"))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("argv", [
    ["sweep", "--mesh"], ["generate"], ["verify", "--tol", "1"],
    ["generate", "--format", "csv", "--curves", "--glyphs"]])
def test_one_surface_alive_per_lambda(tmp_path, monkeypatch, argv):
    # a lambda's surface and forms are released before the next is computed
    # in the same process; a worker's assertion fails the run, and the calls
    # are counted in a file, which the main process sees
    surface = sym.sym_immersion
    made = []
    log = tmp_path / "calls"

    def tracked(field, lam, conn):
        alive = [k for k, ref in enumerate(made) if ref() is not None]
        assert not alive, f"surfaces {alive} alive at lambda={lam:g}"
        S = surface(field, lam, conn)
        made.append(weakref.ref(S))
        with open(log, "a") as fh:
            fh.write(f"{lam:g}\n")
        return S

    monkeypatch.setattr(sym, "sym_immersion", tracked)
    assert cli.main(argv + ["--preset", "pseudosphere", "--grid", "17",
                            "--lambda", "0.5,1,2",
                            "--out", str(tmp_path / "out")]) == 0
    assert sorted(read_lines(log)) == ["0.5", "1", "2"]


# -- the pipeline's loop kernels ---------------------------------------------

def test_no_2x2_laurent_kernel_from_ladder_to_sym(tmp_path, monkeypatch):
    # every loop from the ladder to Sym is packed; the 2x2 kernels are
    # references only, so a run with each of them raising still completes
    def refuse(*args, **kwargs):
        raise RuntimeError("2x2 Laurent kernel called")

    for owner, names in [(loops, ("mul_coeffs", "inverse_coeffs",
                                  "det_coeffs", "recip_coeffs",
                                  "eval_coeffs")),
                         (frames, ("mul_coeffs", "inverse_coeffs",
                                   "eval_coeffs")),
                         (sym, ("eval_coeffs",))]:
        for name in names:
            monkeypatch.setattr(owner, name, refuse)
    assert cli.main(["verify", "--preset", "pseudosphere", "--grid", "17",
                     "--out", str(tmp_path)]) != 2
    assert cli.main(["sweep", "--preset", "c0_kink", "--amplitude", "0.5",
                     "--grid", "33", "--lambda", "0.5,1,2", "--mesh",
                     "--out", str(tmp_path)]) != 2
    assert len(list(tmp_path.glob("*.obj"))) == 3


# -- import cost and the benchmark tracer ------------------------------------

def printed_after_cli_import(expr, env=None):
    """What a fresh interpreter prints for expr after import psfront.cli."""
    src = os.path.dirname(os.path.dirname(psfront.__file__))
    env = dict(os.environ if env is None else env, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c", f"import os, sys, psfront.cli; print({expr})"],
        env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def modules_loaded_by_cli_import(names):
    return printed_after_cli_import(
        f"[m for m in {names!r} if m in sys.modules]")


def test_cli_import_leaves_scipy_interpolate_unloaded():
    assert modules_loaded_by_cli_import(["scipy.interpolate"]) == "[]"


def test_cli_import_leaves_the_process_pool_unloaded():
    assert modules_loaded_by_cli_import(
        ["multiprocessing", "concurrent.futures"]) == "[]"


def test_cli_import_applies_the_thread_override():
    # the package import is the override's one call site; a variable the
    # user set keeps its value
    env = {k: v for k, v in os.environ.items()
           if k not in _threads._VARS + ("PSFRONT_THREADS",)}
    env.update(PSFRONT_THREADS="1", OMP_NUM_THREADS="3")
    assert printed_after_cli_import(
        "os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS']",
        env) == "1 3"


def load_psbench(monkeypatch, name):
    """psbench/NAME.py as a module, read from the file; nothing is run."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # traced.py prepends src
    path = Path(__file__).resolve().parents[1] / "psbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"psbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_wraps_and_restores_every_layer(monkeypatch):
    # the tracer wraps module attributes by name; a missing one raises
    # AttributeError in install
    traced = load_psbench(monkeypatch, "traced")
    tracer = traced.Tracer()
    traced.install(tracer)
    saved = [(owner, attr, orig) for owner, attr, orig in tracer._restore]
    assert saved
    tracer.unwrap()
    for owner, attr, orig in saved:
        assert getattr(owner, attr) is orig


def test_traced_sweep_writes_its_meshes(tmp_path, monkeypatch):
    # forked workers inherit the traced writers; their spans stay in the
    # workers
    traced = load_psbench(monkeypatch, "traced")
    result = traced.traced_cli(["sweep", "--preset", "pseudosphere",
                                "--grid", "17", "--lambda", "0.5,1,2",
                                "--mesh", "--out", str(tmp_path)])
    assert result["rc"] == 0
    assert sorted(p.name for p in tmp_path.glob("*.obj")) == [
        f"pseudosphere_lam{lam}_n17.obj" for lam in ("0.5", "1", "2")]
    assert (tmp_path / "sweep_pseudosphere_n17.csv").is_file()
    assert multiprocessing.active_children() == []
