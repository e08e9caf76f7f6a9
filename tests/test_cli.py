import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fracsmooth
from fracsmooth import cli, sets, spectra, wave
from fracsmooth.errors import FracsmoothError, RefineFailureError


@pytest.fixture
def set_files(tmp_path):
    paths = {}
    for name, descriptor in {
        "cantor": sets.CantorLike(1.0, 2.0, 2, 1.0 / 3.0),
        "point": sets.FinitePoints((1.5,)),
        "interval": sets.FullInterval(1.0, 2.0),
        "poly": sets.PolySequence(1.0),
    }.items():
        p = tmp_path / f"{name}.json"
        p.write_text(sets.dumps(descriptor))
        paths[name] = str(p)
    return paths


def test_usage_errors(set_files, tmp_path, capsys):
    assert cli.cli([]) == 2
    assert cli.cli(["no-such-command"]) == 2
    assert cli.cli(["covering", "--set", set_files["cantor"], "--bogus"]) == 2
    assert cli.cli(["covering", "--set", set_files["cantor"]]) == 2  # missing --j/--delta
    assert cli.cli(["set-info", "--set", "/nonexistent/x.json"]) == 2
    # malformed input is a usage error with a message, not a traceback
    files = {
        "bad_interval.json": '{"type": "interval"}',
        "bad_cantor.json": '{"type": "cantor", "base_interval": [1, 2], "contraction": 0.3}',
        "truncated.json": '{"type": "cantor", "base_int',
        "header.csv": "x,value\n",
        "words.csv": "x,value\n0,a\n1,b\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe{")
    capsys.readouterr()
    for argv in (
        ["set-info", "--set", str(tmp_path / "bad_interval.json")],
        ["set-info", "--set", str(tmp_path / "bad_cantor.json")],
        ["set-info", "--set", str(tmp_path / "truncated.json")],
        ["set-info", "--set", str(tmp_path / "binary.json")],
        ["legendre", "--infile", str(tmp_path / "header.csv")],
        ["legendre", "--infile", str(tmp_path / "words.csv")],
        ["nu-sharp", "--set", set_files["cantor"], "--alpha-grid", "0:2"],
        ["nu-sharp", "--set", set_files["cantor"], "--alpha-grid", "2:0:0.5"],
        ["nu-sharp", "--set", set_files["cantor"], "--alpha-grid", "0:2:-0.5"],
        ["nu-sharp", "--set", set_files["cantor"], "--alpha-grid", "1:0.9:0.5"],
        ["nu-sharp", "--set", set_files["cantor"], "--alpha-grid", "2:0:-0.5"],
        ["wave-sim", "--times", "1.5,abc"],
        ["wave-sim", "--times", "nan"],
        ["wave-sim", "--times", "1.5,inf"],
        ["exponents", "--set", set_files["cantor"], "--j", "12", "--q", "4", "--m", "-1"],
        ["verify-duality", "--set", set_files["cantor"], "--jmin", "12", "--jmax", "10"],
        ["nu-sharp", "--set", set_files["cantor"], "--jmin", "12", "--jmax", "10"],
        ["spectrum", "--set", set_files["cantor"], "--j", "3"],
        # fewer than 4 scales: rejected before any table or wave row
        ["verify-sharpness", "--set", set_files["cantor"], "--jmin", "8", "--jmax", "10"],
        ["verify-sharpness", "--set", set_files["cantor"], "--jmin", "12", "--jmax", "10"],
        # scales finer than the doubles in [1, 2]: rejected before any overflow
        ["wave-sim", "--d", "5", "--j", "300", "--times", "1.5"],
        ["wave-sim", "--d", "4", "--j", "300", "--times", "1.0"],
        ["wave-sim", "--d", "3", "--j", "1100"],
        # no window maximizes an infinite exponent, and no deviation is <= nan
        ["verify-sharpness", "--set", set_files["cantor"], "--d", "3", "--p", "inf"],
        ["verify-sharpness", "--set", set_files["cantor"], "--d", "3", "--p", "nan"],
        ["verify-duality", "--set", set_files["cantor"], "--tol", "nan"],
        ["verify-sharpness", "--set", set_files["cantor"], "--tol", "nan"],
        ["verify-bookkeeping", "--set", set_files["cantor"], "--tol", "nan"],
        # the exponents need finite p and q
        ["exponents", "--set", set_files["cantor"], "--p", "inf"],
        ["exponents", "--set", set_files["cantor"], "--p", "nan"],
        ["exponents", "--set", set_files["cantor"], "--q", "inf"],
        ["verify-bookkeeping", "--set", set_files["cantor"], "--p", "nan"],
        ["verify-bookkeeping", "--set", set_files["cantor"], "--p", "inf"],
        ["verify-bookkeeping", "--set", set_files["cantor"], "--q", "nan"],
        ["verify-bookkeeping", "--set", set_files["cantor"], "--q", "inf"],
        # no nan window end, non-finite grid bound or step, negative count
        # or non-finite window length
        ["covering", "--set", set_files["interval"], "--window", "nan", "2", "--j", "8"],
        ["covering", "--set", set_files["interval"], "--window", "1", "nan", "--j", "8"],
        ["nu-sharp", "--set", set_files["cantor"], "--alpha-grid", "0:1:inf"],
        ["nu-sharp", "--set", set_files["cantor"], "--alpha-grid", "0:inf:0.5"],
        ["nu-sharp", "--set", set_files["cantor"], "--alpha-grid", "nan:1:0.5"],
        ["nu-sharp", "--set", set_files["cantor"], "--alpha-grid=-inf:1:0.5"],
        ["exponents", "--set", set_files["cantor"], "--j", "8", "--p", "4", "--q", "4",
         "--window-length", "0.5", "--count", "-3"],
        ["exponents", "--set", set_files["cantor"], "--j", "8", "--p", "4", "--q", "4",
         "--window-length", "nan", "--count", "3"],
        ["exponents", "--set", set_files["cantor"], "--j", "8", "--p", "4", "--q", "4",
         "--window-length", "inf", "--count", "3"],
    ):
        assert cli.cli(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), argv
    # the quasi-Assouad estimate needs j >= 4; the message names j, not theta
    for command in ("set-info", "exponents"):
        assert cli.cli([command, "--set", set_files["cantor"], "--j", "3"]) == 2, command
        assert capsys.readouterr().err == "error: need j >= 4, got 3\n", command
    # a window table past the tile budget is refused before any counting
    assert cli.cli(["set-info", "--set", set_files["cantor"], "--j", "30"]) == 2
    assert capsys.readouterr().err == (
        "error: resolution too fine: 4294967263 family windows at j = 30, more than 40000000\n")


def test_scale_and_dimension_usage_errors(set_files, capsys):
    # j_min < 2 is refused before the default tolerance divides by j, and
    # d < 2 before any exponent or table: usage errors, not check failures
    capsys.readouterr()
    for argv, message in (
        (["verify-duality", "--set", set_files["cantor"], "--jmin", "0", "--jmax", "0"], "need j >= 2, got 0"),
        (["verify-duality", "--set", set_files["cantor"], "--jmin", "1", "--jmax", "3"], "need j >= 2, got 1"),
        (["exponents", "--set", set_files["cantor"], "--j", "12", "--d", "0", "--p", "4"],
         "--d must be at least 2, got 0"),
        (["exponents", "--set", set_files["cantor"], "--j", "12", "--d", "1", "--p", "4", "--q", "4"],
         "--d must be at least 2, got 1"),
        (["verify-bookkeeping", "--set", set_files["cantor"], "--d", "0"], "--d must be at least 2, got 0"),
        (["verify-sharpness", "--set", set_files["cantor"], "--d", "1"], "--d must be at least 2, got 1"),
    ):
        assert cli.cli(argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv


def test_grid_node_cap(set_files, capsys):
    # a step of 1e-300 would ask for about 1e300 nodes: refused before any
    # list is built; the cap itself is a grid's most nodes
    capsys.readouterr()
    assert cli.cli(["nu-sharp", "--set", set_files["cantor"], "--alpha-grid", "0:1:1e-300"]) == 2
    assert capsys.readouterr().err.startswith("error: grid must be")
    assert len(cli._parse_grid(f"0:1:{1.0 / (cli._GRID_NODES - 1)!r}")) == cli._GRID_NODES
    with pytest.raises(FracsmoothError):
        cli._parse_grid(f"0:1:{1.0 / cli._GRID_NODES!r}")


def test_module_entry_point(set_files):
    # python -m fracsmooth.cli runs the same commands as the console script
    src = str(Path(fracsmooth.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fracsmooth.cli", "exponents", "--set", set_files["cantor"], "--j", "8"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("d,p,q,")
    assert len(proc.stdout.splitlines()) > 1


def _fresh_python(code, *args):
    src = str(Path(fracsmooth.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


COVERING_MODULES = ("sets", "backend", "spectra", "legendre", "exponents", "sampled")


def test_import_loads_no_polynomial_or_fft():
    # NumPy and wave load only with the wave commands: a fresh interpreter
    # imports neither with the CLI and the harness, and of the package it
    # loads only these two and the errors and records they need
    code = (
        "import sys, fracsmooth.cli, fracsmooth.harness; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'fracsmooth')))"
    )
    assert _fresh_python(code) == str(sorted(
        f"fracsmooth{m}" for m in ("", ".cli", ".harness", ".errors", ".records"))) + "\n"
    # the sharpness slopes load NumPy and wave, but not numpy.random
    code = (
        "import sys; from fracsmooth import harness, sets; "
        "cfg = harness.ExperimentConfig(sets.FinitePoints((1.5,)), j_min=8, j_max=11); "
        "harness.run_sharpness_slope(cfg); "
        "print('fracsmooth.wave' in sys.modules, 'numpy.random' in sys.modules)"
    )
    assert _fresh_python(code) == "True False\n"


def test_import_loads_no_dataclasses():
    # records replace dataclasses: the CLI and the harness load neither it
    # nor inspect (NumPy imports inspect), and no module loads dataclasses
    code = (
        "import sys, fracsmooth.cli, fracsmooth.harness; "
        "print([m for m in ('dataclasses', 'inspect', 'numpy') if m in sys.modules])"
    )
    assert _fresh_python(code) == "[]\n"
    code = (
        "import importlib, pkgutil, sys, fracsmooth, fracsmooth.wave; "
        "print('dataclasses' in sys.modules); "
        "[importlib.import_module('fracsmooth.' + m.name) for m in pkgutil.iter_modules(fracsmooth.__path__)]; "
        "print('dataclasses' in sys.modules)"
    )
    assert _fresh_python(code) == "False\nFalse\n"


CANTOR_JSON = str(Path(__file__).resolve().parents[1] / "perfbench" / "sets" / "cantor.json")


@pytest.mark.parametrize("argv, loads_numpy", [
    (["set-info", "--set", CANTOR_JSON, "--j", "10"], False),
    (["covering", "--set", CANTOR_JSON, "--j", "10"], False),
    (["spectrum", "--set", CANTOR_JSON, "--j", "10"], False),
    (["nu-sharp", "--set", CANTOR_JSON, "--jmin", "9", "--jmax", "10"], False),
    (["legendre"], False),
    (["exponents", "--set", CANTOR_JSON, "--j", "10"], False),
    (["verify-duality", "--set", CANTOR_JSON, "--jmin", "10", "--jmax", "11"], False),
    (["verify-bookkeeping", "--set", CANTOR_JSON, "--j", "10"], False),
    # the control: the wave commands do load NumPy
    (["wave-sim", "--d", "3", "--j", "6"], True),
])
def test_covering_commands_load_no_numpy(tmp_path, argv, loads_numpy):
    # and wave-sim, the control, loads none of the covering modules
    if argv == ["legendre"]:
        infile = tmp_path / "nu.csv"
        infile.write_text("x,value\n0.0,-1.0\n0.5,-0.25\n1.0,0.0\n")
        argv = argv + ["--infile", str(infile)]
    code = (
        "import json, sys; from fracsmooth import cli; rc = cli.cli(sys.argv[1:]); "
        "print(json.dumps([rc, any(m.split('.')[0] == 'numpy' for m in sys.modules), "
        "[m for m in sys.modules if m.startswith('fracsmooth.')]]))"
    )
    out = tmp_path / "out.txt"
    rc, numpy_loaded, modules = json.loads(_fresh_python(code, *argv, "--out", str(out)))
    assert (rc, numpy_loaded) == (0, loads_numpy)
    assert out.read_text()
    if argv[0] == "wave-sim":
        assert not {f"fracsmooth.{m}" for m in COVERING_MODULES} & set(modules)


@pytest.mark.parametrize("argv", [
    ["set-info", "--set", CANTOR_JSON, "--j", "10"],
    ["spectrum", "--set", CANTOR_JSON, "--j", "10"],
    ["verify-bookkeeping", "--set", CANTOR_JSON, "--j", "10"],
])
def test_commands_without_dual_profiles_load_no_legendre(tmp_path, argv):
    # only the dual profiles use the Legendre transform, so these commands
    # never compile its module
    code = ("import sys; from fracsmooth import cli; rc = cli.cli(sys.argv[1:]); "
            "print(rc, 'fracsmooth.legendre' in sys.modules)")
    assert _fresh_python(code, *argv, "--out", str(tmp_path / "out.txt")) == "0 False\n"


def test_set_info(set_files, tmp_path, capsys):
    out = tmp_path / "info.json"
    assert cli.cli(["set-info", "--set", set_files["cantor"], "--j", "10", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["has_analytic_spectrum"] is True
    assert payload["bounds"] == [1.0, 2.0]


def test_covering_output(set_files, capsys):
    assert cli.cli(["covering", "--set", set_files["interval"], "--j", "6"]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1].endswith(",64")


def test_spectrum_csv(set_files, tmp_path):
    out = tmp_path / "spec.csv"
    assert cli.cli(["spectrum", "--set", set_files["poly"], "--j", "10", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "j,theta,value,estimate,analytic,deviation"
    assert len(lines) > 5


def test_nu_sharp_json(set_files, tmp_path):
    out = tmp_path / "nu.json"
    rc = cli.cli([
        "nu-sharp", "--set", set_files["cantor"], "--jmin", "9", "--jmax", "10",
        "--alpha-grid", "0:2:0.25", "--format", "json", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["axis"] == "alpha"
    assert len(payload["grid"]) == 9


def test_legendre_roundtrip_csv(tmp_path):
    from fracsmooth.sampled import SampledFunction
    import numpy as np

    f = SampledFunction(0.0, 1.0, np.linspace(0.0, 1.0, 65) - 1.0)  # theta - 1
    infile = tmp_path / "nu.csv"
    infile.write_text(f.to_csv())
    out = tmp_path / "tau.csv"
    rc = cli.cli(["legendre", "--infile", str(infile), "--alpha-grid", "0:2:0.125", "--out", str(out)])
    assert rc == 0
    g = SampledFunction.from_csv(out.read_text())
    assert np.abs(g.values - np.maximum(1.0, g.grid)).max() < 1e-12


def test_exponents_point(set_files, capsys):
    assert cli.cli(["exponents", "--d", "3", "--set", set_files["point"], "--p", "4"]) == 0
    out = capsys.readouterr().out
    assert "s_p,0.5" in out


def test_wave_sim(set_files, tmp_path):
    out = tmp_path / "field.csv"
    rc = cli.cli(["wave-sim", "--d", "3", "--j", "7", "--times", "1.4,1.6", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,r,re_u,im_u"
    assert len(lines) == 1 + 2 * 33
    hdr = tmp_path / "field.json"
    rc = cli.cli(["wave-sim", "--d", "3", "--j", "7", "--times", "1.4", "--format", "json", "--out", str(hdr)])
    assert rc == 0
    header = json.loads(hdr.read_text())
    assert header["j"] == 7
    assert set(header) == {"d", "j", "t_ref", "bump_center", "bump_half_width", "times", "grid_sizes", "err_rel"}


def test_wave_sim_before_reference_time(capsys):
    # rows sit on the shell at the cone radius |t - t0| = 0.3, not near r = 0
    assert cli.cli(["wave-sim", "--d", "3", "--j", "8", "--t-ref", "1.5", "--times", "1.2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,r,re_u,im_u" and len(lines) == 1 + 33
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    half = 2.0**-13
    assert rows[0, 1] == pytest.approx(0.3 - half, abs=1e-15)
    assert rows[-1, 1] == pytest.approx(0.3 + half, abs=1e-15)
    ref = wave.propagate(wave.WaveParams(d=3, j=8, t_ref=1.5), 1.2, rows[:, 1]).values
    got = rows[:, 2] + 1j * rows[:, 3]
    assert np.abs(got - ref).max() <= 1e-5 * np.abs(ref).max()


def test_wave_sim_runtime_failure_exit_code(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RefineFailureError("profile table did not converge", 1e-3)

    monkeypatch.setattr(wave, "_profile_table", fail)
    assert cli.cli(["wave-sim", "--d", "3", "--j", "7", "--times", "1.4"]) == 3
    assert "did not converge" in capsys.readouterr().err


def test_verify_duality_exit_codes(set_files, tmp_path):
    rc = cli.cli(["verify-duality", "--set", set_files["cantor"], "--jmin", "11", "--jmax", "12"])
    assert rc == 0
    # an absurd tolerance forces exit 1
    rc = cli.cli(["verify-duality", "--set", set_files["cantor"], "--jmin", "11", "--jmax", "12", "--tol", "1e-9"])
    assert rc == 1


def test_verify_bookkeeping(set_files, tmp_path):
    out = tmp_path / "book.csv"
    rc = cli.cli([
        "verify-bookkeeping", "--set", set_files["cantor"], "--d", "3",
        "--p", "4", "--q", "4", "--j", "10", "--out", str(out),
    ])
    assert rc == 0
    assert "kappa_ratio" in out.read_text()


def test_exponents_reads_the_closed_form_profile_only(set_files, monkeypatch, kernel_windows):
    # with a closed-form spectrum, --p/--q build no empirical profile, so
    # without --m the window table stops at level j - 4, where dims reads;
    # with --m one full table serves dims, kappa and lambda
    def no_profile(*args):
        raise AssertionError("built the empirical profile")

    monkeypatch.setattr(spectra, "nu_sharp_empirical_function", no_profile)
    argv = ["exponents", "--set", set_files["cantor"], "--j", "12", "--p", "4", "--q", "4"]
    for extra, levels in (([], 12 - 4 + 1), (["--m", "6"], 12 + 1)):
        spectra._window_tables.clear()
        kernel_windows.clear()
        assert cli.cli(argv + extra + ["--out", os.devnull]) == 0
        assert [len(maxima) for maxima, _ in spectra._window_tables.values()] == [levels]
        assert len(kernel_windows) == 1
    spectra._window_tables.clear()


def test_verify_bookkeeping_has_one_verdict(set_files, tmp_path):
    # the printed verdict and the exit code both judge the ratios by --tol
    argv = ["verify-bookkeeping", "--set", set_files["cantor"], "--j", "10"]
    for tol, rc_want in (("1e-9", 0), ("-1", 1)):
        book = tmp_path / "book.json"
        assert cli.cli(argv + ["--tol", tol, "--format", "json", "--out", str(book)]) == rc_want
        payload = json.loads(book.read_text())
        assert payload["passes"] is (rc_want == 0) and payload["tolerance"] == float(tol)
        csv = tmp_path / "book.csv"
        assert cli.cli(argv + ["--tol", tol, "--out", str(csv)]) == rc_want
        assert csv.read_text().splitlines()[-1].endswith(f",pass,{rc_want == 0}")


def test_verify_sharpness_small(set_files, tmp_path):
    out = tmp_path / "slope.csv"
    rc = cli.cli([
        "verify-sharpness", "--set", set_files["point"], "--d", "3", "--p", "4",
        "--jmin", "8", "--jmax", "11", "--out", str(out),
    ])
    assert rc == 0
    assert out.read_text().splitlines()[0].startswith("j,log2_Q")


def test_verify_sharpness_overflow_is_a_usage_error(set_files, capsys):
    # |u|^60 overflows from j = 9 on: a usage error naming p and j, with no
    # rows and no NumPy warning, instead of inf rows and a failed check
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.cli(["verify-sharpness", "--set", set_files["cantor"], "--p", "60", "--jmin", "8", "--jmax", "11"])
    out = capsys.readouterr()
    assert rc == 2 and out.out == ""
    assert out.err.startswith("error: ") and "p = 60, j = 9" in out.err


def test_determinism_byte_identical(set_files, tmp_path):
    # repeated runs give identical bytes, whatever the seed: the interval's
    # full window at j = 11 holds 1024 times in its half, all of them summed
    pairs = []
    for tag, seed in (("a", "3"), ("b", "4")):
        dual = tmp_path / f"dual_{tag}.csv"
        book = tmp_path / f"book_{tag}.json"
        slope = tmp_path / f"slope_{tag}.json"
        full = tmp_path / f"full_{tag}.csv"
        assert cli.cli(["verify-duality", "--set", set_files["cantor"], "--jmin", "10",
                        "--jmax", "11", "--seed", seed, "--out", str(dual)]) == 0
        assert cli.cli(["verify-bookkeeping", "--set", set_files["cantor"], "--j", "10",
                        "--format", "json", "--seed", seed, "--out", str(book)]) == 0
        assert cli.cli(["verify-sharpness", "--set", set_files["point"], "--p", "4",
                        "--jmin", "8", "--jmax", "11", "--seed", seed, "--format", "json",
                        "--out", str(slope)]) == 0
        assert cli.cli(["verify-sharpness", "--set", set_files["interval"], "--jmin", "8",
                        "--jmax", "11", "--seed", seed, "--out", str(full)]) == 0
        pairs.append((dual.read_bytes(), book.read_bytes(), slope.read_bytes(), full.read_bytes()))
    assert pairs[0] == pairs[1]
