import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracsmooth
from fracsmooth import cli, sets, wave
from fracsmooth.errors import RefineFailureError


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
    ):
        assert cli.cli(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: "), argv


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


def test_import_loads_no_polynomial_or_fft():
    # NumPy and wave load only with the wave commands: a fresh interpreter
    # imports neither with the CLI and the harness
    code = (
        "import sys, fracsmooth.cli, fracsmooth.harness; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy' or m == 'fracsmooth.wave'))"
    )
    assert _fresh_python(code) == "[]\n"
    # the sharpness slopes load NumPy and wave, but not numpy.random
    code = (
        "import sys; from fracsmooth import harness, sets; "
        "cfg = harness.ExperimentConfig(sets.FinitePoints((1.5,)), j_min=8, j_max=11); "
        "harness.run_sharpness_slope(cfg); "
        "print('fracsmooth.wave' in sys.modules, 'numpy.random' in sys.modules)"
    )
    assert _fresh_python(code) == "True False\n"


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
    if argv == ["legendre"]:
        infile = tmp_path / "nu.csv"
        infile.write_text("x,value\n0.0,-1.0\n0.5,-0.25\n1.0,0.0\n")
        argv = argv + ["--infile", str(infile)]
    code = (
        "import sys; from fracsmooth import cli; rc = cli.cli(sys.argv[1:]); "
        "print(rc, any(m.split('.')[0] == 'numpy' for m in sys.modules))"
    )
    out = tmp_path / "out.txt"
    assert _fresh_python(code, *argv, "--out", str(out)) == f"0 {loads_numpy}\n"
    assert out.read_text()


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


def test_verify_sharpness_small(set_files, tmp_path):
    out = tmp_path / "slope.csv"
    rc = cli.cli([
        "verify-sharpness", "--set", set_files["point"], "--d", "3", "--p", "4",
        "--jmin", "8", "--jmax", "11", "--out", str(out),
    ])
    assert rc == 0
    assert out.read_text().splitlines()[0].startswith("j,log2_Q")


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
