"""Command-line interface: exit codes, config precedence, exports,
byte-determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from epsqp import scenarios
from epsqp.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc_info:
        main(list(argv))
    assert capsys.readouterr().out == ""
    return exc_info.value.code


# ---------------------------------------------------------------------------
# basic commands
# ---------------------------------------------------------------------------


def test_list_names_every_scenario(capsys):
    code, out, _ = _run(capsys, "list")
    assert code == 0
    for name in (
        "wigner-equivalence",
        "alpha-sweep",
        "harmonic-coherent",
        "linear-gaussian",
        "pspace-linear",
        "eps-residuals",
        "classical-appendix",
        "all",
    ):
        assert name in out


def test_run_emits_json_report_and_exit_zero(capsys):
    code, out, err = _run(capsys, "run", "classical-appendix")
    assert code == 0
    payload = json.loads(out)
    assert payload["scenario"] == "classical-appendix"
    assert payload["passed"] is True
    # timing goes to stderr only; stdout is pure report
    assert "finished in" in err
    assert "finished in" not in out


def test_repeated_runs_are_byte_identical(capsys):
    _, out1, _ = _run(capsys, "run", "classical-appendix")
    _, out2, _ = _run(capsys, "run", "classical-appendix")
    assert out1 == out2


def test_report_is_independent_of_the_blas_thread_count(tmp_path):
    # a norm through BLAS (numpy.linalg.norm's dot) splits its sum across
    # threads and so moves in its last digits with the thread count; the
    # sheared-chi bundle is the strip shear, FFTs and products of 1-D
    # factors, so its CSV does not depend on BLAS either
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "epsqp", "run", "wigner-equivalence", "--out", str(out), "--fields", "sheared-chi"],
            capture_output=True, timeout=300, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append((proc.stdout, (out / "sheared-chi.csv").read_bytes()))
    assert outs[0] == outs[1]


def test_sweep_reports_are_byte_stable(capsys):
    # Each distinct alpha-sweep invocation once, each in its own process: the 5-alpha sweep
    # at n = 256, and perfbench's 21-alpha sweep at n = 512 with OPENBLAS_NUM_THREADS unset
    # (the CLI then pins one thread), 1 and 2, a numpy floating-point warning an error (exit
    # 3).  Every run exits 0.  The 5-alpha report equals the same sweep run in this process,
    # and the three 21-alpha reports are one: byte-stable from run to run and under any BLAS
    # thread count (the shifted factors are FFTs and products, no BLAS)
    base = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    few = ("run", "alpha-sweep", "--grid-n", "256", "--alphas=-1,-0.75,-0.5,-0.25,0")
    dense = ("run", "alpha-sweep", "--grid-n", "512", "--alphas=" + ",".join(str((i - 20) * 5 / 100) for i in range(21)))
    strict = {"PYTHONWARNINGS": "error::RuntimeWarning"}
    invocations = [(few, {}), *((dense, strict | threads) for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"},
                                                                           {"OPENBLAS_NUM_THREADS": "2"}))]
    outs = []
    for argv, env in invocations:
        proc = subprocess.run([sys.executable, "-m", "epsqp", *argv], capture_output=True, timeout=300, env=base | env)
        assert proc.returncode == 0, (argv, env, proc.stderr.decode())
        outs.append(proc.stdout)
    code, here, _ = _run(capsys, *few)
    assert code == 0 and here.encode() == outs[0]
    assert outs[1] == outs[2] == outs[3]


#: Prints the OpenBLAS thread count of a process that imports the CLI, read through
#: OpenBLAS's own getter (None where numpy bundles no OpenBLAS).
_BLAS_THREADS = """
import ctypes, glob, os
import epsqp.cli
import numpy
threads = None
for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
        getter = getattr(lib, symbol, None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            threads = getter()
            break
print(threads)
"""


@pytest.mark.parametrize("setting, expected", [(None, 1), ("2", 2)])
def test_the_cli_starts_one_blas_thread_unless_told_otherwise(setting, expected):
    # nothing the CLI reports goes through BLAS, so it starts no worker pool to spin on
    # the other cores; an explicit OPENBLAS_NUM_THREADS is kept
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    proc = subprocess.run([sys.executable, "-c", _BLAS_THREADS], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "None":
        pytest.skip("numpy bundles no OpenBLAS to ask")
    assert int(proc.stdout) == expected


def test_run_all_leaves_numpy_random_and_hashlib_unloaded():
    # numpy.random pulls in secrets, hashlib and OpenSSL's _hashlib, about
    # 6 MB of peak RSS; no scenario draws random numbers.  A subprocess,
    # because the test suite itself imports numpy.random
    script = (
        "import contextlib, io, json, sys\n"
        "from epsqp.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['run', 'all', '--grid-n', '64'])\n"
        "print(json.dumps([code, [m for m in ('numpy.random', 'hashlib', '_hashlib') if m in sys.modules]]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    code, loaded = json.loads(proc.stdout)
    assert code == 1  # n = 64 keeps its known failure, alpha-sweep-grid-stability
    assert loaded == []


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_unknown_scenario_is_usage_error(capsys):
    assert _run_usage_error(capsys, "run", "no-such-scenario") == 2


def test_fields_without_out_is_usage_error(capsys):
    assert _run_usage_error(capsys, "run", "classical-appendix", "--fields", "all") == 2


def test_failed_check_returns_one(capsys):
    # a coarse time step pushes the finite-difference residuals over their
    # tolerances without raising anything
    code, out, _ = _run(capsys, "run", "harmonic-coherent", "--dt", "0.1")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_numerical_failure_returns_three(capsys, tmp_path):
    # a valid configuration whose state sits outside the domain: every
    # sample underflows to zero and the constant fit has no basis, which
    # only running the scenario can find out
    cfg_file = tmp_path / "far.json"
    cfg_file.write_text(json.dumps({"q0": 50.0}))
    code, out, err = _run(
        capsys, "run", "wigner-equivalence", "--grid-n", "64", "--config", str(cfg_file)
    )
    assert code == 3
    assert out == ""
    assert "numerical failure" in err


@pytest.mark.parametrize("error", [KeyError, TypeError])
def test_any_scenario_exception_returns_three(capsys, monkeypatch, error):
    # exit 1 means "a check failed"; an exception that is not numerical
    # must not escape with Python's own status 1
    def broken(cfg):
        raise error("missing")

    monkeypatch.setitem(scenarios.REGISTRY, "classical-appendix", (broken, "raises"))
    code, out, err = _run(capsys, "run", "classical-appendix")
    assert code == 3
    assert out == ""
    assert "'classical-appendix'" in err and error.__name__ in err


@pytest.mark.parametrize(
    "flag",
    [
        "--grid-n=100",
        "--dt=0",
        "--dt=-1",
        "--dt=nan",
        "--alphas=-1,0",
        "--alphas=-1,-0.4,0",
        "--alphas=-1,-0.5,nan",
        "--parallel",
        pytest.param({"mass": 0}, id="config-mass=0"),
        pytest.param({"hbar": -1}, id="config-hbar=-1"),
        pytest.param({"spring_k": -1}, id="config-spring_k=-1"),
        pytest.param({"sigma0": -1}, id="config-sigma0=-1"),
        # values JSON holds but the config would only get by coercion
        pytest.param({"grid_n": 64.9}, id="config-grid_n=64.9"),
        pytest.param({"grid_n": 64.0}, id="config-grid_n=64.0"),
        pytest.param({"grid_n": True}, id="config-grid_n=true"),
        pytest.param({"mass": True}, id="config-mass=true"),
        pytest.param({"dt": "0.001"}, id="config-dt-string"),
        pytest.param({"alphas": [-1, -0.5, True]}, id="config-alphas-bool"),
        pytest.param({"alphas": [-1, "-0.5", 0]}, id="config-alphas-string"),
        pytest.param({"hbar": 10**400}, id="config-hbar-overflow"),
        # grids the grid itself rejects
        pytest.param({"grid_n": 100}, id="config-grid_n=100"),
        pytest.param({"grid_n": 4}, id="config-grid_n=4"),
        pytest.param({"q_max": -10}, id="config-q_max=-10"),
    ],
)
def test_bad_config_values_fail_before_any_scenario(capsys, tmp_path, flag):
    # the configuration is validated when it is built and unknown flags
    # (such as --parallel) are rejected by the parser, so 'run all' stops
    # with a usage error instead of a numerical failure midway; a dict is
    # passed as a --config file, and the error names its key, as it names
    # grid_n for --grid-n and dt for --dt
    key = {"--grid-n": "grid_n", "--dt": "dt"}.get(flag.partition("=")[0]) if isinstance(flag, str) else None
    if isinstance(flag, dict):
        (key,) = flag
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(flag))
        flag = f"--config={cfg_file}"
    with pytest.raises(SystemExit) as exc_info:
        main(["run", "all", flag])
    assert exc_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert key is None or key in err


def test_zero_slope_is_a_usage_error(capsys, tmp_path):
    # at b = 0 the linear-potential dt residual already sits at the rounding
    # floor, so its halving check could never pass: the config is refused
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"slope_b": 0}))
    with pytest.raises(SystemExit) as exc_info:
        main(["run", "all", "--config", str(cfg_file)])
    assert exc_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "slope_b must be non-zero" in err


# ---------------------------------------------------------------------------
# configuration precedence
# ---------------------------------------------------------------------------


def test_config_file_applies_and_flags_win(capsys, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"grid_n": 64, "dt": 2e-3}))
    code, out, _ = _run(capsys, "run", "classical-appendix", "--config", str(cfg_file))
    assert code == 0
    assert json.loads(out)["config"]["grid_n"] == 64

    code, out, _ = _run(
        capsys,
        "run",
        "classical-appendix",
        "--config",
        str(cfg_file),
        "--grid-n",
        "128",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["grid_n"] == 128  # flag beats file
    assert payload["config"]["dt"] == 2e-3  # untouched file key survives


def test_bad_config_files_are_usage_errors(capsys, tmp_path):
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"no_such_key": 1}))
    assert _run_usage_error(capsys, "run", "classical-appendix", "--config", str(unknown)) == 2

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert _run_usage_error(capsys, "run", "classical-appendix", "--config", str(broken)) == 2

    missing = tmp_path / "missing.json"
    assert _run_usage_error(capsys, "run", "classical-appendix", "--config", str(missing)) == 2

    parallel = tmp_path / "parallel.json"
    parallel.write_text(json.dumps({"parallel": True}))
    with pytest.raises(SystemExit) as exc_info:
        main(["run", "all", "--config", str(parallel)])
    assert exc_info.value.code == 2
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def test_out_writes_report_and_fields_csv(capsys, tmp_path):
    out_dir = tmp_path / "export"
    code, out, _ = _run(
        capsys,
        "run",
        "harmonic-coherent",
        "--out",
        str(out_dir),
        "--fields",
        "quantum-potential-q",
    )
    assert code == 0
    assert (out_dir / "report.json").read_text() == out

    csv_path = out_dir / "quantum-potential-q.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "q,re,im,masked"
    assert len(lines) == 1 + 256  # header + one row per grid point
    # masked rows are flagged, not dropped; the profile itself is NaN there
    flags = np.array([int(line.rsplit(",", 1)[1]) for line in lines[1:]])
    assert 0 < flags.sum() < 256
    np.testing.assert_array_equal(flags, [line.split(",")[1] == "nan" for line in lines[1:]])


def test_unknown_field_bundle_is_usage_error(capsys, tmp_path):
    assert (
        _run_usage_error(
            capsys,
            "run",
            "harmonic-coherent",
            "--out",
            str(tmp_path / "x"),
            "--fields",
            "no-such-bundle",
        )
        == 2
    )
    # the selector is checked before the report is printed or written
    assert not (tmp_path / "x").exists()


def test_out_directory_that_cannot_be_made_is_usage_error(capsys, tmp_path):
    # --out is made before the scenario runs: a path under a regular file
    # stops the run before any report is printed
    blocker = tmp_path / "f"
    blocker.touch()
    with pytest.raises(SystemExit) as exc_info:
        main(["run", "classical-appendix", "--out", str(blocker / "sub")])
    assert exc_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--out" in err


def test_run_without_a_report_leaves_no_out_directory(capsys, monkeypatch, tmp_path):
    # the --out directories a run made, parents included, are removed again
    # when it ends without a report: a bad --fields selector (exit 2) or a
    # scenario that raises (exit 3)
    out_dir = tmp_path / "a" / "b"
    args = ["run", "classical-appendix", "--out", str(out_dir)]
    assert _run_usage_error(capsys, *args, "--fields", "no-such-bundle") == 2
    assert not (tmp_path / "a").exists()

    def broken(cfg):
        raise ValueError("broken")

    monkeypatch.setitem(scenarios.REGISTRY, "classical-appendix", (broken, "raises"))
    assert _run(capsys, *args)[0] == 3
    assert not (tmp_path / "a").exists()


def test_csv_2d_layout_is_q_major(capsys, tmp_path):
    out_dir = tmp_path / "w"
    code, _, _ = _run(
        capsys,
        "run",
        "wigner-equivalence",
        "--grid-n",
        "64",
        "--out",
        str(out_dir),
        "--fields",
        "wigner",
    )
    assert code == 0
    lines = (out_dir / "wigner.csv").read_text().splitlines()
    assert lines[0] == "q,p,re,im,masked"
    assert len(lines) == 1 + 64 * 64
    first_q = lines[1].split(",")[0]
    # q varies slowest: the first 64 rows share one q value
    assert all(line.split(",")[0] == first_q for line in lines[1:65])
    assert lines[65].split(",")[0] != first_q
