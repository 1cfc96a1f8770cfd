import contextlib
import gc
import importlib.resources
import importlib.util
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import sysconfig
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from oracles import csv_module_bytes
from ruelle_rand import (__version__, brownian, cli, montecarlo, pressure,
                         report)
from ruelle_rand._rng import derive_seed
from ruelle_rand.cli import dispatch
from ruelle_rand.pressure import birkhoff_pressure
from ruelle_rand.symbolic import Alphabet
from ruelle_rand.transfer import (DEFAULT_MAX_ITERS, _eigenvalue,
                                  _perron_core, _residual, build_potential,
                                  power_iterate, ratio_representation)

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
SCHEMA = json.loads((importlib.resources.files("ruelle_rand") / "schema"
                     / "report.schema.json").read_text(encoding="utf-8"))
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)

# What the wrapper an installer generates for a console_scripts entry does:
# resolve "module:attr", then exit with what it returns, under argv[0] = name.
CONSOLE_WRAPPER = """\
import sys
from importlib.metadata import EntryPoint
name, value = sys.argv[1:3]
main = EntryPoint(name=name, value=value, group="console_scripts").load()
sys.argv = [name, *sys.argv[3:]]
sys.exit(main())
"""


def run_console_script(*argv):
    """Run the ``ruelle-rand`` entry that ``[project.scripts]`` declares
    from the source tree, as its installed wrapper would."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    assert "ruelle-rand" in scripts, "[project.scripts] declares no 'ruelle-rand'"
    return subprocess.run(
        [sys.executable, "-c", CONSOLE_WRAPPER, "ruelle-rand",
         scripts["ruelle-rand"], *argv],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC))


def can_build_wheel() -> bool:
    """Whether the setuptools backend can build a wheel without a download:
    setuptools ships ``bdist_wheel`` from 70.1, older releases need ``wheel``."""
    if importlib.util.find_spec("setuptools") is None:
        return False
    return any(importlib.util.find_spec(m) is not None
               for m in ("setuptools.command.bdist_wheel", "wheel"))


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def parse_checked(stdout: str) -> dict:
    env = json.loads(stdout)
    errors = sorted(VALIDATOR.iter_errors(env), key=str)
    assert not errors, errors[0] if errors else None
    return env


# What a fresh CLI process has started and loaded once `cli` is imported.
STARTUP_PROBE = """\
import json, os, sys
import ruelle_rand.cli
task = "/proc/self/task"
print(json.dumps({
    "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": len(os.listdir(task)) if os.path.isdir(task) else None,
    "loaded": [m for m in ("multiprocessing", "csv", "numpy.random",
                           "ruelle_rand.figures", "ruelle_rand.montecarlo",
                           "ruelle_rand.pressure")
               if m in sys.modules],
}))
"""


# The same import with site processing off (`-S`), so that no `.pth` file has
# loaded modules first: the package, then the interpreter's own site-packages.
BARE_STARTUP_PROBE = """\
import json, sys, sysconfig
paths = sysconfig.get_paths()
sys.path[:0] = [sys.argv[1], paths["purelib"], paths["platlib"]]
try:
    import numpy
except ImportError:
    print("null")
    raise SystemExit
import ruelle_rand.cli
print(json.dumps([m for m in ("importlib.resources",) if m in sys.modules]))
"""


# What a fresh process has loaded after a serial montecarlo and pressure run.
SERIAL_PROBE = """\
import contextlib, io, json, sys
from ruelle_rand.cli import dispatch
with contextlib.redirect_stdout(io.StringIO()):
    codes = [dispatch([cmd, "--level", "5", "--replicas", "8",
                       "--workers", "1"]) for cmd in ("montecarlo", "pressure")]
print(json.dumps({"codes": codes,
                  "loaded": [m for m in ("multiprocessing",
                                         "concurrent.futures")
                             if m in sys.modules]}))
"""


# Whether a fresh process has loaded the pressure batch after each of a
# serial montecarlo, refine-study and pressure run, in that order.
BATCH_MODULES_PROBE = """\
import contextlib, io, json, sys
from ruelle_rand.cli import dispatch
seen = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["montecarlo", "--level", "5"],
                 ["refine-study", "--levels", "4,5"],
                 ["pressure", "--level", "5"]):
        code = dispatch(argv + ["--replicas", "4", "--workers", "1"])
        seen.append([argv[0], code, "ruelle_rand.pressure" in sys.modules])
print(json.dumps(seen))
"""


# A montecarlo batch at two workers whose child dies on its first row, while
# the parent's rows wait long enough for the child to start and claim one.
DEAD_CHILD = """\
import os, sys, time
from ruelle_rand import cli, montecarlo
parent, row = os.getpid(), montecarlo._replica_row

def dying(config, i):
    if os.getpid() != parent:
        os._exit(3)
    time.sleep(0.2)
    return row(config, i)

montecarlo._replica_row = dying
sys.exit(cli.dispatch(["montecarlo", "--level", "4", "--replicas", "8",
                       "--workers", "2"]))
"""


# A batch of one row kind at two workers, each row wrapped to return whether
# it ran in a forked child and the modules that entered sys.modules during
# it. The parent's rows wait long enough for the child to claim some.
FORKED_ROWS_PROBE = """\
import json, os, sys, time
from functools import partial
from ruelle_rand import montecarlo, pressure
parent = os.getpid()
row = {"montecarlo": montecarlo._replica_row,
       "pressure": pressure.pressure_row,
       "refine-study": partial(montecarlo._study_row, (6, 7, 8))}[sys.argv[1]]

def loads(config, i):
    before = set(sys.modules)
    row(config, i)
    loaded = sorted(set(sys.modules) - before)
    if os.getpid() == parent:
        time.sleep(0.05)
    return os.getpid() != parent, loaded

config = montecarlo.ReplicaConfig(level=8, replicas=32)
print(json.dumps(montecarlo.map_replicas(loads, config, 2)))
"""


# A montecarlo run through dispatch with extra CLI arguments: its exit code
# and report, and whether it loaded multiprocessing.
WORKERS_ENV_PROBE = """\
import contextlib, io, json, sys
from ruelle_rand.cli import dispatch
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = dispatch(["montecarlo", "--level", "4", "--replicas", "16",
                     *sys.argv[1:]])
print(json.dumps({"code": code, "report": json.loads(out.getvalue())["report"],
                  "pool": "multiprocessing" in sys.modules}))
"""


# An atexit hook that reports the frozen object count, then argv run
# through cli.main as `python -m ruelle_rand.cli` runs it, or through
# cli.dispatch.
FREEZE_PROBE = """\
import atexit, gc, runpy, sys
atexit.register(lambda: sys.stderr.write(f"frozen {gc.get_freeze_count()}\\n"))
if sys.argv[1] == "main":
    del sys.argv[1]
    runpy.run_module("ruelle_rand.cli", run_name="__main__", alter_sys=True)
from ruelle_rand import cli
sys.exit(cli.dispatch(sys.argv[2:]))
"""


# The package modules a fresh process has loaded after each CLI call.
SKOROKHOD_PROBE = """\
import contextlib, io, json, sys
from ruelle_rand.cli import dispatch
seen = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["spectrum", "--level", "6"],
                 ["pressure", "--level", "5", "--replicas", "4"],
                 ["montecarlo", "--level", "5", "--replicas", "4"],
                 ["isometry-check", "--level", "4", "--trials", "2"]):
        code = dispatch(argv)
        seen.append([argv[0], code, "ruelle_rand.skorokhod" in sys.modules])
print(json.dumps(seen))
"""


def startup_probe(**env) -> dict:
    base = {k: v for k, v in os.environ.items()
            if k != "OPENBLAS_NUM_THREADS"}
    out = subprocess.run([sys.executable, "-c", STARTUP_PROBE],
                         capture_output=True, text=True, timeout=60,
                         env=dict(base, PYTHONPATH=SRC, **env), check=True)
    return json.loads(out.stdout)


class TestStartup:
    def test_one_blas_thread_and_no_unused_imports(self):
        probe = startup_probe()
        assert probe["blas_threads"] == "1"
        assert probe["loaded"] == []
        if probe["threads"] is None:
            pytest.skip("no /proc/self/task to count threads")
        assert probe["threads"] == 1

    def test_serial_batch_starts_no_pool(self):
        out = subprocess.run([sys.executable, "-c", SERIAL_PROBE],
                             capture_output=True, text=True, timeout=60,
                             env=dict(os.environ, PYTHONPATH=SRC), check=True)
        assert json.loads(out.stdout) == {"codes": [0, 0], "loaded": []}

    def test_engine_loads_no_batch(self):
        # the replica engine imports no batch module: only pressure loads
        # its own
        out = subprocess.run([sys.executable, "-c", BATCH_MODULES_PROBE],
                             capture_output=True, text=True, timeout=60,
                             env=dict(os.environ, PYTHONPATH=SRC), check=True)
        assert json.loads(out.stdout) == [["montecarlo", 0, False],
                                          ["refine-study", 0, False],
                                          ["pressure", 0, True]]

    @pytest.mark.parametrize("kind", ["montecarlo", "pressure", "refine-study"])
    def test_forked_rows_import_nothing(self, kind):
        out = subprocess.run([sys.executable, "-c", FORKED_ROWS_PROBE, kind],
                             capture_output=True, text=True, timeout=60,
                             env=dict(os.environ, PYTHONPATH=SRC), check=True)
        rows = json.loads(out.stdout)
        assert len(rows) == 32
        assert any(in_child for in_child, _ in rows)
        assert [loaded for _, loaded in rows if loaded] == []

    def test_main_freezes_the_import_heap(self):
        def run(entry):
            out = subprocess.run(
                [sys.executable, "-c", FREEZE_PROBE, entry, "spectrum",
                 "--level", "6"], capture_output=True, text=True, timeout=60,
                env=dict(os.environ, PYTHONPATH=SRC))
            assert out.returncode == 0, out.stderr
            [line] = out.stderr.splitlines()
            stdout = re.sub(r'"timestamp":"[^"]*"', '"timestamp":"*"',
                            out.stdout)
            return int(line.split()[1]), stdout

        frozen, main_out = run("main")
        unfrozen, dispatch_out = run("dispatch")
        assert frozen > 0 and unfrozen == 0
        assert main_out == dispatch_out

    def test_dispatch_leaves_the_collector_alone(self, capsys):
        before = gc.get_freeze_count()
        assert run_cli(capsys, "spectrum", "--level", "4")[0] == 0
        assert gc.get_freeze_count() == before

    def test_skorokhod_loads_only_for_isometry_check(self):
        out = subprocess.run([sys.executable, "-c", SKOROKHOD_PROBE],
                             capture_output=True, text=True, timeout=60,
                             env=dict(os.environ, PYTHONPATH=SRC), check=True)
        assert json.loads(out.stdout) == [["spectrum", 0, False],
                                          ["pressure", 0, False],
                                          ["montecarlo", 0, False],
                                          ["isometry-check", 0, True]]

    def test_explicit_blas_threads_kept(self):
        assert startup_probe(OPENBLAS_NUM_THREADS="3")["blas_threads"] == "3"

    def test_no_unused_imports_without_site(self):
        out = subprocess.run([sys.executable, "-S", "-c", BARE_STARTUP_PROBE,
                              SRC], capture_output=True, text=True,
                             timeout=60, check=True)
        loaded = json.loads(out.stdout)
        if loaded is None:
            pytest.skip("numpy is not importable from sysconfig's "
                        "site-packages without site")
        assert loaded == []


class TestUsage:
    def test_no_subcommand(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "usage" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "spectrum")
        assert code == 1

    def test_non_integer_level(self, capsys):
        code, _, _ = run_cli(capsys, "spectrum", "--level", "abc")
        assert code == 1

    def test_version_flag(self, capsys):
        code, out, err = run_cli(capsys, "--version")
        assert code == 0
        assert __version__ in out + err

    def test_console_script_installed(self):
        # The installed `ruelle-rand` is a wrapper around the entry that
        # pyproject.toml declares, so the declared entry is what is checked:
        # it must resolve, report the version, and carry dispatch's exit code.
        out = run_console_script("--version")
        assert out.returncode == 0, out.stderr
        assert __version__ in out.stdout + out.stderr
        out = run_console_script()
        assert out.returncode == 1, out.stderr
        assert "usage" in out.stderr

    @pytest.mark.skipif(not can_build_wheel(),
                        reason="setuptools cannot build a wheel: neither "
                               "setuptools.command.bdist_wheel nor wheel is importable")
    def test_console_script_from_built_package(self, tmp_path):
        # Built from a copy so that the checkout gains no build/ or *.egg-info;
        # --ignore-installed keeps pip from uninstalling an existing ruelle-rand.
        project = tmp_path / "project"
        project.mkdir()
        shutil.copy(ROOT / "pyproject.toml", project)
        shutil.copytree(SRC, project / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        prefix = str(tmp_path / "prefix")
        install = subprocess.run(
            [sys.executable, "-m", "pip", "install", "--no-deps", "--no-index",
             "--no-build-isolation", "--ignore-installed", "--prefix", prefix,
             str(project)],
            capture_output=True, text=True, timeout=300)
        assert install.returncode == 0, install.stdout + install.stderr
        paths = sysconfig.get_paths(sysconfig.get_preferred_scheme("prefix"),
                                    vars={"base": prefix, "platbase": prefix})
        out = subprocess.run(
            [str(Path(paths["scripts"]) / "ruelle-rand"), "--version"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=paths["purelib"]))
        assert out.returncode == 0, out.stderr
        assert __version__ in out.stdout + out.stderr

    def test_module_entry_point(self):
        out = subprocess.run([sys.executable, "-m", "ruelle_rand.cli", "--version"],
                             capture_output=True, text=True, timeout=60,
                             env=dict(os.environ, PYTHONPATH=SRC))
        assert out.returncode == 0
        assert __version__ in out.stdout + out.stderr

    def test_memory_error_is_reported(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.0 TiB")
        monkeypatch.setattr(brownian, "sample", exhausted)
        code, out, err = run_cli(capsys, "spectrum", "--level", "40")
        assert code == 1
        assert out == ""
        assert err == "error: Unable to allocate 8.0 TiB\n"

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--level", "40"),
        ("sample-path", "--level", "25"),
        ("isometry-check", "--level", "16", "--alphabet", "3"),
        ("montecarlo", "--level", "30", "--replicas", "2"),
        ("pressure", "--level", "30", "--replicas", "2"),
        ("refine-study", "--levels", "4,25", "--replicas", "1"),
    ], ids=lambda a: a[0])
    def test_cell_budget_refused_before_allocating(self, capsys, monkeypatch,
                                                   argv):
        def no_draws(*args, **kwargs):
            raise AssertionError("random draws past the cell budget")
        monkeypatch.setattr(brownian, "level_stream", no_draws)
        monkeypatch.setattr(cli, "level_stream", no_draws)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "cells, more than the budget of 16777216" in err

    @pytest.mark.parametrize("beta", ["inf", "-inf", "nan", "-1"])
    @pytest.mark.parametrize("argv", [
        ("spectrum", "--level", "17"),
        ("pressure", "--level", "6", "--replicas", "2"),
        ("montecarlo", "--level", "6", "--replicas", "2"),
        ("refine-study", "--levels", "4,6", "--replicas", "2"),
    ], ids=lambda a: a[0])
    def test_bad_beta_refused_before_sampling(self, capsys, monkeypatch,
                                              argv, beta):
        def no_path(*args, **kwargs):
            raise AssertionError("path sampled for a refused --beta")
        monkeypatch.setattr(brownian, "sample", no_path)
        code, out, err = run_cli(capsys, *argv, f"--beta={beta}")
        assert code == 1
        assert out == ""
        errors = [l for l in err.splitlines() if "error:" in l]
        assert len(errors) == 1 and "--beta" in errors[0]

    def test_cell_budget_boundary(self):
        brownian.check_cells(24, Alphabet(2))
        brownian.check_cells(15, Alphabet(3))
        with pytest.raises(ValueError):
            brownian.check_cells(25, Alphabet(2))
        with pytest.raises(ValueError):
            brownian.check_cells(16, Alphabet(3))

    def test_schema_is_valid_draft(self):
        VALIDATOR.check_schema(SCHEMA)


# Runs that write files, by relative name from a scratch directory: "a" is a
# CSV or SVG, "b" the --out copy of the envelope, "in.csv" a plot's input.
WRITING_RUNS = {
    "sample-path": [["sample-path", "--level", "6", "--seed", "1",
                     "--csv", "a", "--out", "b"]],
    "spectrum": [["spectrum", "--level", "5", "--seed", "2",
                  "--emit-eigenfunction", "a", "--out", "b"]],
    "pressure": [["pressure", "--level", "5", "--replicas", "4", "--kmax", "8",
                  "--emit-birkhoff", "a", "--out", "b"]],
    "montecarlo": [["montecarlo", "--level", "5", "--replicas", "8",
                    "--csv", "a", "--out", "b"]],
    "plot-path": [["sample-path", "--level", "5", "--csv", "in.csv"],
                  ["plot", "--kind", "path", "--input", "in.csv", "--out", "a"]],
    "plot-histogram": [["montecarlo", "--level", "5", "--replicas", "12",
                        "--csv", "in.csv"],
                       ["plot", "--kind", "histogram", "--input", "in.csv",
                        "--out", "a"]],
    "plot-birkhoff": [["pressure", "--level", "5", "--replicas", "4",
                       "--kmax", "16", "--emit-birkhoff", "in.csv"],
                      ["plot", "--kind", "birkhoff", "--input", "in.csv",
                       "--out", "a"]],
}


@contextlib.contextmanager
def truncating_output(path):
    with open(path, "w", encoding="utf-8") as fh:
        yield fh


class TestOutputFiles:
    @pytest.mark.parametrize("name", sorted(WRITING_RUNS))
    def test_rewrite_bytes_equal_a_truncating_write(self, capsys, monkeypatch,
                                                    tmp_path, name):
        def run_all(where, stale):
            where.mkdir()
            for f in stale:
                (where / f).write_text("stale " * 50_000)
            monkeypatch.chdir(where)
            for argv in WRITING_RUNS[name]:
                code, out, _ = run_cli(capsys, *argv)
                assert code == 0
            return {f: (where / f).read_bytes() for f in ("a", "b", "in.csv")
                    if (where / f).exists()}, out

        with monkeypatch.context() as mp:
            mp.setattr(report, "open_output", truncating_output)
            plain, _ = run_all(tmp_path / "plain", ())
        rewritten, out = run_all(tmp_path / "rewritten", plain)
        assert rewritten.keys() == plain.keys()
        for f in plain.keys() - {"b"}:
            assert rewritten[f] == plain[f], f
        if "b" in plain:
            # the envelope's timestamp may differ between the two runs
            ref = tmp_path / "stdout.json"
            with open(ref, "w", encoding="utf-8") as fh:
                fh.write(out)
            assert rewritten["b"] == ref.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["sample-path", "--level", "9", "--seed", "4", "--csv"],
        ["spectrum", "--level", "9", "--alphabet", "3", "--seed", "4",
         "--emit-eigenfunction"],
        ["pressure", "--level", "6", "--replicas", "4", "--seed", "4",
         "--emit-birkhoff"],
        ["montecarlo", "--level", "6", "--replicas", "16", "--seed", "4",
         "--csv"],
    ], ids=["grid", "eigenfunction", "birkhoff", "montecarlo"])
    def test_csv_bytes_equal_the_csv_module(self, capsys, monkeypatch,
                                            tmp_path, argv):
        written = []
        write = report.write_csv

        def kept(path, header, rows):
            rows = list(rows)
            written.append((header, rows))
            write(path, header, rows)
        monkeypatch.setattr(report, "write_csv", kept)
        path = tmp_path / "out.csv"
        assert run_cli(capsys, *argv, str(path))[0] == 0
        [(header, rows)] = written
        assert path.read_bytes() == csv_module_bytes(header, rows)

    def test_unwritable_out_leaves_stdout_empty(self, capsys, tmp_path):
        dest = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "spectrum", "--level", "3",
                                 "--out", str(dest))
        assert code == 1
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("error: [Errno 2] ") and str(dest) in line

    @pytest.mark.skipif(not os.path.exists("/dev/null"),
                        reason="no /dev/null")
    @pytest.mark.parametrize("argv", [
        ("spectrum", "--level", "3", "--out"),
        ("pressure", "--level", "5", "--replicas", "4", "--emit-birkhoff")])
    def test_dev_null_target(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "/dev/null")
        assert code == 0
        parse_checked(out)


class TestSamplePath:
    def test_report_shape(self, capsys):
        code, out, _ = run_cli(capsys, "sample-path", "--level", "6",
                               "--seed", "9")
        assert code == 0
        env = parse_checked(out)
        assert env["schema_version"] == "2"
        assert env["manifest"]["subcommand"] == "sample-path"
        assert env["manifest"]["version"] == __version__
        rep = env["report"]
        assert rep["level"] == 6 and rep["alphabet"] == 2 and rep["seed"] == 9
        assert rep["stats"]["gamma"] == 0.4
        assert rep["stats"]["min"] <= 0.0 <= rep["stats"]["max"]

    def test_zero_noise(self, capsys):
        code, out, _ = run_cli(capsys, "sample-path", "--level", "5",
                               "--zero-noise")
        assert code == 0
        rep = parse_checked(out)["report"]
        assert rep["b1"] == 0.0
        assert rep["stats"]["max"] == 0.0 and rep["stats"]["holder_constant"] == 0.0

    def test_csv_sidecar(self, capsys, tmp_path):
        csv = tmp_path / "path.csv"
        code, out, _ = run_cli(capsys, "sample-path", "--level", "4",
                               "--csv", str(csv))
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "k,t,value"
        assert len(lines) == 1 + 17
        ts = [float(l.split(",")[1]) for l in lines[1:]]
        assert ts == sorted(ts) and ts[0] == 0.0 and ts[-1] == 1.0
        assert str(csv) in parse_checked(out)["manifest"]["outputs"]

    def test_out_file_duplicates_stdout(self, capsys, tmp_path):
        dest = tmp_path / "rep.json"
        code, out, _ = run_cli(capsys, "sample-path", "--level", "3",
                               "--out", str(dest))
        assert code == 0
        assert dest.read_text() == out

    def test_stable_report_across_runs(self, capsys):
        _, out1, _ = run_cli(capsys, "sample-path", "--level", "5", "--seed", "4")
        _, out2, _ = run_cli(capsys, "sample-path", "--level", "5", "--seed", "4")
        # manifests carry a timestamp; the report payload must match exactly
        assert json.loads(out1)["report"] == json.loads(out2)["report"]

    def test_bad_gamma(self, capsys):
        code, _, err = run_cli(capsys, "sample-path", "--level", "4",
                               "--gamma", "0.6")
        assert code == 1
        assert "error" in err


class TestSpectrum:
    def test_zero_noise_exact(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--level", "8", "--zero-noise")
        assert code == 0
        rep = parse_checked(out)["report"]
        assert rep["lambda"] == 2.0
        assert rep["residual"] == 0.0
        assert rep["converged"] is True
        assert rep["ratio_point"] == "1/2^1"
        assert rep["pathwise_bounds"]["lower_ok"] and rep["pathwise_bounds"]["upper_ok"]

    def test_seeded_identities(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--level", "10", "--seed", "3")
        assert code == 0
        rep = parse_checked(out)["report"]
        assert rep["ratio_identity_gap"] <= 1e-10
        assert rep["lambda"] > 1.0
        assert rep["log_lambda"] == pytest.approx(math.log(rep["lambda"]), rel=1e-14)
        lo, hi = rep["cw_bracket"]
        assert lo <= rep["lambda"] <= hi
        assert hi - lo <= 1e-12 * hi

    def test_near_cyclic_large_beta_certified(self, capsys):
        # spectrum-hot's near-cyclic path (arg lambda_2 = pi); the interval
        # is the Collatz-Wielandt bracket of an independent shifted solve
        code, out, _ = run_cli(capsys, "spectrum", "--level", "12", "--seed",
                               "0", "--beta", "10")
        assert code == 0
        rep = parse_checked(out)["report"]
        assert rep["converged"] is True
        lo, hi = 993.7915034005943, 993.7915034006005
        assert lo * (1 - 1e-9) <= rep["lambda"] <= hi * (1 + 1e-9)
        assert rep["iterations"] < 1000

    def test_lambda_overflow_is_stated(self):
        # a fresh interpreter, so that any RuntimeWarning reaches stderr
        out = subprocess.run([sys.executable, "-m", "ruelle_rand.cli",
                              "spectrum", "--level", "8", "--seed", "1",
                              "--beta", "1000"],
                             capture_output=True, text=True, timeout=60,
                             env=dict(os.environ, PYTHONPATH=SRC))
        assert out.returncode == 1
        assert out.stdout == ""
        [line] = out.stderr.splitlines()
        assert line.startswith("error: ")
        assert "log_lambda = 1339.19" in line and "overflows float64" in line

    def test_h_overflow_is_no_warning(self, capsys):
        # in process, under the suite's error::RuntimeWarning filter: h spans
        # past e^709 on this path, and lambda's overflow is the stated reason
        code, out, err = run_cli(capsys, "spectrum", "--level", "10",
                                 "--seed", "1", "--beta", "700")
        assert (code, out) == (1, "")
        assert err == ("error: lambda = exp(log_lambda) with log_lambda = "
                       "715.08841394975252 overflows float64\n")
        code, out, err = run_cli(capsys, "montecarlo", "--level", "6",
                                 "--replicas", "4", "--beta", "1000")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_lambda_finite_past_the_core_scale(self, capsys):
        # in process, under the suite's filter: the core's scale e^c is past
        # float64 on this path, lambda = e^616.73 is not
        code, out, _ = run_cli(capsys, "spectrum", "--level", "8", "--beta",
                               "700", "--seed", "14232521865600346940")
        assert code == 0
        rep = parse_checked(out)["report"]
        assert rep["converged"] is True
        assert rep["lambda"] == pytest.approx(math.exp(rep["log_lambda"]),
                                              rel=1e-14)
        assert rep["log_lambda"] == pytest.approx(616.73, abs=0.01)
        lo, hi = rep["cw_bracket"]
        assert lo <= rep["lambda"] <= hi
        assert rep["ratio_identity_gap"] <= 1e-11
        assert rep["pathwise_bounds"] == {"lower_ok": True, "upper_ok": True}

    def test_ratio_term_fits_where_h_overflows(self, capsys, tmp_path):
        # in process, under the suite's filter: lambda = e^600.8 fits, but
        # h[1 0^7] = e^840.8 does not; the term e^-240.2 h[1 0^7] is formed
        # from log h, so the ratio identity is reported, while the CSV of h
        # stops at its first entry past float64
        argv = ("spectrum", "--level", "8", "--beta", "700", "--seed",
                "13877614986023876344")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        rep = parse_checked(out)["report"]
        assert rep["log_lambda"] == pytest.approx(600.81, abs=0.01)
        assert rep["ratio_identity_gap"] <= 1e-11
        csv = tmp_path / "h.csv"
        code, out, err = run_cli(capsys, *argv, "--emit-eigenfunction",
                                 str(csv))
        assert (code, out) == (1, "")
        assert err == "error: non-finite number in report: inf\n"
        header, *rows = csv.read_text().splitlines()
        assert header == "word,t,h" and 0 < len(rows) < 256
        assert all(math.isfinite(float(r.split(",")[2])) for r in rows)

    @pytest.mark.parametrize("beta", ["0", "1", "10", "700"])
    def test_residual_is_the_quotient_residual(self, capsys, beta):
        # formed where spectrum reads it, from the core's own logs
        code, out, _ = run_cli(capsys, "spectrum", "--level", "8", "--seed",
                               "2", "--beta", beta)
        rep = parse_checked(out)["report"]
        grid = brownian.sample(8, Alphabet(2), 2)
        potential = build_potential(grid, float(beta))
        logH, c, lo, hi, *_ = _perron_core(potential.phi, 2, 8,
                                           DEFAULT_MAX_ITERS)
        llam = _eigenvalue(c, lo, hi)[1]
        assert code == 0
        assert rep["residual"] == _residual(potential, logH, llam)

    def test_beta_warning_with_zero_noise(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--level", "4",
                               "--zero-noise", "--beta", "2.0")
        assert code == 0
        assert "no effect" in err

    def test_trinary_ratio_point(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--level", "4",
                               "--alphabet", "3", "--seed", "6")
        assert code == 0
        assert parse_checked(out)["report"]["ratio_point"] == "1/3^1"

    @pytest.mark.parametrize("m,level", [(2, 3), (3, 2), (10, 2)])
    def test_eigenfunction_csv(self, capsys, tmp_path, m, level):
        csv = tmp_path / "h.csv"
        code, _, _ = run_cli(capsys, "spectrum", "--level", str(level),
                             "--alphabet", str(m), "--seed", "2",
                             "--emit-eigenfunction", str(csv))
        assert code == 0
        header, *rows = [l.split(",") for l in csv.read_text().splitlines()]
        assert header == ["word", "t", "h"]
        grid = brownian.sample(level, Alphabet(m), 2)
        h = power_iterate(build_potential(grid, 1.0)).h.values
        # oracle rows: the k-th word of the lex enumeration, its exact time
        words = list(itertools.product(range(m), repeat=level))
        assert len(rows) == len(words) == m**level
        for k, (w, (word, t, hk)) in enumerate(zip(words, rows)):
            assert word == "".join(str(a) for a in w)
            assert float(t) == float(Fraction(k, m**level))
            assert float(hk) == h[k] > 0

    @pytest.mark.parametrize("m,level", [(2, 1), (2, 9), (3, 1), (3, 5),
                                         (7, 1), (7, 3), (10, 1), (10, 3)])
    def test_word_column_is_base_m(self, m, level):
        words = cli._words(m, level)
        assert words.dtype == np.dtype(f"S{level}")
        assert [w.decode() for w in words] == [
            np.base_repr(k, m).zfill(level) for k in range(m**level)]

    def test_wide_alphabet_csv_refused_before_sampling(self, capsys,
                                                       monkeypatch, tmp_path):
        def no_path(*args, **kwargs):
            raise AssertionError("path sampled for an unwritable CSV")
        monkeypatch.setattr(brownian, "sample", no_path)
        csv = tmp_path / "h.csv"
        code, out, err = run_cli(capsys, "spectrum", "--level", "6",
                                 "--alphabet", "11",
                                 "--emit-eigenfunction", str(csv))
        assert code == 1
        assert out == ""
        assert err == "error: digit serialization defined for m <= 10\n"
        assert not csv.exists()

    def test_tiny_alphabet_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "spectrum", "--level", "4",
                             "--alphabet", "1")
        assert code == 1


class TestIsometryCheck:
    def test_exactness(self, capsys):
        code, out, _ = run_cli(capsys, "isometry-check", "--level", "6",
                               "--trials", "50", "--seed", "1")
        assert code == 0
        rep = parse_checked(out)["report"]
        assert rep["max_norm_discrepancy"] == 0.0
        assert rep["roundtrip_failures"] == 0
        assert rep["trials"] == 50

    def test_trinary(self, capsys):
        code, out, _ = run_cli(capsys, "isometry-check", "--level", "4",
                               "--alphabet", "3", "--trials", "20")
        assert code == 0
        assert parse_checked(out)["report"]["roundtrip_failures"] == 0

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_no_trials_is_usage_error(self, capsys, trials):
        code, out, err = run_cli(capsys, "isometry-check", "--level", "4",
                                 "--trials", trials)
        assert (code, out) == (1, "")
        assert err == "error: trials must be >= 1\n"


class TestPressure:
    def test_small_batch(self, capsys, tmp_path):
        csv = tmp_path / "birkhoff.csv"
        code, out, _ = run_cli(capsys, "pressure", "--level", "6",
                               "--replicas", "16", "--kmax", "8",
                               "--seed", "5", "--emit-birkhoff", str(csv))
        assert code == 0
        rep = parse_checked(out)["report"]
        assert rep["n"] == 16 and rep["n_failed"] == 0
        assert rep["jensen_ok"] and rep["bounds_ok"] and rep["all_positive"]
        assert rep["variational_violations"] == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "k,value"
        assert [int(l.split(",")[0]) for l in lines[1:]] == list(range(1, 9))

    def test_flat_potential_pins_mean(self, capsys):
        code, out, _ = run_cli(capsys, "pressure", "--level", "5",
                               "--replicas", "4", "--kmax", "4", "--beta", "0")
        assert code == 0
        rep = parse_checked(out)["report"]
        assert rep["mean_log_lambda"] == pytest.approx(math.log(2), rel=1e-12)
        assert rep["stderr"] == 0.0

    @pytest.mark.parametrize("beta", [2.0, 4.0, 6.0])
    def test_band_holds_at_beta(self, capsys, beta):
        code, out, _ = run_cli(capsys, "pressure", "--level", "10",
                               "--replicas", "16", "--beta", str(beta),
                               "--seed", "0")
        assert code == 0
        rep = parse_checked(out)["report"]
        assert rep["bounds_ok"] is True
        assert rep["band"] == [0.0, math.log(4) + beta**2 / 2]

    def test_band_holds_at_large_beta(self, capsys):
        # the exit code is left out: one of these replicas has lambda - 1
        # below float64 resolution, so its log lambda > 0 cannot be shown
        _, out, _ = run_cli(capsys, "pressure", "--level", "8",
                            "--replicas", "8", "--beta", "10")
        rep = parse_checked(out)["report"]
        assert rep["n_failed"] == 0
        assert rep["mean_log_lambda"] > math.log(4) + 0.5
        assert rep["bounds_ok"] is True

    def test_jensen_check_past_float64(self, capsys):
        # in process, under the suite's error::RuntimeWarning filter: two
        # replicas have log lambda 751.8 and 1135.7, so the mean of lambda
        # is inf, and Jensen's mean(log) <= log(mean) holds there
        code, out, err = run_cli(capsys, "pressure", "--level", "8",
                                 "--replicas", "16", "--beta", "700",
                                 "--seed", "1")
        rep = parse_checked(out)["report"]
        assert rep["jensen_ok"] is True
        assert rep["n"] + rep["n_failed"] == 16
        # all_positive is false: two replicas have lambda - 1 below float64
        # resolution (ROADMAP item 1)
        assert (code, err) == (2, "")

    @pytest.mark.parametrize("emit", [False, True])
    def test_zero_kmax_refused_before_sampling(self, capsys, monkeypatch,
                                               tmp_path, emit):
        def no_path(*args, **kwargs):
            raise AssertionError("path sampled for a refused --kmax")
        monkeypatch.setattr(brownian, "sample", no_path)
        csv = tmp_path / "birkhoff.csv"
        extra = ("--emit-birkhoff", str(csv)) if emit else ()
        code, out, err = run_cli(capsys, "pressure", "--level", "5",
                                 "--replicas", "2", "--kmax", "0", *extra)
        assert code == 1
        assert out == ""
        assert "kmax must be >= 1" in err
        assert not csv.exists()

    def test_birkhoff_from_first_converged_replica(self, capsys, monkeypatch,
                                                   tmp_path):
        # replica 0's right solve is made to fail; the CSV must then hold
        # replica 1's iterates
        calls = []
        solve = pressure.power_iterate

        def fail_first(potential, *args):
            res = solve(potential, *args)
            calls.append(potential)
            return replace(res, converged=False) if len(calls) == 1 else res
        monkeypatch.setattr(pressure, "power_iterate", fail_first)
        csv = tmp_path / "birkhoff.csv"
        code, out, _ = run_cli(capsys, "pressure", "--level", "6",
                               "--replicas", "3", "--kmax", "8", "--seed", "4",
                               "--workers", "1", "--emit-birkhoff", str(csv))
        assert code == 0
        rep = parse_checked(out)["report"]
        assert rep["n"] == 2 and rep["n_failed"] == 1
        first, second = (birkhoff_pressure(p, 0, 8) for p in calls[:2])
        assert not np.array_equal(first, second)
        values = [float(l.split(",")[1])
                  for l in csv.read_text().splitlines()[1:]]
        assert values == [float(v) for v in second]

    @pytest.mark.parametrize("beta", ["0", "1e-16", "1e-12", "1e-10", "1e-8"])
    def test_small_beta_passes_every_check(self, capsys, beta):
        # the variational bound and Jensen's order are exact, so at tiny
        # beta only rounding separates their two sides
        failed = []
        for m, level, seed in itertools.product((2, 3), (1, 3, 6), range(4)):
            cell = ("--alphabet", str(m), "--level", str(level),
                    "--seed", str(seed))
            code, out, _ = run_cli(capsys, "pressure", *cell, "--beta", beta,
                                   "--replicas", "8", "--workers", "1")
            if code != 0:
                failed.append((cell, parse_checked(out)["report"]))
        assert failed == []

    def test_under_reported_eigenvalue_is_a_violation(self, capsys,
                                                      monkeypatch):
        # a log lambda 0.01 low puts the Bernoulli bound above it on some
        # replicas: the variational check must see that
        solve = pressure.power_iterate

        def under(potential, *a):
            res = solve(potential, *a)
            return replace(res, log_eigenvalue=res.log_eigenvalue - 0.01)
        monkeypatch.setattr(pressure, "power_iterate", under)
        code, out, _ = run_cli(capsys, "pressure", "--level", "10",
                               "--replicas", "64", "--seed", "0",
                               "--workers", "1")
        rep = parse_checked(out)["report"]
        assert code == 2
        assert rep["variational_violations"] > 0

    def test_zero_replicas_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "pressure", "--level", "5",
                                 "--replicas", "0")
        assert code == 1
        assert out == ""
        assert "need at least one replica" in err


class TestMontecarlo:
    def test_batch_with_csv(self, capsys, tmp_path):
        csv = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "montecarlo", "--level", "6",
                               "--replicas", "24", "--seed", "8",
                               "--csv", str(csv))
        assert code == 0
        env = parse_checked(out)
        rep = env["report"]
        assert rep["n_converged"] == 24 and rep["n_failed"] == 0
        assert env["manifest"]["wall_time"] > 0 and "wall_time" not in rep
        assert rep["bounds_ok"] is True
        assert rep["expectation_band_ok"] is True
        assert rep["tightened"]["tightened_bound_ok"] is True
        lines = csv.read_text().splitlines()
        assert lines[0] == "seed,lambda,log_lambda,M1,B1"
        assert len(lines) == 25

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_report_is_the_aggregate_report(self, capsys, beta):
        # the CLI adds no key: every field, verdicts included, is built by
        # montecarlo.aggregate
        code, out, _ = run_cli(capsys, "montecarlo", "--level", "6",
                               "--replicas", "16", "--seed", "2",
                               "--beta", str(beta))
        cfg = montecarlo.ReplicaConfig(level=6, beta=beta, master_seed=2,
                                       replicas=16)
        expected = montecarlo.run(cfg)[1].to_dict()
        assert code == 0
        assert parse_checked(out)["report"] == expected
        assert (expected["expectation_band_ok"] is None) == (beta != 1.0)

    def test_band_only_gated_at_unit_beta(self, capsys):
        code, out, _ = run_cli(capsys, "montecarlo", "--level", "5",
                               "--replicas", "6", "--beta", "0.5")
        assert code == 0
        assert parse_checked(out)["report"]["expectation_band_ok"] is None

    @pytest.mark.parametrize("argv", [
        ["montecarlo", "--level", "6", "--replicas", "12", "--seed", "3"],
        ["refine-study", "--levels", "5,7", "--replicas", "8", "--seed", "3"],
        ["pressure", "--level", "6", "--replicas", "12", "--seed", "3",
         "--kmax", "8"],
    ], ids=["montecarlo", "refine-study", "pressure"])
    def test_worker_count_does_not_change_report(self, capsys, argv):
        _, out1, _ = run_cli(capsys, *argv, "--workers", "1")
        for workers in ("2", "3"):
            _, out2, _ = run_cli(capsys, *argv, "--workers", workers)
            assert json.loads(out1)["report"] == json.loads(out2)["report"]

    def test_all_replicas_failed(self, capsys, monkeypatch):
        solve = montecarlo.power_iterate
        monkeypatch.setattr(montecarlo, "power_iterate",
                            lambda p, *a: replace(solve(p, *a), converged=False))
        code, out, err = run_cli(capsys, "montecarlo", "--level", "4",
                                 "--replicas", "3")
        assert code == 2
        assert out == ""
        assert err == "error: all replicas failed to converge\n"

    def test_zero_h_entry_is_a_positivity_violation(self, capsys,
                                                    monkeypatch):
        solve = montecarlo.power_iterate
        calls = []

        def zero_last(potential, *a):
            res = solve(potential, *a)
            log_h = res.log_h.copy()
            if not calls:
                log_h[-1] = -np.inf  # h = 0 on words no other check reads
            calls.append(1)
            return replace(res, log_h=log_h)
        argv = ("montecarlo", "--level", "6", "--replicas", "3",
                "--workers", "1")
        assert run_cli(capsys, *argv)[0] == 0  # the unpatched batch passes
        monkeypatch.setattr(montecarlo, "power_iterate", zero_last)
        code, out, _ = run_cli(capsys, *argv)
        rep = parse_checked(out)["report"]
        assert len(calls) == 3
        assert rep["bound_violations"] == {"lower": 0, "upper": 0,
                                           "positivity": 1}
        assert rep["bounds_ok"] is False
        assert code == 2

    @pytest.mark.parametrize("beta", ["30", "100"])
    def test_underflowing_nu_is_no_violation(self, capsys, beta):
        # entries of nu fall below float64 here; the floor stays finite
        code, out, _ = run_cli(capsys, "montecarlo", "--level", "10",
                               "--replicas", "64", "--beta", beta)
        rep = parse_checked(out)["report"]
        assert rep["n_failed"] == 0
        assert rep["bound_violations"]["positivity"] == 0
        assert rep["positivity_log_floor"] < math.log(sys.float_info.min)
        assert rep["bounds_ok"] is True
        assert code == 0

    def test_underflowing_h_is_no_violation(self, capsys):
        # one path's h has entries below e^-745, 0 in float64; its log H
        # and the floor stay finite, so h > 0 as nu is
        code, out, _ = run_cli(capsys, "montecarlo", "--level", "6",
                               "--replicas", "4", "--beta", "200", "--seed",
                               "0")
        rep = parse_checked(out)["report"]
        assert rep["n_failed"] == 0
        assert rep["bound_violations"]["positivity"] == 0
        assert code == 0

    def test_workers_help_names_the_env_var(self, capsys):
        code, out, _ = run_cli(capsys, "montecarlo", "--help")
        assert code == 0
        assert f"${cli.WORKERS_ENV}" in out

    def test_workers_env_still_sets_the_cli_default(self):
        # the CLI resolves the variable and hands the count to the engine
        base = {k: v for k, v in os.environ.items()
                if k != "RUELLE_RAND_WORKERS"}
        runs = [json.loads(subprocess.run(
            [sys.executable, "-c", WORKERS_ENV_PROBE, *argv],
            capture_output=True, text=True, timeout=60, check=True,
            env=dict(base, PYTHONPATH=SRC, **env)).stdout)
            for argv, env in (([], {"RUELLE_RAND_WORKERS": "2"}),
                              (["--workers", "1"], {}))]
        assert runs[0]["pool"]
        assert runs[0]["code"] == runs[1]["code"]
        assert runs[0]["report"] == runs[1]["report"]

    def test_only_the_cli_reads_the_environment(self):
        readers = sorted(
            p.name for p in (ROOT / "src" / "ruelle_rand").glob("*.py")
            if any(s in p.read_text(encoding="utf-8")
                   for s in ("os.environ", "getenv")))
        assert readers == ["cli.py"]

    def test_bad_workers_env(self, capsys, monkeypatch):
        monkeypatch.setenv("RUELLE_RAND_WORKERS", "zero")
        code, _, err = run_cli(capsys, "montecarlo", "--level", "4",
                               "--replicas", "2")
        assert code == 1
        assert "error" in err

    def test_non_integer_workers_env_names_the_variable(self, capsys,
                                                        monkeypatch):
        monkeypatch.setenv("RUELLE_RAND_WORKERS", "abc")
        code, out, err = run_cli(capsys, "montecarlo", "--level", "4",
                                 "--replicas", "2")
        assert (code, out) == (1, "")
        assert err.startswith("error: RUELLE_RAND_WORKERS='abc' ")
        assert "invalid literal" not in err

    def test_overflowing_lambda_names_log_lambda(self, capsys):
        # in process, under the suite's error::RuntimeWarning filter: no
        # mean, stderr or quantile is taken over an infinite lambda, and no
        # check that overflows with it runs on its row
        code, out, err = run_cli(capsys, "montecarlo", "--level", "8",
                                 "--replicas", "16", "--beta", "700",
                                 "--seed", "1")
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        assert line.startswith("error: replica 8 ")
        assert "log_lambda = 751.78" in line
        assert line.endswith("overflows float64")

    def test_ratio_term_fits_past_the_weight_overflow(self, capsys):
        # in process, under the suite's filter: replica 2 has beta B_{1/2} =
        # 861 and h[1 0^7] = 5.3e-123, a term that fits though e^861 does
        # not; the batch then stops on replica 13's lambda, with its reason
        code, out, err = run_cli(capsys, "montecarlo", "--level", "8",
                                 "--replicas", "16", "--beta", "700",
                                 "--seed", "5")
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        assert line.startswith("error: replica 13 ")
        assert line.endswith("overflows float64")
        cfg = montecarlo.ReplicaConfig(level=8, beta=700.0, master_seed=5,
                                       replicas=16)
        potential = montecarlo.replica_potential(cfg, 2)[2]
        res = power_iterate(potential)
        ratio = ratio_representation(potential, res)
        assert res.converged
        assert abs(ratio - res.eigenvalue) / res.eigenvalue <= 1e-11

    def test_dead_child_fails_the_batch(self):
        # a fresh interpreter and its one child: the batch exits 1 naming
        # the child's exit, where a lost task once left it waiting for good
        out = subprocess.run([sys.executable, "-c", DEAD_CHILD],
                             capture_output=True, text=True, timeout=60,
                             env=dict(os.environ, PYTHONPATH=SRC))
        assert (out.returncode, out.stdout) == (1, "")
        assert out.stderr == "error: a replica worker died with exit code 3\n"

    def test_overflowing_stderr_names_the_statistic(self, capsys):
        # every lambda fits (the largest is e^616.73), but the spread of
        # lambda does not: refused by name, under the suite's filter
        code, out, err = run_cli(capsys, "montecarlo", "--level", "8",
                                 "--replicas", "16", "--beta", "700")
        assert (code, out) == (1, "")
        assert err == ("error: stderr_lambda of the 10 converged replicas "
                       "overflows float64\n")


class TestOneSolve:
    @pytest.mark.parametrize("argv,levels,row_module", [
        (["pressure", "--level", "6", "--replicas", "5", "--kmax", "4"], [6],
         pressure),
        (["refine-study", "--levels", "4,5,7", "--replicas", "5"], [4, 5, 7],
         montecarlo),
    ], ids=["pressure", "refine-study"])
    def test_replica_solves_run_power_iterate(self, capsys, monkeypatch,
                                              argv, levels, row_module):
        # R solves for pressure, R x levels for refine-study, all through
        # the one entry point, which the module of the batch's row calls
        solved = []
        solve = row_module.power_iterate
        monkeypatch.setattr(row_module, "power_iterate",
                            lambda p, *a: solved.append(p.level) or solve(p, *a))
        code, _, _ = run_cli(capsys, *argv, "--workers", "1")
        assert code == 0
        assert solved == 5 * levels
        assert solve is power_iterate is cli.power_iterate


class TestRefineStudy:
    def test_two_level_study(self, capsys):
        code, out, _ = run_cli(capsys, "refine-study", "--levels", "5,7",
                               "--replicas", "8", "--seed", "2")
        assert code == 0
        rep = parse_checked(out)["report"]
        assert rep["pairs"] == ["5->7"]
        assert rep["mean_abs_drift"][0] > 0
        assert rep["n_failed"] == 0

    def test_flat_potential_fails_strict_decrease(self, capsys):
        # beta 0 pins every drift to 0; the strict-decrease gate must trip
        code, out, _ = run_cli(capsys, "refine-study", "--levels", "4,6,8",
                               "--replicas", "4", "--beta", "0")
        assert code == 2
        assert parse_checked(out)["report"]["decreasing"] is False

    def test_unconverged_replicas_counted_and_gated(self, capsys):
        # at beta 1000 some solves stop on a degenerate bracket; their log
        # lambda must not enter the drifts, and the run must fail
        code, out, _ = run_cli(capsys, "refine-study", "--levels", "5,6",
                               "--replicas", "8", "--beta", "1000")
        assert code == 2
        rep = parse_checked(out)["report"]
        good = []
        for i in range(8):
            grid = brownian.sample(5, Alphabet(2), derive_seed(0, i))
            res = [power_iterate(build_potential(g, 1e3))
                   for g in (grid, brownian.refine(grid))]
            if all(r.converged for r in res):
                good.append(abs(res[1].log_eigenvalue - res[0].log_eigenvalue))
        assert 0 < len(good) < 8
        assert rep["n_failed"] == 8 - len(good)
        assert rep["mean_abs_drift"] == [float(np.mean(good))]

    def test_all_replicas_failed(self, capsys, monkeypatch):
        solve = montecarlo.power_iterate
        monkeypatch.setattr(montecarlo, "power_iterate",
                            lambda p, *a: replace(solve(p, *a), converged=False))
        code, out, err = run_cli(capsys, "refine-study", "--levels", "4,6",
                                 "--replicas", "3")
        assert code == 2
        assert out == ""
        assert err == "error: all replicas failed to converge\n"

    def test_malformed_levels(self, capsys):
        code, _, err = run_cli(capsys, "refine-study", "--levels", "a,b")
        assert code == 1
        assert "comma-separated" in err

    def test_malformed_levels_message(self, capsys):
        code, out, err = run_cli(capsys, "refine-study", "--levels", "a,b")
        assert (code, out) == (1, "")
        assert err == ("error: --levels must be a comma-separated integer "
                       "list\n")

    def test_single_level_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "refine-study", "--levels", "8",
                             "--replicas", "2")
        assert code == 1


class TestPlot:
    def _sample_csv(self, capsys, tmp_path):
        csv = tmp_path / "path.csv"
        run_cli(capsys, "sample-path", "--level", "5", "--seed", "3",
                "--csv", str(csv))
        return csv

    def test_path_plot_deterministic(self, capsys, tmp_path):
        csv = self._sample_csv(capsys, tmp_path)
        svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
        code, out, _ = run_cli(capsys, "plot", "--kind", "path",
                               "--input", str(csv), "--out", str(svg1))
        assert code == 0
        rep = parse_checked(out)["report"]
        assert rep["points"] == 33
        run_cli(capsys, "plot", "--kind", "path", "--input", str(csv),
                "--out", str(svg2))
        b1, b2 = svg1.read_bytes(), svg2.read_bytes()
        assert b1 == b2
        assert b1.startswith(b"<svg") and b1.rstrip().endswith(b"</svg>")

    def test_histogram_plot(self, capsys, tmp_path):
        csv = tmp_path / "rows.csv"
        run_cli(capsys, "montecarlo", "--level", "5", "--replicas", "12",
                "--csv", str(csv))
        svg = tmp_path / "hist.svg"
        code, out, _ = run_cli(capsys, "plot", "--kind", "histogram",
                               "--input", str(csv), "--out", str(svg))
        assert code == 0
        assert parse_checked(out)["report"]["points"] == 12
        assert svg.read_bytes().startswith(b"<svg")

    def test_birkhoff_plot(self, capsys, tmp_path):
        csv = tmp_path / "birkhoff.csv"
        run_cli(capsys, "pressure", "--level", "5", "--replicas", "4",
                "--kmax", "16", "--emit-birkhoff", str(csv))
        svg = tmp_path / "b.svg"
        code, out, _ = run_cli(capsys, "plot", "--kind", "birkhoff",
                               "--input", str(csv), "--out", str(svg))
        assert code == 0
        assert parse_checked(out)["report"]["points"] == 16

    def test_wrong_columns(self, capsys, tmp_path):
        csv = self._sample_csv(capsys, tmp_path)
        code, _, err = run_cli(capsys, "plot", "--kind", "histogram",
                               "--input", str(csv), "--out",
                               str(tmp_path / "x.svg"))
        assert code == 1
        assert "malformed" in err

    def test_missing_input(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "plot", "--kind", "path",
                             "--input", str(tmp_path / "nope.csv"),
                             "--out", str(tmp_path / "x.svg"))
        assert code == 1

    def test_header_only_csv(self, capsys, tmp_path):
        csv = tmp_path / "empty.csv"
        csv.write_text("t,value\n")
        code, _, err = run_cli(capsys, "plot", "--kind", "path",
                               "--input", str(csv), "--out",
                               str(tmp_path / "x.svg"))
        assert code == 1
        assert "no data rows" in err

    @pytest.mark.parametrize("kind,text", [
        ("histogram", "seed,lambda,log_lambda,M1,B1\n1,nan,0.9,0.5,0.1\n"),
        ("histogram", "seed,lambda,log_lambda,M1,B1\n1,2.5,0.9,0.5,0.1\n"
                      "2,inf,0.9,0.5,0.1\n"),
        ("birkhoff", "k,value\n1,0.5\n2,nan\n3,0.7\n"),
        ("path", "t,value\n0,0\n1,-inf\n"),
    ], ids=["nan-lambda", "inf-lambda", "nan-birkhoff", "inf-path"])
    def test_non_finite_cell_refused(self, capsys, tmp_path, kind, text):
        # write_csv never writes a non-finite cell, so one marks a
        # malformed input; nothing is written
        csv = tmp_path / "in.csv"
        csv.write_text(text)
        svg = tmp_path / "x.svg"
        code, out, err = run_cli(capsys, "plot", "--kind", kind,
                                 "--input", str(csv), "--out", str(svg))
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        assert line.startswith(f"error: malformed CSV {csv}: non-finite")
        assert not svg.exists()

    def test_histogram_axis_past_float64(self, capsys, tmp_path):
        # e^800 and a lambda near the largest float: the axis saturates
        # instead of overflowing, and every coordinate is finite
        csv = tmp_path / "rows.csv"
        csv.write_text("seed,lambda,log_lambda,M1,B1\n1,2.5,0.9,800,0.1\n"
                       "2,1.7e308,709.7,0.5,0.2\n")
        svg = tmp_path / "hist.svg"
        code, out, err = run_cli(capsys, "plot", "--kind", "histogram",
                                 "--input", str(csv), "--out", str(svg))
        assert (code, err) == (0, "")
        assert parse_checked(out)["report"]["points"] == 2
        text = svg.read_text()
        assert "inf" not in text and "nan" not in text
        assert text.count('fill="steelblue"') == 2  # first and last bins


class TestReadme:
    def test_cli_examples_parse(self):
        # every command in README's CLI block parses, so a renamed or
        # removed flag fails here instead of leaving the docs stale
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [l.split("#", 1)[0].split() for l in block.splitlines()]
        commands = [l for l in lines if l]
        assert len(commands) >= 10
        parser = cli.build_parser()
        for argv in commands:
            assert argv[0] == "ruelle-rand"
            args = parser.parse_args(argv[1:])
            assert args.func is not None
