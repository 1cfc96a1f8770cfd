"""Fast self-test of the benchmark harness (a few seconds):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap
import time

import pytest

import layers
import proc
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFS = workloads.load_references()


def _envelope(subcommand: str, report: dict) -> str:
    return json.dumps({"schema_version": "1",
                       "manifest": {"subcommand": subcommand},
                       "report": report})


def _spectrum_report(lam: float, converged: bool = True) -> dict:
    return {"lambda": lam, "converged": converged,
            "pathwise_bounds": {"lower_ok": True, "upper_ok": True}}


def _hot(tmp_path):
    return workloads.calls("spectrum-hot", 0, REFS, str(tmp_path))


def test_seed_zero_reproduces_roadmap_configs(tmp_path):
    (mc,) = workloads.calls("mc-l12", 0, REFS, str(tmp_path))
    assert mc.argv[:9] == ("montecarlo", "--level", "12", "--replicas", "1024",
                           "--workers", "2", "--beta", "1")
    assert mc.argv[mc.argv.index("--seed") + 1] == "0"
    (deep,) = workloads.calls("spectrum-deep", 0, REFS, str(tmp_path))
    assert deep.argv[-2:] == ("--seed", "0")
    (pr,) = workloads.calls("pressure-l10", 0, REFS, str(tmp_path))
    assert pr.argv[pr.argv.index("--seed") + 1] == "0"


def test_seed_varies_inputs_but_not_the_hot_reproducer(tmp_path):
    a = workloads.calls("pressure-l10", 3, REFS, str(tmp_path))[0].argv
    b = workloads.calls("pressure-l10", 4, REFS, str(tmp_path))[0].argv
    assert a != b
    assert _hot(tmp_path) == workloads.calls("spectrum-hot", 9, REFS, str(tmp_path))
    panel = REFS["spectrum-deep"]["panel"]
    for seed in range(2 * len(panel)):
        (deep,) = workloads.calls("spectrum-deep", seed, REFS, str(tmp_path))
        assert int(deep.argv[-1]) in panel


def test_gate_accepts_reference_and_rejects_drift(tmp_path):
    call = _hot(tmp_path)[0]
    lam = call.ref["lambda"]
    ok = workloads.check(call, 0, _envelope("spectrum", _spectrum_report(lam)))
    assert (ok.certified, ok.unconverged, ok.problems) == (1, 0, [])
    drift = workloads.check(
        call, 0, _envelope("spectrum", _spectrum_report(lam * (1 + 1e-8))))
    assert drift.certified == 0 and drift.problems
    crash = workloads.check(call, 1, "Traceback ...")
    assert crash.problems and crash.unconverged == 1


def test_known_defect_is_an_unconverged_solve_not_a_failed_run(tmp_path):
    call = _hot(tmp_path)[1]
    assert not call.ref["converged"]
    stuck = _envelope("spectrum", _spectrum_report(88.0, converged=False))
    out = workloads.check(call, 2, stuck)
    assert (out.certified, out.unconverged, out.problems) == (0, 1, [])
    assert workloads.check(call, 0, stuck).problems  # must exit 2


def test_a_fixed_large_beta_solve_must_sit_in_the_bracket(tmp_path):
    call = _hot(tmp_path)[1]
    lo, hi = call.ref["cw_bracket"]
    good = workloads.check(call, 0, _envelope("spectrum", _spectrum_report(lo)))
    assert good.certified == 1 and not good.problems
    bad = workloads.check(call, 0, _envelope("spectrum", _spectrum_report(88.0)))
    assert bad.certified == 0 and bad.problems


def test_montecarlo_gate_counts_failed_replicas(tmp_path):
    (call,) = workloads.calls("mc-l12", 0, REFS, str(tmp_path))
    with open(call.csv_path, "w") as fh:
        fh.write("seed\n" + "1\n" * call.csv_rows)
    rep = {"n_converged": 1023, "n_failed": 1, "bounds_ok": False,
           "expectation_band_ok": True,
           "tightened": {"tightened_bound_ok": True},
           "mean_lambda": call.ref["mean_lambda"],
           "mean_log_lambda": call.ref["mean_log_lambda"]}
    out = workloads.check(call, 2, _envelope("montecarlo", rep))
    assert out.unconverged == 1 and out.certified == 0 and out.problems


def test_proc_counts_cpu_and_memory_of_forked_children(tmp_path):
    script = textwrap.dedent("""
        import os, time
        def burn():
            t = time.process_time()
            while time.process_time() - t < 0.2:
                pass
        kids = []
        for _ in range(2):
            pid = os.fork()
            if pid == 0:
                burn()
                os._exit(0)
            kids.append(pid)
        for pid in kids:
            os.waitpid(pid, 0)
    """)
    r = proc.run([sys.executable, "-c", script], ROOT, str(tmp_path),
                 time.monotonic() + 30)
    assert r.exit_code == 0
    assert r.cpu_s >= 0.35  # both children's CPU, reaped by the parent
    assert r.peak_rss_mb >= r.maxrss_mb > 0


def test_tracer_self_time_excludes_children():
    t = layers.Tracer()
    with t.span("outer"):
        with t.span("inner"):
            time.sleep(0.02)
        time.sleep(0.01)
    incl, own, calls = t.times()
    assert incl["outer"] >= incl["inner"] >= 0.02
    assert own["outer"] == pytest.approx(incl["outer"] - incl["inner"])
    assert calls == {"outer": 1, "inner": 1}


def test_traced_round_accounts_for_the_serial_wall(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from ruelle_rand import brownian, cli, transfer
    L = transfer.TransferOperator(
        transfer.build_potential(brownian.sample(8, seed=0), 1.0))
    lam = transfer.power_iterate(L).eigenvalue
    call = workloads.Call(("spectrum", "--level", "8", "--seed", "0"),
                          "spectrum", {"converged": True, "lambda": lam}, 1)
    m, outcomes = layers.traced_round(ROOT, [call])
    assert [o.problems for o in outcomes] == [[], []]
    assert m["transfer.power_iterate.calls"] == 1
    assert m["transfer.power_iterate.cell_updates"] == (
        m["transfer.power_iterate.iterations"] * 2**8)
    layer_sum = sum(m[f"{n}.busy_s"] for n in
                    ("brownian.sample", "transfer.build_potential",
                     "transfer.power_iterate", "transfer.checks",
                     "report.dumps_envelope"))
    assert m["trace.unaccounted_s"] == pytest.approx(
        m["trace.serial_wall_s"] - layer_sum, abs=1e-9)
    assert cli.power_iterate is transfer.power_iterate  # patches undone


def test_fails_without_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "mc-l12", "--seed", "0", "--seconds", "1", "--trace",
                        "0"], cwd=tmp_path, capture_output=True, text=True,
                       timeout=60)
    assert r.returncode != 0
    assert '"correct"' not in r.stdout
