"""The four benchmark workloads and the correctness gate every run passes.

A workload is a list of CLI calls (argv after the program name) made from
the workload seed. Every call is checked against reference values recorded
with `make_references.py` at the commit that introduced the benchmark; a
call whose output disagrees is a failed run, counted and never dropped.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field, replace

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

# the acceptance suite's relative tolerance on eigenvalues
REL_TOL = 1e-9
# master seeds with recorded references for the replica workloads; the
# workload seed wraps around this range
N_REF_SEEDS = 64
MC_REPLICAS = 1024
MC_WORKERS = 2
PRESSURE_REPLICAS = 256
PRESSURE_KMAX = 32  # the CLI's default --kmax: rows of the Birkhoff CSV
HOT_BETAS = (3.0, 10.0)

WORKLOADS = ("mc-l12", "spectrum-deep", "pressure-l10", "spectrum-hot")


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what its output is checked against."""

    argv: tuple[str, ...]
    kind: str  # "spectrum", "montecarlo" or "pressure"
    ref: dict  # recorded reference values for this exact config
    solves: int  # Perron solves the call attempts
    csv_path: str | None = None
    csv_rows: int | None = None


@dataclass
class Outcome:
    certified: int = 0  # converged solves in a call that passed the gate
    unconverged: int = 0
    problems: list[str] = field(default_factory=list)


def load_references(path: str = REFERENCES) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def deep_seed(seed: int, refs: dict) -> int:
    """Path seed of spectrum-deep: one of the recorded level-20 paths whose
    solve makes about as many operator applications as seed 0's, so that
    the seed varies the path but not the amount of work."""
    panel = refs["spectrum-deep"]["panel"]
    return panel[seed % len(panel)]


def calls(workload: str, seed: int, refs: dict, tmpdir: str) -> list[Call]:
    """The workload's CLI calls for this workload seed. Seed 0 reproduces the
    configs measured in the ROADMAP."""
    if workload == "mc-l12":
        s = seed % N_REF_SEEDS
        out = os.path.join(tmpdir, "mc.csv")
        argv = ("montecarlo", "--level", "12", "--replicas", str(MC_REPLICAS),
                "--workers", str(MC_WORKERS), "--beta", "1", "--seed", str(s),
                "--csv", out)
        return [Call(argv, "montecarlo", refs[workload][str(s)], MC_REPLICAS,
                     out, MC_REPLICAS)]
    if workload == "spectrum-deep":
        s = deep_seed(seed, refs)
        argv = ("spectrum", "--level", "20", "--beta", "1", "--seed", str(s))
        return [Call(argv, "spectrum", refs[workload][str(s)], 1)]
    if workload == "pressure-l10":
        s = seed % N_REF_SEEDS
        out = os.path.join(tmpdir, "birkhoff.csv")
        argv = ("pressure", "--level", "10", "--replicas",
                str(PRESSURE_REPLICAS), "--beta", "1", "--seed", str(s),
                "--emit-birkhoff", out)
        return [Call(argv, "pressure", refs[workload][str(s)],
                     PRESSURE_REPLICAS, out, PRESSURE_KMAX)]
    if workload == "spectrum-hot":
        # the ROADMAP's large-beta reproducer is pinned to path seed 0: other
        # paths converge at beta = 10, and re-seeding would hide the defect
        return [Call(("spectrum", "--level", "12", "--seed", "0", "--beta",
                      str(b)), "spectrum", refs[workload][str(b)], 1)
                for b in HOT_BETAS]
    raise ValueError(f"unknown workload {workload!r}")


def with_workers(call: Call, workers: int) -> Call:
    """The same call with --workers replaced (the traced run is serial)."""
    argv = list(call.argv)
    if "--workers" in argv:
        argv[argv.index("--workers") + 1] = str(workers)
    return replace(call, argv=tuple(argv))


def _close(x, ref) -> bool:
    return isinstance(x, float) and math.isfinite(x) and (
        abs(x - ref) <= REL_TOL * abs(ref))


def _csv_rows(path: str) -> int:
    with open(path, newline="", encoding="utf-8") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def check(call: Call, exit_code: int, stdout: str) -> Outcome:
    """Correctness gate for one call: exit code, converged and bound flags,
    and eigenvalues against the recorded references."""
    out = Outcome()
    try:
        env = json.loads(stdout)
        manifest, rep = env["manifest"], env["report"]
    except (ValueError, KeyError, TypeError) as e:
        out.problems.append(f"exit {exit_code}, no report envelope ({e})")
        out.unconverged = call.solves
        return out
    if manifest.get("subcommand") != call.kind:
        out.problems.append(f"subcommand {manifest.get('subcommand')!r}")
    {"spectrum": _check_spectrum, "montecarlo": _check_montecarlo,
     "pressure": _check_pressure}[call.kind](call, exit_code, rep, out)
    if call.csv_path is not None:
        try:
            rows = _csv_rows(call.csv_path)
        except OSError as e:
            out.problems.append(f"CSV sidecar unreadable: {e}")
        else:
            if rows != call.csv_rows:
                out.problems.append(f"CSV has {rows} rows, want {call.csv_rows}")
    if out.problems:
        out.certified = 0
    return out


def _check_spectrum(call, exit_code, rep, out):
    ref = call.ref
    lam = rep.get("lambda")
    if not rep.get("converged"):
        out.unconverged = 1
        if ref["converged"]:
            out.problems.append("solve did not converge; reference did")
        elif exit_code != 2:
            out.problems.append(f"unconverged solve exited {exit_code}, want 2")
        return
    bounds = rep.get("pathwise_bounds", {})
    if exit_code != 0:
        out.problems.append(f"converged solve exited {exit_code}")
    if not (bounds.get("lower_ok") and bounds.get("upper_ok")):
        out.problems.append(f"pathwise bounds failed: {bounds}")
    if ref["converged"]:
        if not _close(lam, ref["lambda"]):
            out.problems.append(f"lambda {lam!r} != reference {ref['lambda']!r}")
    else:
        # no converged reference exists; a converged answer must lie in the
        # Collatz-Wielandt bracket recorded from a certified solve
        lo, hi = ref["cw_bracket"]
        if not (isinstance(lam, float)
                and lo * (1 - REL_TOL) <= lam <= hi * (1 + REL_TOL)):
            out.problems.append(f"lambda {lam!r} outside bracket [{lo}, {hi}]")
    out.certified = 1


def _check_montecarlo(call, exit_code, rep, out):
    ref = call.ref
    n_conv = rep.get("n_converged", 0)
    out.unconverged = call.solves - n_conv
    if exit_code != 0:
        out.problems.append(f"exit {exit_code}")
    if rep.get("n_failed") != 0 or n_conv != call.solves:
        out.problems.append(f"{rep.get('n_failed')} replicas failed")
    for flag in ("bounds_ok", "expectation_band_ok"):
        if rep.get(flag) is not True:
            out.problems.append(f"{flag} is {rep.get(flag)!r}")
    if rep.get("tightened", {}).get("tightened_bound_ok") is not True:
        out.problems.append("tightened upper bound failed")
    for key in ("mean_lambda", "mean_log_lambda"):
        if not _close(rep.get(key), ref[key]):
            out.problems.append(f"{key} {rep.get(key)!r} != reference {ref[key]!r}")
    out.certified = n_conv


def _check_pressure(call, exit_code, rep, out):
    ref = call.ref
    n = rep.get("n", 0)
    out.unconverged = call.solves - n
    if exit_code != 0:
        out.problems.append(f"exit {exit_code}")
    if rep.get("n_failed") != 0 or n != call.solves:
        out.problems.append(f"{rep.get('n_failed')} replicas failed")
    for flag in ("jensen_ok", "bounds_ok", "all_positive"):
        if rep.get(flag) is not True:
            out.problems.append(f"{flag} is {rep.get(flag)!r}")
    if rep.get("variational_violations") != 0:
        out.problems.append(
            f"{rep.get('variational_violations')} variational violations")
    if not _close(rep.get("mean_log_lambda"), ref["mean_log_lambda"]):
        out.problems.append(f"mean_log_lambda {rep.get('mean_log_lambda')!r} "
                            f"!= reference {ref['mean_log_lambda']!r}")
    out.certified = n
