"""ruelle-rand benchmark.

    python3 perfbench/run.py --workload mc-l12 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all     # the four workloads in turn

Run from the root of a checkout. With --trace 0 each workload's CLI calls
run in fresh interpreters (PYTHONPATH=src, entry point ruelle_rand.cli:main)
in a closed loop, one call at a time, for --seconds, and the end-to-end
metrics are printed. With --trace 1 the calls run in this process with
spans around each module's public functions, and the per-layer metrics are
printed. Every call passes the correctness gate in workloads.py. The last
line of stdout is one JSON object: correct, attempted, failed, metrics
(prefixed with the workload's name under --workload all).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import sys
import time

import proc
import workloads

# a run ends well inside three minutes, even when the program stalls
HARD_LIMIT_S = 170.0
SETUP_LAUNCHES = 5
UNITS = {
    "wall_s": "s", "solves_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB",
    "certified_frac": "fraction", "setup_s": "s",
}


def _cache_size(level: int) -> str | None:
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(base)):
            with open(os.path.join(base, idx, "level")) as fh:
                if int(fh.read()) != level:
                    continue
            with open(os.path.join(base, idx, "type")) as fh:
                if fh.read().strip() == "Instruction":
                    continue
            with open(os.path.join(base, idx, "size")) as fh:
                return fh.read().strip()
    except (OSError, ValueError):
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def machine_context() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": _cpu_model(),
        "l2": _cache_size(2),
        "l3": _cache_size(3),
        "note": "spectrum-deep's 8 MiB vectors fit in L3 here, so no "
                "bandwidth or roofline ratio is claimed; the traced run "
                "reports the computed cell_updates",
    }


def high_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    p = 1.0 - 10.0 / n
    return p, sorted(values)[int(p * n) - 1]


def describe(name: str, values: list[float], unit: str) -> str:
    med = statistics.median(values)
    hp = high_percentile(values)
    tail = (f"p{100 * hp[0]:.0f}={hp[1]:.6g}" if hp
            else "high percentile n/a (fewer than 11 samples)")
    return f"{name}: median={med:.6g} {unit}, {tail}, n={len(values)}"


def run_e2e(root: str, wl_calls: list, seconds: float, t_start: float,
            tmpdir: str) -> tuple[dict, int, int]:
    deadline = time.monotonic() + HARD_LIMIT_S - (time.perf_counter() - t_start)
    setup = []
    for i in range(SETUP_LAUNCHES + 1):
        r = proc.run(proc.import_command(), root, tmpdir, deadline)
        if r.exit_code != 0:
            raise SystemExit(f"importing ruelle_rand.cli failed:\n{r.stderr}")
        if i:  # the first launch also compiles bytecode
            setup.append(r.wall_s)

    walls, cpus, rss, rates = [], [], [], []
    attempted_solves = certified = unconverged = runs = failed_runs = 0
    t0 = time.perf_counter()
    while not walls or time.perf_counter() - t0 < seconds:
        wall = cpu = peak = 0.0
        op_certified = 0
        for call in wl_calls:
            r = proc.run(proc.cli_command(call.argv), root, tmpdir, deadline)
            out = workloads.check(call, r.exit_code, r.stdout)
            runs += 1
            attempted_solves += call.solves
            op_certified += out.certified
            unconverged += out.unconverged
            if out.problems:
                failed_runs += 1
                sys.stderr.write(f"gate: {' '.join(call.argv)}: "
                                 f"{'; '.join(out.problems)}\n{r.stderr}")
            wall += r.wall_s
            cpu += r.cpu_s
            peak = max(peak, r.peak_rss_mb)
            print(f"  {' '.join(call.argv)}: exit "
                  f"{r.exit_code} wall={r.wall_s:.4f}s cpu={r.cpu_s:.4f}s "
                  f"rss(wait4)={r.maxrss_mb:.1f}MB rss(tree)={r.tree_rss_mb:.1f}MB",
                  flush=True)
        certified += op_certified
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        rates.append(op_certified / wall)
        if time.monotonic() > deadline:
            break

    series = {"wall_s": walls, "solves_per_s": rates, "cpu_s": cpus,
              "peak_rss_mb": rss, "setup_s": setup}
    for name, values in series.items():
        print(describe(name, values, UNITS[name]))
    failed_frac = 1.0 - certified / attempted_solves
    print(f"failed_frac: {failed_frac:.6g} ({attempted_solves - certified} of "
          f"{attempted_solves} solves not certified; {unconverged} "
          f"unconverged; {failed_runs} of {runs} runs failed the gate)")
    metrics = {name: statistics.median(v) for name, v in series.items()}
    metrics["certified_frac"] = certified / attempted_solves
    return ({k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
            runs, failed_runs)


def run_traced(root: str, wl_calls: list, seconds: float, t_start: float
               ) -> tuple[dict, int, int]:
    import layers

    rounds, runs, failed_runs = [], 0, 0
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        r0 = time.perf_counter()
        m, outcomes = layers.traced_round(root, wl_calls)
        rounds.append(m)
        runs += len(outcomes)
        for o in outcomes:
            if o.problems:
                failed_runs += 1
                sys.stderr.write(f"gate: {'; '.join(o.problems)}\n")
        spent = time.perf_counter() - t_start
        if spent + (time.perf_counter() - r0) > HARD_LIMIT_S - 20:
            break
    metrics = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    wall = metrics["trace.serial_wall_s"]
    print(f"traced rounds: {len(rounds)}; serial wall {wall:.4f} s, of which "
          f"{metrics['trace.unaccounted_s']:.4f} s "
          f"({100 * metrics['trace.unaccounted_s'] / wall:.2f}%) is left "
          f"unaccounted by the layer self times")
    for k, v in metrics.items():
        print(f"  {k} = {v:.6g} {layers.unit(k)}")
    return ({k: {"value": v, "unit": layers.unit(k)} for k, v in metrics.items()},
            runs, failed_runs)


def run_workload(root: str, workload: str, seed: int, seconds: float,
                 trace: bool, refs: dict) -> tuple[dict, int, int]:
    t_start = time.perf_counter()
    tmpdir = os.path.join(root, ".perfbench", workload)
    shutil.rmtree(tmpdir, ignore_errors=True)
    os.makedirs(tmpdir)
    wl_calls = workloads.calls(workload, seed, refs, tmpdir)
    print(json.dumps({"workload": workload, "seed": seed,
                      "calls": [" ".join(c.argv) for c in wl_calls]}))
    if trace:
        return run_traced(root, wl_calls, seconds, t_start)
    return run_e2e(root, wl_calls, seconds, t_start, tmpdir)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",),
                    help="one workload, or all four in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "ruelle_rand", "cli.py")):
        sys.stderr.write(f"no ruelle_rand sources under {root}/src\n")
        return 2
    refs = workloads.load_references()
    print(json.dumps({"context": machine_context()}), flush=True)
    names = (workloads.WORKLOADS if args.workload == "all"
             else (args.workload,))
    metrics, runs, failed = {}, 0, 0
    for name in names:
        m, r, f = run_workload(root, name, args.seed, args.seconds,
                               bool(args.trace), refs)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        runs += r
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": runs,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
