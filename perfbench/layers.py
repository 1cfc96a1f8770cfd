"""Traced run: per-layer times from spans recorded around calls into each
module's public functions.

The workload's CLI calls run in this process through `cli.dispatch`,
serially (`--workers 1`), with each timed function swapped for a wrapper in
every `ruelle_rand` module that holds it. Nothing under `src/` changes.
The same calls then run untraced; the difference in wall time is the
tracing overhead. `montecarlo.run_replicas` is timed once more, untraced,
at the workload's worker count for the parallel efficiency.

Every converged solve is also checked against its Collatz-Wielandt
bracket min(Lh/h) <= lambda <= max(Lh/h), computed with `transfer.apply`;
that check runs in a `gate` span whose time is left out of every layer.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time
from collections import defaultdict

import numpy as np

from workloads import MC_WORKERS, REL_TOL, check, with_workers

GATE = "gate"
# span name -> the (module, attribute) pairs it times
LAYERS = {
    "brownian.sample": [("brownian", "sample")],
    "transfer.build_potential": [("transfer", "build_potential"),
                                 ("transfer", "TransferOperator")],
    "transfer.power_iterate": [("transfer", "power_iterate")],
    "transfer.checks": [("transfer", "pathwise_bounds"),
                        ("transfer", "ratio_representation")],
    "pressure.bernoulli_lower_bound": [("pressure", "bernoulli_lower_bound")],
    "pressure.birkhoff_pressure": [("pressure", "birkhoff_pressure")],
    "pressure.variational_slack": [("pressure", "variational_slack")],
    "pressure.quenched_report": [("pressure", "quenched_report")],
    "montecarlo.run_replicas": [("montecarlo", "run_replicas")],
    "montecarlo.aggregate": [("montecarlo", "aggregate"),
                             ("montecarlo", "tightened_upper_check")],
    "report.dumps_envelope": [("report", "dumps_envelope")],
    "report.write_csv": [("report", "write_csv")],
}
DISPATCH = "cli.dispatch"
REPLICA_STAGES = ("brownian.sample", "transfer.build_potential",
                  "transfer.power_iterate", "transfer.checks")


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".ns_per_cell_update"):
        return "ns"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith(".parallel_efficiency"):
        return "fraction"
    return "count"


class Tracer:
    """Spans kept in memory: (name, start, end, parent index)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self._open: list[int] = []
        self.counts = defaultdict(float)

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            name, start, _, parent = self.spans[idx]
            self.spans[idx] = (name, start, time.perf_counter(), parent)

    def times(self) -> tuple[dict, dict, dict]:
        """Inclusive time, self time and call count per span name."""
        incl, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for name, start, end, parent in self.spans:
            d = end - start
            incl[name] += d
            own[name] += d
            calls[name] += 1
            if parent >= 0:
                own[self.spans[parent][0]] -= d
        return incl, own, calls


def _collatz_wielandt(transfer, L, res) -> str | None:
    h = res.h.values
    if not np.all(h > 0):
        return "eigenfunction not positive"
    with np.errstate(all="ignore"):
        ratio = transfer.apply(L, res.h).values / h
    lo, hi = float(ratio.min()), float(ratio.max())
    lam = res.eigenvalue
    if not lo * (1 - REL_TOL) <= lam <= hi * (1 + REL_TOL):
        return f"lambda {lam!r} outside Collatz-Wielandt bracket [{lo}, {hi}]"
    return None


def _wrappers(mods: dict, tracer: Tracer, problems: list) -> dict:
    """original object -> traced replacement."""
    transfer = mods["transfer"]
    out = {}
    for layer, targets in LAYERS.items():
        for mod, attr in targets:
            orig = getattr(mods[mod], attr)
            if attr == "TransferOperator":
                class Traced(orig):
                    def __init__(self, *a, _layer=layer, **k):
                        with tracer.span(_layer):
                            super().__init__(*a, **k)
                out[orig] = Traced
            elif attr == "power_iterate":
                def power_iterate(L, *a, _orig=orig, _layer=layer, **k):
                    with tracer.span(_layer):
                        res = _orig(L, *a, **k)
                    c = tracer.counts
                    c["iterations"] += res.iterations
                    c["iterations_max"] = max(c["iterations_max"], res.iterations)
                    c["unconverged"] += not res.converged
                    c["cell_updates"] += res.iterations * L.alphabet.m ** L.level
                    if res.converged:
                        with tracer.span(GATE):
                            bad = _collatz_wielandt(transfer, L, res)
                        if bad:
                            problems.append(bad)
                    return res
                out[orig] = power_iterate
            elif attr == "write_csv":
                def write_csv(path, *a, _orig=orig, _layer=layer, **k):
                    with tracer.span(_layer):
                        _orig(path, *a, **k)
                    tracer.counts["bytes"] += os.path.getsize(path)
                out[orig] = write_csv
            elif attr == "dumps_envelope":
                def dumps_envelope(*a, _orig=orig, _layer=layer, **k):
                    with tracer.span(_layer):
                        text = _orig(*a, **k)
                    tracer.counts["bytes"] += len(text.encode("utf-8"))
                    return text
                out[orig] = dumps_envelope
            else:
                def timed(*a, _orig=orig, _layer=layer, **k):
                    with tracer.span(_layer):
                        return _orig(*a, **k)
                out[orig] = timed
    return out


@contextlib.contextmanager
def _patched(replacements: dict):
    """Swap every module-level reference to a timed object, then restore."""
    undo = []
    for name, mod in list(sys.modules.items()):
        if not (name == "ruelle_rand" or name.startswith("ruelle_rand.")):
            continue
        for attr, val in list(vars(mod).items()):
            try:
                new = replacements.get(val)
            except TypeError:  # unhashable module attribute
                continue
            if new is not None:
                setattr(mod, attr, new)
                undo.append((mod, attr, val))
    try:
        yield
    finally:
        for mod, attr, val in undo:
            setattr(mod, attr, val)


def _dispatch(cli, calls, tracer: Tracer | None) -> tuple[float, list]:
    """Run the calls through cli.dispatch; return wall time and outcomes."""
    wall = 0.0
    outcomes = []
    for call in calls:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            if tracer is None:
                code = cli.dispatch(list(call.argv))
            else:
                with tracer.span(DISPATCH):
                    code = cli.dispatch(list(call.argv))
            wall += time.perf_counter() - t0
        outcomes.append(check(call, code, buf.getvalue()))
    return wall, outcomes


def _load(root: str) -> dict:
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import importlib
    return {m: importlib.import_module(f"ruelle_rand.{m}")
            for m in ("brownian", "transfer", "pressure", "montecarlo",
                      "report", "cli")}


def traced_round(root: str, workload_calls: list) -> tuple[dict, list]:
    """One traced serial pass, one untraced serial pass and, for replica
    workloads, one untraced `run_replicas` at the workload's worker count.
    Returns the per-layer metrics and every call's gate outcome."""
    mods = _load(root)
    serial = [with_workers(c, 1) for c in workload_calls]
    tracer = Tracer()
    cw_problems: list[str] = []
    with _patched(_wrappers(mods, tracer, cw_problems)):
        traced_wall, outcomes = _dispatch(mods["cli"], serial, tracer)
    if cw_problems:
        outcomes[0].problems.extend(cw_problems)
    plain_wall, more = _dispatch(mods["cli"], serial, None)
    outcomes += more

    incl, own, calls = tracer.times()
    gate = incl[GATE]
    traced_wall -= gate
    layer_self = sum(own[n] for n in LAYERS)
    m = {f"{layer}.busy_s": incl[layer] for layer in LAYERS}
    m["brownian.sample.calls"] = calls["brownian.sample"]
    c = tracer.counts
    pi = "transfer.power_iterate"
    m[f"{pi}.calls"] = calls[pi]
    for key in ("iterations", "iterations_max", "unconverged", "cell_updates"):
        m[f"{pi}.{key}"] = int(c[key])
    m[f"{pi}.ns_per_cell_update"] = (incl[pi] / c["cell_updates"] * 1e9
                                     if c["cell_updates"] else 0.0)
    m["report.bytes"] = int(c["bytes"])
    m[f"{DISPATCH}.busy_s"] = incl[DISPATCH] - gate
    m["trace.serial_wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - plain_wall
    m["trace.unaccounted_s"] = traced_wall - layer_self

    # run_replicas at the workload's worker count, untraced
    rr = "montecarlo.run_replicas"
    m[f"{rr}.busy_s"] = 0.0
    m["montecarlo.parallel_efficiency"] = 0.0
    mc_calls = [c for c in workload_calls if c.kind == "montecarlo"]
    if mc_calls:
        mc = mods["montecarlo"]
        args = mods["cli"].build_parser().parse_args(list(mc_calls[0].argv))
        config = mc.ReplicaConfig(level=args.level, beta=args.beta,
                                  master_seed=args.seed, replicas=args.replicas)
        t0 = time.perf_counter()
        rows = mc.run_replicas(config, MC_WORKERS)
        wall = time.perf_counter() - t0
        rep = mc.aggregate(config, rows, wall)
        ref = mc_calls[0].ref["mean_log_lambda"]
        if abs(rep.mean_log_lambda - ref) > REL_TOL * abs(ref) or rep.n_failed:
            outcomes[0].problems.append(
                f"run_replicas at {MC_WORKERS} workers: mean_log_lambda "
                f"{rep.mean_log_lambda!r}, {rep.n_failed} failed")
        m[f"{rr}.busy_s"] = wall
        # serial per-replica stage time; in this workload every stage call
        # happens inside run_replicas
        stages = sum(own[n] for n in REPLICA_STAGES)
        m["montecarlo.parallel_efficiency"] = stages / (MC_WORKERS * wall)
    return m, outcomes
