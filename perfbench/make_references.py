"""Record the reference values the correctness gate checks against.

    python3 perfbench/make_references.py

Run from the root of a checkout, at the commit whose outputs are to be the
reference; it writes perfbench/references.json. Every value comes from the
real CLI, except the Collatz-Wielandt bracket for spectrum-hot at beta = 10,
where the CLI's solve does not converge: that bracket comes from a shifted
power iteration f <- Lf / lambda_hat + f, which removes the near -lambda
eigenvalue that stalls the plain iteration, and it certifies
min(Lf/f) <= lambda <= max(Lf/f) for the final positive f.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

import proc
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TMP = os.path.join(ROOT, ".perfbench", "references")
DEEP_SCAN = 200  # level-20 path seeds scanned for spectrum-deep's panel


def _cli(argv) -> tuple[int, dict]:
    r = proc.run(proc.cli_command(argv), ROOT, TMP, time.monotonic() + 600)
    return r.exit_code, json.loads(r.stdout)["report"]


def _spectrum(level: int, seed: int, beta: float) -> dict:
    code, rep = _cli(["spectrum", "--level", str(level), "--seed", str(seed),
                      "--beta", str(beta)])
    return {"exit": code, "converged": rep["converged"],
            "lambda": rep["lambda"], "iterations": rep["iterations"]}


def _cw_bracket(level: int, seed: int, beta: float, rtol: float = 1e-14,
                max_iters: int = 100_000) -> list[float]:
    from ruelle_rand import brownian, transfer
    from ruelle_rand.skorokhod import CylinderFunction

    L = transfer.TransferOperator(transfer.build_potential(
        brownian.sample(level, seed=seed), beta))
    f = np.ones(L.alphabet.m ** level)
    for _ in range(max_iters):
        u = transfer.apply(L, CylinderFunction(level, L.alphabet, f)).values
        ratio = u / f
        lo, hi = float(ratio.min()), float(ratio.max())
        if hi - lo <= rtol * hi:
            return [lo, hi]
        f = u / hi + f
        f /= f.max()
    raise RuntimeError("shifted iteration did not certify the eigenvalue")


def _applications(level: int, seed: int, beta: float) -> int:
    """Operator applications of one library solve, adjoint loop included
    (SpectralResult.iterations counts the right loop only)."""
    from ruelle_rand import brownian, transfer

    count = [0]

    class Counting(transfer.TransferOperator):
        def _apply(self, f):
            count[0] += 1
            return super()._apply(f)

        def _adjoint(self, nu):
            count[0] += 1
            return super()._adjoint(nu)

    L = Counting(transfer.build_potential(brownian.sample(level, seed=seed),
                                          beta))
    transfer.power_iterate(L)
    return count[0]


def hot_refs() -> dict:
    hot = {str(b): _spectrum(12, 0, b) for b in workloads.HOT_BETAS}
    for b, ref in hot.items():
        if not ref["converged"]:
            ref["cw_bracket"] = _cw_bracket(12, 0, float(b))
    return hot


def replica_refs() -> tuple[dict, dict]:
    mc, pr = {}, {}
    for s in range(workloads.N_REF_SEEDS):
        code, rep = _cli(["montecarlo", "--level", "12", "--replicas",
                          str(workloads.MC_REPLICAS), "--workers", "1",
                          "--beta", "1", "--seed", str(s)])
        mc[str(s)] = {"exit": code, **{
            k: rep[k] for k in ("mean_lambda", "mean_log_lambda", "n_failed")}}
        code, rep = _cli(["pressure", "--level", "10", "--replicas",
                          str(workloads.PRESSURE_REPLICAS), "--beta", "1",
                          "--seed", str(s)])
        pr[str(s)] = {"exit": code, **{
            k: rep[k] for k in ("mean_log_lambda", "n_failed")}}
        print("seed", s, mc[str(s)], pr[str(s)], flush=True)
    return mc, pr


def deep_refs(scan: int) -> dict:
    """The panel: level-20 paths whose solve makes within 4 operator
    applications (right and adjoint loops together) of seed 0's, so the
    workload seed varies the path but not the work."""
    work = {s: _applications(20, s, 1.0) for s in range(scan)}
    panel = [s for s in work if abs(work[s] - work[0]) <= 4]
    deep = {"panel": panel}
    for s in panel:
        deep[str(s)] = {**_spectrum(20, s, 1.0), "applications": work[s]}
    return deep


def main() -> None:
    refs = {"commit": subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
        text=True).stdout.strip() or None}
    refs["spectrum-hot"] = hot_refs()
    refs["mc-l12"], refs["pressure-l10"] = replica_refs()
    refs["spectrum-deep"] = deep_refs(DEEP_SCAN)
    with open(workloads.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(TMP, exist_ok=True)
    main()
