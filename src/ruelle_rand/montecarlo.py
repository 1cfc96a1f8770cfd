"""Replica orchestration: derived seeds, one ordered replica map for
every sample -> spectrum batch, order-stable aggregation, and the
expectation-bound checks.

Replica i always runs under seed derive_seed(master_seed, i), so the
result set is a pure function of the config. Workers only change the
schedule; aggregation consumes rows in replica-index order, making the
report bitwise identical for any worker count.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from functools import partial
from multiprocessing import get_context

import numpy as np

from . import brownian
from ._rng import derive_seed
from .pressure import PressureSample, mean_stderr, pressure_sample
from .symbolic import Alphabet
from .transfer import (DEFAULT_MAX_ITERS, DEFAULT_TOL, TransferOperator,
                       build_potential, pathwise_bounds, perron_eigenvalue,
                       power_iterate, ratio_representation)

WORKERS_ENV = "RUELLE_RAND_WORKERS"


@dataclass(frozen=True)
class ReplicaConfig:
    level: int
    alphabet: Alphabet = Alphabet(2)
    beta: float = 1.0
    master_seed: int = 0
    replicas: int = 1
    tol: float = DEFAULT_TOL
    max_iters: int = DEFAULT_MAX_ITERS

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if self.replicas < 1:
            raise ValueError("need at least one replica")


@dataclass(frozen=True)
class ReplicaRow:
    """Per-replica record; the CSV sidecar and all checks read from here."""

    index: int
    seed: int
    eigenvalue: float
    log_eigenvalue: float
    m1: float
    b1: float
    iterations: int
    residual: float
    converged: bool
    lower_ok: bool
    upper_ok: bool
    positive_ok: bool
    ratio_gap: float


@dataclass(frozen=True)
class McReport:
    n_converged: int
    n_failed: int
    mean_lambda: float
    stderr_lambda: float
    mean_log_lambda: float
    stderr_log_lambda: float
    quantiles: dict
    bound_violations: dict
    wall_time: float

    def to_dict(self) -> dict:
        return asdict(self)


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument, else the RUELLE_RAND_WORKERS env var, else 1."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        workers = int(env) if env else 1
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return workers


def map_replicas(fn, config: ReplicaConfig, workers: int | None = None) -> list:
    """[fn((config, i)) for every replica index i], in index order for any
    worker count. The only replica loop: every batch runs through it."""
    workers = resolve_workers(workers)
    args = [(config, i) for i in range(config.replicas)]
    if workers == 1:
        return [fn(a) for a in args]
    chunk = max(1, config.replicas // (4 * workers))
    with get_context("fork").Pool(workers) as pool:
        return pool.map(fn, args, chunksize=chunk)


def replica_operator(config: ReplicaConfig, i: int):
    """Replica i's derived seed, sampled grid and operator."""
    seed = derive_seed(config.master_seed, i)
    grid = brownian.sample(config.level, config.alphabet, seed)
    return seed, grid, TransferOperator(build_potential(grid, config.beta))


def _replica_row(arg: tuple[ReplicaConfig, int]) -> ReplicaRow:
    config, i = arg
    seed, grid, L = replica_operator(config, i)
    res = power_iterate(L, config.tol, config.max_iters)
    if res.converged:
        bounds = pathwise_bounds(L, res, grid)
        positive = bool(np.all(res.h.values > 0) and np.all(res.nu > 0))
        ratio = ratio_representation(L, res, grid)
        ratio_gap = abs(ratio - res.eigenvalue) / res.eigenvalue
    else:
        bounds = {"lower_ok": False, "upper_ok": False}
        positive = False
        ratio_gap = math.inf
    return ReplicaRow(
        index=i,
        seed=seed,
        eigenvalue=res.eigenvalue,
        log_eigenvalue=res.log_eigenvalue,
        m1=float(np.max(grid.values)),
        b1=float(grid.values[-1]),
        iterations=res.iterations,
        residual=res.residual,
        converged=res.converged,
        lower_ok=bounds["lower_ok"],
        upper_ok=bounds["upper_ok"],
        positive_ok=positive,
        ratio_gap=ratio_gap,
    )


def pressure_row(arg: tuple[ReplicaConfig, int]) -> PressureSample | None:
    """Replica's PressureSample, or None when its right solve did not
    converge. Only lambda is read, so no reversed solve runs."""
    config, i = arg
    _, grid, L = replica_operator(config, i)
    res = perron_eigenvalue(L, config.tol, config.max_iters)
    if not res.converged:
        return None
    return pressure_sample(L, res, grid)


def run_replicas(config: ReplicaConfig, workers: int | None = None) -> list[ReplicaRow]:
    """All replica rows, in replica-index order regardless of schedule."""
    return map_replicas(_replica_row, config, workers)


def aggregate(config: ReplicaConfig, rows: list[ReplicaRow],
              wall_time: float) -> McReport:
    good = [r for r in rows if r.converged]
    if not good:
        raise RuntimeError("all replicas failed to converge; check level/beta/tol")
    lams = np.array([r.eigenvalue for r in good])
    mean_lambda, stderr_lambda = mean_stderr(lams)
    mean_log, stderr_log = mean_stderr(np.array([r.log_eigenvalue for r in good]))
    q = np.quantile(lams, [0.01, 0.5, 0.99])
    return McReport(
        n_converged=lams.size,
        n_failed=len(rows) - lams.size,
        mean_lambda=mean_lambda,
        stderr_lambda=stderr_lambda,
        mean_log_lambda=mean_log,
        stderr_log_lambda=stderr_log,
        quantiles={"q01": float(q[0]), "q50": float(q[1]), "q99": float(q[2])},
        bound_violations={
            "lower": sum(1 for r in good if not r.lower_ok),
            "upper": sum(1 for r in good if not r.upper_ok),
            "positivity": sum(1 for r in good if not r.positive_ok),
        },
        wall_time=wall_time,
    )


def run(config: ReplicaConfig,
        workers: int | None = None) -> tuple[list[ReplicaRow], McReport]:
    """The batch's rows and its report, wall_time covering the replicas."""
    t0 = time.perf_counter()
    rows = run_replicas(config, workers)
    return rows, aggregate(config, rows, time.perf_counter() - t0)


def _study_row(levels: tuple[int, ...],
               arg: tuple[ReplicaConfig, int]) -> list[float]:
    config, i = arg
    seed = derive_seed(config.master_seed, i)
    grid = brownian.sample(levels[0], config.alphabet, seed)
    logs = []
    for target in levels:
        while grid.level < target:
            grid = brownian.refine(grid)
        L = TransferOperator(build_potential(grid, config.beta))
        logs.append(perron_eigenvalue(L, config.tol, config.max_iters)
                    .log_eigenvalue)
    return logs


def refinement_study(config: ReplicaConfig, levels,
                     workers: int | None = None) -> dict:
    """Coupled-path depth study: each replica's single Brownian path is
    refined through the given levels and the eigenvalue recomputed; the
    mean absolute drift of log lambda per adjacent level pair must shrink
    as depth grows."""
    levels = tuple(int(l) for l in levels)
    if list(levels) != sorted(set(levels)):
        raise ValueError("levels must be strictly ascending")
    if len(levels) < 2:
        raise ValueError("need at least two levels")
    brownian.check_cells(levels[-1], config.alphabet)
    # replicas x levels
    logs = np.array(map_replicas(partial(_study_row, levels), config, workers))
    drifts = np.mean(np.abs(np.diff(logs, axis=1)), axis=0)
    return {
        "levels": list(levels),
        "pairs": [f"{a}->{b}" for a, b in zip(levels, levels[1:])],
        "mean_abs_drift": [float(d) for d in drifts],
        "decreasing": bool(np.all(np.diff(drifts) < 0)),
    }


def tightened_upper_check(config: ReplicaConfig, rows: list[ReplicaRow]) -> dict:
    """Expectation bounds on a batch's mean lambda: the a priori band upper
    2m e^(beta^2 / 2), and the sharper empirical mean_lambda <= m *
    mean(e^(beta M1)) + 3 stderr, whose mean is reported as mean_exp_m1.

    Both follow from lambda <= m e^(beta M1) on every path; the band then
    uses E e^(beta M1) = E e^(beta |B_1|) <= 2 e^(beta^2 / 2) (reflection
    principle). Past float64 each saturates at the largest float, which
    mean_lambda, itself a float, cannot exceed."""
    good = [r for r in rows if r.converged]
    if not good:
        raise RuntimeError("all replicas failed to converge")
    mean_lambda, stderr = mean_stderr(np.array([r.eigenvalue for r in good]))
    with np.errstate(over="ignore"):
        exp_m1 = np.exp(config.beta * np.array([r.m1 for r in good])).mean()
    mean_exp_m1 = min(float(exp_m1), sys.float_info.max)
    m = config.alphabet.m
    # math.exp raises past 709.78, and 2m e^709 is already out of range
    band_upper = min(2 * m * math.exp(min(config.beta**2 / 2, 709.0)),
                     sys.float_info.max)
    tightened = min(m * mean_exp_m1 + 3 * stderr, sys.float_info.max)
    return {
        "mean_lambda": mean_lambda,
        "stderr_lambda": stderr,
        "band_upper": band_upper,
        "band_bound_ok": bool(mean_lambda <= band_upper),
        "mean_exp_m1": mean_exp_m1,
        "tightened_upper": tightened,
        "tightened_bound_ok": bool(mean_lambda <= tightened),
    }
