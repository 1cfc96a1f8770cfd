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

import numpy as np

from . import brownian
from ._rng import derive_seed
from .pressure import PressureSample, mean_stderr, pressure_sample
from .symbolic import Alphabet
from .transfer import (DEFAULT_MAX_ITERS, TransferOperator,
                       build_potential, lambda_overflow, pathwise_bounds,
                       power_iterate, ratio_representation)

WORKERS_ENV = "RUELLE_RAND_WORKERS"


@dataclass(frozen=True)
class ReplicaConfig:
    level: int
    alphabet: Alphabet = Alphabet(2)
    beta: float = 1.0
    master_seed: int = 0
    replicas: int = 1
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
    log_floor: float
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
    # the converged rows' smallest log_floor: on every path, each nu[w] and
    # h[w] / sum(h) is above its exp
    positivity_log_floor: float
    # seconds the replicas took: run metadata, which the CLI puts in the
    # manifest so the report stays a pure function of the config
    wall_time: float

    def to_dict(self) -> dict:
        """The deterministic report fields (all but wall_time)."""
        d = asdict(self)
        del d["wall_time"]
        return d


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument, else the RUELLE_RAND_WORKERS env var, else 1."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        try:
            workers = int(env) if env else 1
        except ValueError:
            raise ValueError(f"{WORKERS_ENV}={env!r} is not an integer "
                             f"worker count") from None
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return workers


def map_replicas(fn, config: ReplicaConfig, workers: int | None = None) -> list:
    """[fn((config, i)) for every replica index i], in index order for any
    worker count. The only replica loop: every batch runs through it.

    The parent is one of the workers: it maps the first ceil(R / workers)
    indices itself while a fork pool of at most workers - 1 children maps
    the rest, forked before the parent computes anything.
    """
    workers = resolve_workers(workers)
    args = [(config, i) for i in range(config.replicas)]
    own = -(-len(args) // workers)
    if own >= len(args):
        return [fn(a) for a in args]
    # imported here so a serial run never loads multiprocessing
    from multiprocessing import get_context

    rest = args[own:]
    children = min(workers - 1, len(rest))
    chunk = max(1, len(rest) // (4 * children))
    with get_context("fork").Pool(children) as pool:
        pending = pool.map_async(fn, rest, chunksize=chunk)
        rows = [fn(a) for a in args[:own]]
        return rows + pending.get()


def replica_operator(config: ReplicaConfig, i: int):
    """Replica i's derived seed, sampled grid and operator."""
    seed = derive_seed(config.master_seed, i)
    grid = brownian.sample(config.level, config.alphabet, seed)
    return seed, grid, TransferOperator(build_potential(grid, config.beta))


def _replica_row(arg: tuple[ReplicaConfig, int]) -> ReplicaRow:
    config, i = arg
    seed, grid, L = replica_operator(config, i)
    m1 = float(np.max(grid.values))
    res = power_iterate(L, config.max_iters)
    if res.converged:
        bounds = pathwise_bounds(L, res, m1)
        # h > 0 as computed, and nu > 0 certified by lambda's bracket alone
        positive = bool(np.all(res.h.values > 0)
                        and math.isfinite(res.log_floor))
        ratio_gap = math.inf  # lambda past float64: aggregate refuses it
        if math.isfinite(res.eigenvalue):
            ratio = ratio_representation(L, res)
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
        m1=m1,
        b1=float(grid.values[-1]),
        iterations=res.iterations,
        residual=res.residual,
        converged=res.converged,
        lower_ok=bounds["lower_ok"],
        upper_ok=bounds["upper_ok"],
        positive_ok=positive,
        log_floor=res.log_floor,
        ratio_gap=ratio_gap,
    )


def pressure_row(arg: tuple[ReplicaConfig, int]) -> PressureSample | None:
    """Replica's PressureSample, or None when its right solve did not
    converge."""
    config, i = arg
    _, grid, L = replica_operator(config, i)
    res = power_iterate(L, config.max_iters)
    if not res.converged:
        return None
    return pressure_sample(L, res, grid)


def run_replicas(config: ReplicaConfig, workers: int | None = None) -> list[ReplicaRow]:
    """All replica rows, in replica-index order regardless of schedule."""
    return map_replicas(_replica_row, config, workers)


def aggregate(config: ReplicaConfig, rows: list[ReplicaRow],
              wall_time: float) -> McReport | None:
    """The batch's report over its converged rows, or None when no replica
    converged. A converged row whose lambda is past float64 is refused
    (ValueError), as spectrum refuses one, and so is a mean or stderr of
    lambda past it."""
    good = [r for r in rows if r.converged]
    if not good:
        return None
    for r in good:
        if math.isinf(r.eigenvalue):
            raise ValueError(f"replica {r.index} (seed {r.seed}): "
                             f"{lambda_overflow(r.log_eigenvalue)}")
    lams = np.array([r.eigenvalue for r in good])
    mean_lambda, stderr_lambda = mean_stderr(lams)
    for name, value in (("mean_lambda", mean_lambda),
                        ("stderr_lambda", stderr_lambda)):
        if math.isinf(value):
            raise ValueError(f"{name} of the {lams.size} converged replicas "
                             f"overflows float64")
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
        positivity_log_floor=min(r.log_floor for r in good),
        wall_time=wall_time,
    )


def run(config: ReplicaConfig,
        workers: int | None = None) -> tuple[list[ReplicaRow], McReport | None]:
    """The batch's rows and aggregate's report, wall_time covering the
    replicas."""
    t0 = time.perf_counter()
    rows = run_replicas(config, workers)
    return rows, aggregate(config, rows, time.perf_counter() - t0)


def _study_row(levels: tuple[int, ...],
               arg: tuple[ReplicaConfig, int]) -> list[float] | None:
    """Replica's log lambda at each level, or None as soon as one of its
    solves does not converge."""
    config, i = arg
    seed = derive_seed(config.master_seed, i)
    grid = brownian.sample(levels[0], config.alphabet, seed)
    logs = []
    for target in levels:
        while grid.level < target:
            grid = brownian.refine(grid)
        L = TransferOperator(build_potential(grid, config.beta))
        res = power_iterate(L, config.max_iters)
        if not res.converged:
            return None
        logs.append(res.log_eigenvalue)
    return logs


def refinement_study(config: ReplicaConfig, levels,
                     workers: int | None = None) -> dict | None:
    """Coupled-path depth study: each replica's single Brownian path is
    refined through the given levels and the eigenvalue recomputed; the
    mean absolute drift of log lambda per adjacent level pair must shrink
    as depth grows. Drifts are taken over the replicas that converged at
    every level, n_failed counts the others, and None means none
    converged."""
    levels = tuple(int(l) for l in levels)
    if list(levels) != sorted(set(levels)):
        raise ValueError("levels must be strictly ascending")
    if len(levels) < 2:
        raise ValueError("need at least two levels")
    brownian.check_cells(levels[-1], config.alphabet)
    rows = map_replicas(partial(_study_row, levels), config, workers)
    good = [r for r in rows if r is not None]
    if not good:
        return None
    # converged replicas x levels
    drifts = np.mean(np.abs(np.diff(np.array(good), axis=1)), axis=0)
    return {
        "levels": list(levels),
        "pairs": [f"{a}->{b}" for a, b in zip(levels, levels[1:])],
        "mean_abs_drift": [float(d) for d in drifts],
        "decreasing": bool(np.all(np.diff(drifts) < 0)),
        "n_failed": len(rows) - len(good),
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
