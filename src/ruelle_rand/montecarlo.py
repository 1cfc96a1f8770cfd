"""Replica engine: derived seeds, one ordered replica map for every
sample -> spectrum batch, the batch statistics, order-stable aggregation,
and the expectation-bound checks. It imports no other batch: pressure's
row lives beside its report.

Every row is row(config, i) on replica i's path from replica_potential,
under seed derive_seed(master_seed, i), so the result set is a pure
function of the config. The worker count is the caller's argument (the
engine reads no environment) and only changes the schedule; aggregation
consumes rows in replica-index order, making the report bitwise identical
for any worker count.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from . import brownian
from ._rng import derive_seed
from .symbolic import Alphabet
from .transfer import (build_potential, lambda_overflow, pathwise_bounds,
                       power_iterate)


@dataclass(frozen=True)
class ReplicaConfig:
    level: int
    alphabet: Alphabet = Alphabet(2)
    beta: float = 1.0
    master_seed: int = 0
    replicas: int = 1

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
    converged: bool
    lower_ok: bool
    upper_ok: bool
    positive_ok: bool
    log_floor: float


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
    # no failed replica and no bound violation
    bounds_ok: bool
    # mean_lambda inside the expectation band and below the tightened
    # upper bound; None at beta != 1, where the band is not gated
    expectation_band_ok: bool | None
    tightened: dict
    # seconds the replicas took: run metadata, which the CLI puts in the
    # manifest so the report stays a pure function of the config
    wall_time: float

    def to_dict(self) -> dict:
        """The deterministic report fields (all but wall_time)."""
        d = asdict(self)
        del d["wall_time"]
        return d


def chunk_size(replicas: int, workers: int) -> int:
    """Replicas per chunk of a work-shared map: about 16 chunks a worker,
    so that the last chunk to finish keeps the others idle for a small
    share of the batch."""
    return max(1, replicas // (16 * workers))


def _claim(counter, chunks: int) -> int | None:
    """The next unclaimed chunk index, or None when none is left."""
    with counter.get_lock():
        chunk = counter.value
        if chunk >= chunks:
            return None
        counter.value = chunk + 1
    return chunk


def _map_chunk(fn, config: ReplicaConfig, size: int, chunk: int) -> list:
    stop = min((chunk + 1) * size, config.replicas)
    return [fn(config, i) for i in range(chunk * size, stop)]


def _child(fn, config: ReplicaConfig, size: int, chunks: int, counter,
           conn) -> None:
    """A forked child's share: sends the parent (chunk, rows) for every
    chunk it claims, or the exception that stopped it, after claiming the
    rest so that the parent stops within one chunk."""
    try:
        done = []
        while (chunk := _claim(counter, chunks)) is not None:
            done.append((chunk, _map_chunk(fn, config, size, chunk)))
    except BaseException as e:
        counter.value = chunks
        done = e
    conn.send(done)


def map_replicas(fn, config: ReplicaConfig, workers: int = 1) -> list:
    """[fn(config, i) for every replica index i], in index order for any
    worker count. The only replica loop: every batch runs through it, and
    it reads no environment: the CLI resolves the worker count.

    Work sharing: the replicas are cut into chunks of chunk_size, and the
    parent and up to workers - 1 forked children claim chunks from one
    shared counter until none is left, so that every process stays busy
    until the batch's last chunk. The parent claims chunk 0 before it forks
    the children, and forks them before it computes anything; rows are put
    back in chunk order. A child's exception claims the remaining chunks
    and is raised in the parent, which stops within one chunk of it; a
    child that dies raises RuntimeError; an exception in the parent ends
    the children. The parent loads numpy.random before the first fork, so
    that no child imports it on its first row. A batch of one chunk, or one
    worker, runs in the parent alone and never loads multiprocessing.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    size = chunk_size(config.replicas, workers)
    chunks = -(-config.replicas // size)
    if workers == 1 or chunks == 1:
        return _map_chunk(fn, config, config.replicas, 0)
    # imported here so a serial run never loads multiprocessing
    from multiprocessing import get_context

    # every row samples a path; a child that imported numpy.random itself
    # would keep about 5.5 MB of import-time pages, one that inherits it
    # touches none of them
    import numpy.random

    ctx = get_context("fork")
    counter = ctx.Value("q", 1)  # chunk 0 is the parent's
    children = []
    rows = [None] * chunks
    try:
        for _ in range(min(workers - 1, chunks - 1)):
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_child, args=(fn, config, size, chunks,
                                                     counter, send))
            child.start()
            send.close()
            children.append((child, recv))
        chunk = 0
        while chunk is not None:
            rows[chunk] = _map_chunk(fn, config, size, chunk)
            # a child exits with chunks unclaimed only when it failed
            if any(child.exitcode is not None for child, _ in children):
                break
            chunk = _claim(counter, chunks)
        for child, recv in children:
            try:
                done = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"a replica worker died with exit code "
                                   f"{child.exitcode}") from None
            if isinstance(done, BaseException):
                raise done
            for chunk, part in done:
                rows[chunk] = part
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, recv in children:
            child.join()
            recv.close()
    return [row for part in rows for row in part]


def replica_potential(config: ReplicaConfig, i: int):
    """Replica i's derived seed, sampled grid and potential: the one place
    a replica's path is drawn."""
    seed = derive_seed(config.master_seed, i)
    grid = brownian.sample(config.level, config.alphabet, seed)
    return seed, grid, build_potential(grid, config.beta)


def _replica_row(config: ReplicaConfig, i: int) -> ReplicaRow:
    seed, grid, potential = replica_potential(config, i)
    m1 = float(np.max(grid.values))
    res = power_iterate(potential)
    if res.converged:
        bounds = pathwise_bounds(potential, res, m1)
        # h > 0 and nu > 0 decided in logs: every log H entry finite (an h
        # entry below e^-745 is 0 in float64 but still positive), and nu's
        # floor certified by lambda's bracket alone
        positive = bool(np.isfinite(res.log_h.min())
                        and math.isfinite(res.log_floor))
    else:
        bounds = {"lower_ok": False, "upper_ok": False}
        positive = False
    return ReplicaRow(
        index=i,
        seed=seed,
        eigenvalue=res.eigenvalue,
        log_eigenvalue=res.log_eigenvalue,
        m1=m1,
        b1=float(grid.values[-1]),
        iterations=res.iterations,
        converged=res.converged,
        lower_ok=bounds["lower_ok"],
        upper_ok=bounds["upper_ok"],
        positive_ok=positive,
        log_floor=res.log_floor,
    )


def run_replicas(config: ReplicaConfig, workers: int = 1) -> list[ReplicaRow]:
    """All replica rows, in replica-index order regardless of schedule."""
    return map_replicas(_replica_row, config, workers)


def mean_stderr(v: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error (0 for a single sample); inf past
    float64, which a report refuses."""
    with np.errstate(over="ignore"):
        se = float(v.std(ddof=1) / math.sqrt(v.size)) if v.size > 1 else 0.0
        return float(v.mean()), se


def _quantiles(values) -> dict:
    """q01, q50 and q99 of values, bit for bit as np.quantile's default
    "linear" rule gives them, from one sorted copy: at the virtual index
    v = (n - 1) q, with i = floor(v), t = v - i and a, b the i-th and next
    sorted values (the last value for both past the end), a + (b - a) t,
    or b - (b - a)(1 - t) where t >= 0.5. np.quantile itself imports
    numpy.ma on its first call."""
    s = sorted(values)
    n = len(s)
    out = {}
    for name, q in (("q01", 0.01), ("q50", 0.5), ("q99", 0.99)):
        v = (n - 1) * q
        i = math.floor(v)
        t = v - i
        a, b = s[i], s[min(i + 1, n - 1)]
        out[name] = float(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))
    return out


def aggregate(config: ReplicaConfig, rows: list[ReplicaRow],
              wall_time: float) -> McReport | None:
    """The batch's report over its converged rows, verdicts included, or
    None when no replica converged. A converged row whose lambda is past
    float64 is refused (ValueError), as spectrum refuses one, and so is a
    mean or stderr of lambda past it."""
    good = [r for r in rows if r.converged]
    if not good:
        return None
    for r in good:
        if math.isinf(r.eigenvalue):
            raise ValueError(f"replica {r.index} (seed {r.seed}): "
                             f"{lambda_overflow(r.log_eigenvalue)}")
    tight = tightened_upper_check(config, good)
    mean_lambda, stderr_lambda = tight["mean_lambda"], tight["stderr_lambda"]
    for name, value in (("mean_lambda", mean_lambda),
                        ("stderr_lambda", stderr_lambda)):
        if math.isinf(value):
            raise ValueError(f"{name} of the {len(good)} converged replicas "
                             f"overflows float64")
    mean_log, stderr_log = mean_stderr(np.array([r.log_eigenvalue for r in good]))
    violations = {
        "lower": sum(1 for r in good if not r.lower_ok),
        "upper": sum(1 for r in good if not r.upper_ok),
        "positivity": sum(1 for r in good if not r.positive_ok),
    }
    band_ok = None
    if config.beta == 1.0:
        # the expectation band [e^(1/2), 2m e^(1/2)] at beta 1
        band_ok = (math.exp(0.5) <= mean_lambda <= tight["band_upper"]
                   and tight["tightened_bound_ok"])
    return McReport(
        n_converged=len(good),
        n_failed=len(rows) - len(good),
        mean_lambda=mean_lambda,
        stderr_lambda=stderr_lambda,
        mean_log_lambda=mean_log,
        stderr_log_lambda=stderr_log,
        quantiles=_quantiles([r.eigenvalue for r in good]),
        bound_violations=violations,
        positivity_log_floor=min(r.log_floor for r in good),
        bounds_ok=sum(violations.values()) == 0 and len(good) == len(rows),
        expectation_band_ok=band_ok,
        tightened=tight,
        wall_time=wall_time,
    )


def run(config: ReplicaConfig,
        workers: int = 1) -> tuple[list[ReplicaRow], McReport | None]:
    """The batch's rows and aggregate's report, wall_time covering the
    replicas."""
    t0 = time.perf_counter()
    rows = run_replicas(config, workers)
    return rows, aggregate(config, rows, time.perf_counter() - t0)


def _study_row(levels: tuple[int, ...], config: ReplicaConfig,
               i: int) -> list[float] | None:
    """Replica's log lambda at each level, its path refined from the
    levels[0] grid, or None as soon as one of its solves does not
    converge."""
    _, grid, potential = replica_potential(replace(config, level=levels[0]), i)
    logs = []
    for target in levels:
        while grid.level < target:
            grid = brownian.refine(grid)
        if potential.level < target:
            potential = build_potential(grid, config.beta)
        res = power_iterate(potential)
        if not res.converged:
            return None
        logs.append(res.log_eigenvalue)
    return logs


def refinement_study(config: ReplicaConfig, levels,
                     workers: int = 1) -> dict | None:
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
    mean_lambda, itself a float, cannot exceed. rows are the batch's
    converged rows, as aggregate passes them."""
    mean_lambda, stderr = mean_stderr(np.array([r.eigenvalue for r in rows]))
    with np.errstate(over="ignore"):
        exp_m1 = np.exp(config.beta * np.array([r.m1 for r in rows])).mean()
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
