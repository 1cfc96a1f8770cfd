"""Quenched pressure estimation: per-replica log eigenvalues, Birkhoff-type
iterate limits, and Bernoulli variational lower bounds.

The quenched pressure is the expectation of log lambda over the potential
law. Each replica contributes its log eigenvalue; Bernoulli product
measures supply a rigorous one-sided variational check at every depth,
because a depth-n potential is itself a continuous (locally constant)
function on the shift, for which the classical variational principle holds
with no discretization error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .brownian import BrownianGrid, stats
from .symbolic import Alphabet, Word, word_index
from .transfer import (PotentialField, SpectralResult, TransferOperator,
                       log_power_iterates)

DEFAULT_P_GRID = np.linspace(0.01, 0.99, 99)
# exponent used for the depth-n discretization allowance in variational checks
SLACK_GAMMA = 0.4


@dataclass(frozen=True)
class PressureSample:
    """One replica's pressure data. slack is the reported discretization
    allowance used by the variational check."""

    log_lambda: float
    birkhoff: np.ndarray
    variational_lb: float
    bernoulli_p: float
    slack: float


def birkhoff_pressure(L: TransferOperator, x: Word, kmax: int) -> np.ndarray:
    """Entries (1/k) log (L^k 1)(x) for k = 1..kmax.

    The depth-n system is shift-closed, so evaluation at the fixed word x
    stands in for the shifted point. Entries converge to log lambda at
    rate O(1/k), uniformly over x.
    """
    if x.depth != L.level or x.alphabet != L.alphabet:
        raise ValueError("word and operator live at different depths")
    ix = word_index(x)
    return np.array([g[ix] / k for k, g in log_power_iterates(L, kmax)])


def mean_stderr(v: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error (0 for a single sample)."""
    se = float(v.std(ddof=1) / math.sqrt(v.size)) if v.size > 1 else 0.0
    return float(v.mean()), se


def _letter_weights(p: float, m: int) -> np.ndarray:
    """Binomial(m-1, p) letter law; reduces to (1-p, p) for m = 2."""
    a = np.arange(m)
    return (np.array([math.comb(m - 1, int(k)) for k in a], dtype=float)
            * p**a * (1 - p) ** (m - 1 - a))


def bernoulli_lower_bound(potential: PotentialField,
                          p_grid=DEFAULT_P_GRID) -> tuple[float, float]:
    """Best variational lower bound over the Bernoulli(p) family:

        value(p) = entropy(q_p) + sum_w mu_p([w]) phi[w]

    with q_p the per-letter law (Binomial(m-1, p); for m = 2 the familiar
    (1-p, p)) and mu_p the product measure. Returns (best_value, best_p).
    """
    p_grid = np.asarray(p_grid, dtype=float)
    if p_grid.size == 0:
        raise ValueError("empty p grid")
    if np.any(p_grid <= 0) or np.any(p_grid >= 1):
        raise ValueError("p grid must lie inside (0, 1)")
    m = potential.alphabet.m
    n = potential.level
    best_value, best_p = -np.inf, p_grid[0]
    for p in p_grid:
        q = _letter_weights(float(p), m)
        entropy = float(-(q * np.log(q)).sum())
        integral = potential.phi
        for _ in range(n):
            integral = q @ integral.reshape(m, -1)
        value = entropy + float(integral[0])
        if value > best_value:
            best_value, best_p = value, float(p)
    return best_value, best_p


def variational_slack(grid: BrownianGrid, beta: float,
                      gamma: float = SLACK_GAMMA) -> float:
    """Depth-n discretization allowance 2 * beta * holder * 2^(-gamma n).

    Heuristic, reported never silently absorbed; at finite depth the
    Bernoulli bound is exact for the discretized system, so healthy runs
    never come near it.
    """
    holder = stats(grid, gamma).holder_constant
    return 2.0 * beta * holder * 2.0 ** (-gamma * grid.level)


def pressure_sample(L: TransferOperator, result: SpectralResult,
                    grid: BrownianGrid, kmax: int = 50,
                    p_grid=DEFAULT_P_GRID) -> PressureSample:
    """Assemble one replica's PressureSample from converged spectral data."""
    x = Word((0,) * L.level, L.alphabet)
    lb, p = bernoulli_lower_bound(L.potential, p_grid)
    return PressureSample(
        log_lambda=result.log_eigenvalue,
        birkhoff=birkhoff_pressure(L, x, kmax),
        variational_lb=lb,
        bernoulli_p=p,
        slack=variational_slack(grid, L.potential.beta),
    )


def pressure_band(alphabet: Alphabet) -> tuple[float, float]:
    """A priori quenched-pressure band [0, log(2m) + 1/2]."""
    return 0.0, math.log(2 * alphabet.m) + 0.5


def quenched_report(samples: list[PressureSample],
                    alphabet: Alphabet = Alphabet(2)) -> dict:
    """Batch aggregation: mean and standard error of log lambda, the Jensen
    ordering mean(log) <= log(mean), the a priori band check, and the worst
    variational gap (most positive variational_lb - log_lambda)."""
    if not samples:
        raise ValueError("no samples")
    logs = np.array([s.log_lambda for s in samples])
    lams = np.exp(logs)
    mean_log, stderr = mean_stderr(logs)
    lo, hi = pressure_band(alphabet)
    gaps = np.array([s.variational_lb - s.log_lambda for s in samples])
    slacks = np.array([s.slack for s in samples])
    return {
        "n": int(logs.size),
        "mean_log_lambda": mean_log,
        "stderr": stderr,
        "min_log_lambda": float(logs.min()),
        "all_positive": bool(np.all(logs > 0)),
        "jensen_ok": bool(mean_log <= math.log(float(lams.mean()))),
        "band": [lo, hi],
        "bounds_ok": bool(lo <= mean_log <= hi),
        "worst_variational_gap": float(gaps.max()),
        "variational_violations": int(np.sum(gaps > slacks)),
    }
