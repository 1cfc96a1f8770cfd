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
from functools import lru_cache

import numpy as np

from .brownian import (HOLDER_GAMMA, MAX_CELLS, BrownianGrid,
                       holder_constant)
from .montecarlo import ReplicaConfig, mean_stderr, replica_potential
from .symbolic import Alphabet
from .transfer import (DEFAULT_TOL, PotentialField, SpectralResult,
                       _log_apply, power_iterate)

DEFAULT_P_GRID = np.linspace(0.01, 0.99, 99)


@dataclass(frozen=True)
class PressureSample:
    """One replica's log eigenvalue and best Bernoulli variational bound."""

    log_lambda: float
    variational_lb: float


def birkhoff_pressure(potential: PotentialField, ix: int,
                      kmax: int) -> np.ndarray:
    """Entries (1/k) log (L^k 1)(x) for k = 1..kmax, with x the depth-n
    word of index ix, iterated in the log domain.

    (L^k 1)(x) depends only on the quotient word ix // m, so the logs G of
    L^k 1 are iterated on the m^(n-1) quotient words through _log_apply,
    the kernel of the solve's residual. The depth-n system is shift-closed, so
    evaluation at the fixed word x stands in for the shifted point. Entries
    converge to log lambda at rate O(1/k), uniformly over x.
    """
    m, n = potential.alphabet.m, potential.level
    cells = m**n
    if not 0 <= ix < cells:
        raise ValueError(f"word index {ix} out of range at depth {n}")
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    G, new = np.zeros(cells // m), np.empty(cells // m)
    out = np.empty(kmax)
    for k in range(1, kmax + 1):
        for quotient, S, _ in _log_apply(potential, G, 0.0):
            new[quotient] = S
        G, new = new, G
        out[k - 1] = G[ix // m] / k
    return out


@lru_cache(maxsize=16)
def _log_comb(N: int) -> np.ndarray:
    """log C(N, k) for k = 0..N, each rounded once from the exact integer."""
    out, c = np.empty(N + 1), 1
    for k in range(N + 1):
        out[k] = math.log(c)
        c = c * (N - k) // (k + 1)
    out.setflags(write=False)
    return out


def _log_binomial(N: int, p: np.ndarray) -> np.ndarray:
    """log Binomial(N, p) pmf: row i holds k = 0..N at p[i]."""
    k = np.arange(N + 1)
    p = p[:, None]
    return _log_comb(N) + k * np.log(p) + (N - k) * np.log1p(-p)


@lru_cache(maxsize=4)
def _digit_tables(m: int, n: int):
    """(s, r) over the depth-n words: s[w] the digit sum, and
    r[w] = C(w) / C(N, s[w]) with C(w) = prod_i C(m-1, w_i) and N = n(m-1).

    Both depend on (m, n) alone, so every replica of a batch shares them.
    For m = 2, C(w) = 1 and r is the per-sum constant 1 / C(N, s): r is
    None. Vandermonde's identity makes each sum class's r add up to 1, so
    r stays in (0, 1] at every alphabet size where C(w) itself overflows.
    """
    N = n * (m - 1)
    a = np.arange(m, dtype=np.min_scalar_type(N))
    s = np.zeros(1, dtype=a.dtype)
    for _ in range(n):
        s = (a[:, None] + s).ravel()
    s.setflags(write=False)
    if m == 2:
        return s, None
    lc_letter = _log_comb(m - 1)
    log_c = np.zeros(1)
    for _ in range(n):
        log_c = (lc_letter[:, None] + log_c).ravel()
    log_c -= _log_comb(N)[s]
    r = np.exp(log_c, out=log_c)
    r.setflags(write=False)
    return s, r


@lru_cache(maxsize=4)
def _grid_tables(m: int, n: int, p_bytes: bytes):
    """(entropy, law, scale) for the Bernoulli bound at depth n over the p
    grid whose float64 values are p_bytes: entropy[i] the letter law's
    entropy at p_i, law[i, s] the Binomial(N, p_i) pmf with N = n(m-1), and
    scale[s] = 1 / C(N, s) for m = 2 (None otherwise, where _digit_tables'
    r carries it).

    None of these reads phi, so every replica of a batch shares them. The
    cache keys on the grid's values, never on the array's identity, so two
    grids share tables only if they are equal.
    """
    p_grid = np.frombuffer(p_bytes)
    if p_grid.size == 0:
        raise ValueError("empty p grid")
    if not np.all((p_grid > 0) & (p_grid < 1)):  # NaN too
        raise ValueError("p grid must lie inside (0, 1)")
    N = n * (m - 1)
    if p_grid.size * (N + 1) > MAX_CELLS:
        raise ValueError(f"Bernoulli bound over {p_grid.size} values of p and "
                         f"{N + 1} digit sums exceeds the budget of {MAX_CELLS}")
    log_q = _log_binomial(m - 1, p_grid)
    entropy = -(np.exp(log_q) * log_q).sum(axis=1)
    law = np.exp(_log_binomial(N, p_grid))
    scale = np.exp(-_log_comb(N)) if m == 2 else None
    for table in (entropy, law, scale):
        if table is not None:
            table.setflags(write=False)
    return entropy, law, scale


def bernoulli_lower_bound(potential: PotentialField,
                          p_grid=DEFAULT_P_GRID) -> tuple[float, float]:
    """Best variational lower bound over the Bernoulli(p) family:

        value(p) = entropy(q_p) + sum_w mu_p([w]) phi[w]

    with q_p the per-letter law (Binomial(m-1, p); for m = 2 the familiar
    (1-p, p)) and mu_p the product measure. Returns (best_value, best_p),
    the first maximum along p_grid, a 1-D grid inside (0, 1).

    One pass over the words serves the whole grid. Under mu_p the digit sum
    s(w) is Binomial(N, p) with N = n(m-1), and given s the word has the
    p-free law r(w) = C(w) / C(N, s) of _digit_tables, since
    mu_p([w]) = C(w) p^s (1-p)^(N-s). So the integral is
    sum_s Binomial(N, p)(s) E[phi | s], and E[phi | s] is one bincount.
    Everything else depends on (m, n) and the grid alone (_digit_tables,
    _grid_tables), and is built once per batch.
    """
    p_grid = np.asarray(p_grid, dtype=float)
    if p_grid.ndim != 1:
        raise ValueError("p grid must be 1-D")
    m = potential.alphabet.m
    n = potential.level
    N = n * (m - 1)
    entropy, law, scale = _grid_tables(m, n, p_grid.tobytes())
    s, r = _digit_tables(m, n)
    phi = potential.phi
    if r is None:  # m = 2
        cond = np.bincount(s, weights=phi, minlength=N + 1)
        cond *= scale
    else:
        cond = np.bincount(s, weights=r * phi, minlength=N + 1)
    values = entropy + law @ cond
    best = int(np.argmax(values))
    return float(values[best]), float(p_grid[best])


def variational_slack(grid: BrownianGrid, beta: float) -> float:
    """Depth-n discretization allowance 2 * beta * holder * m^(-gamma n),
    with gamma = HOLDER_GAMMA and m^(-n) the cell span of the finest scale
    holder_constant measures.

    No check reads it: at finite depth the variational principle is exact,
    and quenched_report decides violations to the solve's tolerance. It
    stays only because perfbench's layer table times it by name.
    """
    holder = holder_constant(grid, HOLDER_GAMMA)
    m = float(grid.alphabet.m)
    return 2.0 * beta * holder * m ** (-HOLDER_GAMMA * grid.level)


def pressure_sample(potential: PotentialField,
                    result: SpectralResult) -> PressureSample:
    """Assemble one replica's PressureSample from its converged eigenvalue."""
    lb, _ = bernoulli_lower_bound(potential)
    return PressureSample(log_lambda=result.log_eigenvalue, variational_lb=lb)


def pressure_row(config: ReplicaConfig, i: int) -> PressureSample | None:
    """Replica's PressureSample, or None when its right solve did not
    converge."""
    _, _, potential = replica_potential(config, i)
    res = power_iterate(potential)
    if not res.converged:
        return None
    return pressure_sample(potential, res)


def pressure_band(alphabet: Alphabet, beta: float) -> tuple[float, float]:
    """A priori quenched-pressure band [0, log(2m) + beta^2 / 2].

    Floor: lambda is at least the diagonal entry exp(phi[0^n]) = 1, since
    B_0 = 0, so log lambda >= 0 on every path. Ceiling: lambda <=
    m exp(beta M1) pathwise (M1 = max B on [0, 1]); M1 has the law of |B_1|
    (reflection principle), so E exp(beta M1) <= 2 exp(beta^2 / 2), and
    Jensen's inequality gives E log lambda <= log E lambda <=
    log(2m) + beta^2 / 2.
    """
    return 0.0, math.log(2 * alphabet.m) + beta**2 / 2


def quenched_report(results: list[PressureSample | None], alphabet: Alphabet,
                    beta: float) -> dict | None:
    """Batch report over the replicas that converged (None marks one that
    did not, counted in n_failed), or None when none did: mean and
    standard error of log lambda, the Jensen ordering mean(log) <=
    log(mean), the a priori band check at beta, and the worst variational
    gap (most positive variational_lb - log_lambda).

    Both orderings are exact, so each fails only past DEFAULT_TOL (1 + |x|)
    at its larger side x, the solve's own tolerance: the depth-n potential
    is locally constant, so variational_lb <= log lambda holds on every
    path, and the Collatz-Wielandt bracket certifies log lambda to
    DEFAULT_TOL; Jensen's ordering is AM-GM, true of any positive sample."""
    samples = [s for s in results if s is not None]
    if not samples:
        return None
    logs = np.array([s.log_lambda for s in samples])
    # a lambda past float64 makes log(mean) inf, where Jensen still holds
    with np.errstate(over="ignore"):
        log_mean = math.log(float(np.exp(logs).mean()))
    mean_log, stderr = mean_stderr(logs)
    lo, hi = pressure_band(alphabet, beta)
    gaps = np.array([s.variational_lb - s.log_lambda for s in samples])
    return {
        "n": int(logs.size),
        "n_failed": len(results) - len(samples),
        "mean_log_lambda": mean_log,
        "stderr": stderr,
        "min_log_lambda": float(logs.min()),
        "all_positive": bool(np.all(logs > 0)),
        "jensen_ok": bool(
            mean_log <= log_mean + DEFAULT_TOL * (1 + abs(log_mean))),
        "band": [lo, hi],
        "bounds_ok": bool(lo <= mean_log <= hi),
        "worst_variational_gap": float(gaps.max()),
        "variational_violations": int(
            np.sum(gaps > DEFAULT_TOL * (1 + np.abs(logs)))),
    }
