"""Depth-n transfer operator for a sampled Brownian potential.

A depth-n word w carries weight exp(beta * B_{t(w)}) with t read at the
cylinder's left endpoint w.0^inf. The operator

    (L f)[w] = sum_a exp(phi[a w_1 .. w_{n-1}]) f[a w_1 .. w_{n-1}]

is never assembled as a matrix: with k the index of w, the preimage
indices are a * m^(n-1) + k // m, so one application is a reshape, a sum
over the leading letter, and a repeat. The left-endpoint convention puts
B_0 = 0 into the operator exactly, which makes the eigenvalue ratio
identity at the all-zeros word exact at every finite depth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .brownian import BrownianGrid
from .skorokhod import CylinderFunction, theta_inverse
from .symbolic import Alphabet

# beta * oscillation above which iteration moves to the log domain
_LOG_DOMAIN_OSC = 30.0
DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITERS = 100_000


@dataclass(frozen=True)
class PotentialField:
    """phi[w] = beta * B at the left endpoint of cylinder [w]."""

    level: int
    alphabet: Alphabet
    beta: float
    phi: np.ndarray

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.level < 1:
            raise ValueError("potential needs depth >= 1")
        p = np.asarray(self.phi, dtype=np.float64)
        if p.shape != (self.alphabet.m**self.level,):
            raise ValueError("phi length must be m^level")
        p.setflags(write=False)
        object.__setattr__(self, "phi", p)


class TransferOperator:
    """Matrix-free depth-n Ruelle operator for one potential."""

    def __init__(self, potential: PotentialField):
        self.potential = potential
        self._weights = np.exp(potential.phi)

    @property
    def level(self) -> int:
        return self.potential.level

    @property
    def alphabet(self) -> Alphabet:
        return self.potential.alphabet

    def _apply(self, f: np.ndarray) -> np.ndarray:
        m = self.alphabet.m
        G = self._weights * f
        return np.repeat(G.reshape(m, -1).sum(axis=0), m)

    def _apply_log(self, g: np.ndarray) -> np.ndarray:
        # log-sum-exp over the m preimage terms of phi + g
        m = self.alphabet.m
        A = (self.potential.phi + g).reshape(m, -1)
        amax = A.max(axis=0)
        S = amax + np.log(np.exp(A - amax).sum(axis=0))
        return np.repeat(S, m)

    def _adjoint(self, nu: np.ndarray) -> np.ndarray:
        m = self.alphabet.m
        T = nu.reshape(-1, m).sum(axis=1)
        return self._weights * np.tile(T, m)

    def _adjoint_log(self, g: np.ndarray) -> np.ndarray:
        m = self.alphabet.m
        A = g.reshape(-1, m)
        amax = A.max(axis=1)
        T = amax + np.log(np.exp(A - amax[:, None]).sum(axis=1))
        return self.potential.phi + np.tile(T, m)


@dataclass(frozen=True)
class SpectralResult:
    """Perron data of one operator. eigenvalue/log_eigenvalue are the JSON
    report's lambda/log_lambda; h is normalized h[0^n] = 1, nu sums to 1."""

    eigenvalue: float
    log_eigenvalue: float
    h: CylinderFunction
    nu: np.ndarray
    iterations: int
    residual: float
    converged: bool


def build_potential(grid: BrownianGrid, beta: float) -> PotentialField:
    """Left-endpoint relabeling of the grid, scaled by beta. No interpolation."""
    phi = beta * grid.values[:-1]
    return PotentialField(grid.level, grid.alphabet, beta, phi)


def apply(L: TransferOperator, f: CylinderFunction) -> CylinderFunction:
    if f.level != L.level or f.alphabet != L.alphabet:
        raise ValueError("operator and function live at different levels")
    return CylinderFunction(L.level, L.alphabet, L._apply(f.values))


def _iterate_linear(L: TransferOperator, tol: float, max_iters: int):
    f = np.ones(L.alphabet.m**L.level)
    lam_prev = np.inf
    lam = np.nan
    iters = 0
    converged = False
    for iters in range(1, max_iters + 1):
        u = L._apply(f)
        lam = u.max()
        ratio_gap = np.max(np.abs(u / (lam * f) - 1.0))
        if ratio_gap <= tol and abs(lam - lam_prev) <= tol * lam:
            converged = True
            break
        lam_prev = lam
        f = u / lam

    nu = np.full(f.size, 1.0 / f.size)
    nlam_prev = np.inf
    for _ in range(1, max_iters + 1):
        v = L._adjoint(nu)
        nlam = v.sum()
        if (np.max(np.abs(v / (nlam * nu) - 1.0)) <= tol
                and abs(nlam - nlam_prev) <= tol * nlam):
            nu = v / nlam
            break
        nlam_prev = nlam
        nu = v / nlam

    h = f / f[0]
    residual = np.max(np.abs(L._apply(h) - lam * h)) / (lam * np.max(np.abs(h)))
    return lam, float(np.log(lam)), h, nu, iters, float(residual), converged


def _iterate_log(L: TransferOperator, tol: float, max_iters: int):
    size = L.alphabet.m**L.level
    g = np.zeros(size)
    llam_prev = np.inf
    llam = np.nan
    iters = 0
    converged = False
    for iters in range(1, max_iters + 1):
        G = L._apply_log(g)
        llam = G.max()
        ratio_gap = np.max(np.abs(G - g - llam))
        if ratio_gap <= tol and abs(llam - llam_prev) <= tol:
            converged = True
            break
        llam_prev = llam
        g = G - llam

    lnu = np.full(size, -np.log(size))
    nlam_prev = np.inf
    for _ in range(1, max_iters + 1):
        v = L._adjoint_log(lnu)
        vmax = v.max()
        nlam = vmax + np.log(np.exp(v - vmax).sum())
        if (np.max(np.abs(v - nlam - lnu)) <= tol
                and abs(nlam - nlam_prev) <= tol):
            lnu = v - nlam
            break
        nlam_prev = nlam
        lnu = v - nlam

    # residual in the scale-invariant form max|u - lam h| / (lam ||h||_inf),
    # evaluated on h / ||h||_inf so extreme beta cannot overflow
    G = L._apply_log(g)
    gmax = g.max()
    residual = np.max(np.abs(np.exp(G - llam - gmax) - np.exp(g - gmax)))
    h = np.exp(g - g[0])
    return float(np.exp(llam)), float(llam), h, np.exp(lnu), iters, float(residual), converged


def power_iterate(L: TransferOperator, tol: float = DEFAULT_TOL,
                  max_iters: int = DEFAULT_MAX_ITERS) -> SpectralResult:
    """Perron eigendata by power iteration from f = 1, the adjoint iteration
    supplying nu. Stops when the pointwise eigen-ratio and successive
    eigenvalue estimates both settle within tol (relative).

    Non-convergence is reported through the converged flag, never raised:
    replica batches must see the failure, not die on it.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    phi = L.potential.phi
    osc = float(phi.max() - phi.min())
    if osc > _LOG_DOMAIN_OSC:
        lam, llam, h, nu, iters, residual, ok = _iterate_log(L, tol, max_iters)
    else:
        lam, llam, h, nu, iters, residual, ok = _iterate_linear(L, tol, max_iters)
    return SpectralResult(
        eigenvalue=lam,
        log_eigenvalue=llam,
        h=CylinderFunction(L.level, L.alphabet, h),
        nu=nu,
        iterations=iters,
        residual=residual,
        converged=ok,
    )


def log_power_iterates(L: TransferOperator, kmax: int):
    """Yield (k, log L^k 1) for k = 1..kmax, iterated in the log domain."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    g = np.zeros(L.alphabet.m**L.level)
    for k in range(1, kmax + 1):
        g = L._apply_log(g)
        yield k, g


def gelfand_sequence(L: TransferOperator, kmax: int) -> np.ndarray:
    """Entries ||L^k 1||_inf^(1/k) for k = 1..kmax, kept in log-domain."""
    return np.array([np.exp(g.max() / k) for k, g in log_power_iterates(L, kmax)])


def ratio_representation(L: TransferOperator, result: SpectralResult,
                         grid: BrownianGrid) -> float:
    """1 + sum_{a>0} exp(beta B_{a/m}) h[a 0^{n-1}] / h[0^n].

    This is the eigen-equation at the all-zeros word, so it reproduces the
    eigenvalue exactly up to the iteration tolerance at every finite depth.
    """
    m = L.alphabet.m
    n = L.level
    beta = L.potential.beta
    h = result.h.values
    block = m ** (n - 1)
    total = 1.0
    for a in range(1, m):
        total += np.exp(beta * grid.values[a * block]) * h[a * block] / h[0]
    return float(total)


def functional_equation_residual(L: TransferOperator, result: SpectralResult,
                                 grid: BrownianGrid) -> float:
    """Residual of sum_a exp(beta B_{a/m + t/m}) X_{a/m + t/m} = lambda X_t
    over the level-(n-1) grid points t, with X = theta_inverse(h), scaled
    by lambda ||X||_inf.

    Unconverged results leave a visibly large residual; that is the point.
    """
    m = L.alphabet.m
    n = L.level
    beta = L.potential.beta
    X = theta_inverse(result.h).right_values
    block = m ** (n - 1)
    j = np.arange(block)  # t = j / m^(n-1)
    lhs = np.zeros(block)
    for a in range(m):
        idx = a * block + j  # index of the level-n point a/m + t/m
        lhs += np.exp(beta * grid.values[idx]) * X[idx]
    rhs = result.eigenvalue * X[j * m]
    return float(np.max(np.abs(lhs - rhs)) / (result.eigenvalue * np.max(np.abs(X))))


def pathwise_bounds(L: TransferOperator, result: SpectralResult,
                    grid: BrownianGrid) -> dict:
    """Sandwich for the discrete eigenvalue on one path:

      max diagonal entry  <=  lambda  <=  m * exp(beta * max grid value).

    The diagonal entries sit at the constant words a^n. Checks carry a
    1e-12 relative slack so exact-equality cases (zero noise) stay true
    under float rounding.
    """
    m = L.alphabet.m
    n = L.level
    beta = L.potential.beta
    lam = result.eigenvalue
    diag = max(
        float(np.exp(L.potential.phi[a * (m**n - 1) // (m - 1)])) for a in range(m)
    )
    upper = m * np.exp(beta * float(np.max(grid.values)))
    return {
        "lower_ok": bool(lam >= diag * (1.0 - 1e-12)),
        "upper_ok": bool(lam <= upper * (1.0 + 1e-12)),
    }
