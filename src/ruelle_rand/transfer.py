"""Depth-n transfer operator for a sampled Brownian potential.

A depth-n word w carries weight exp(beta * B_{t(w)}) with t read at the
cylinder's left endpoint w.0^inf. The operator

    (L f)[w] = sum_a exp(phi[a w_1 .. w_{n-1}]) f[a w_1 .. w_{n-1}]

is never assembled as a matrix: with k the index of w, the preimage
indices are a * m^(n-1) + k // m, so one application is a reshape, a sum
over the leading letter, and a repeat. The left-endpoint convention puts
B_0 = 0 into the operator exactly, which makes the eigenvalue ratio
identity at the all-zeros word exact at every finite depth.

Because Lf depends only on k // m, the Perron solve runs on the m^(n-1)
quotient words. Word reversal R conjugates the adjoint of L to the
operator of the reversed potential phi o R, so the same solve, run on
phi o R, also gives the eigenmeasure nu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .brownian import BrownianGrid
from .skorokhod import CylinderFunction, theta_inverse
from .symbolic import Alphabet

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITERS = 100_000
# an iterate whose entries span more than this ratio has its logs folded
# into the weights, so the linear iteration never under- or overflows
_FOLD_RANGE = 1e150
# the shifted update starts once the CW width fails to halve over this many
# iterations, counted from iteration n + _STALL_WINDOW on (L^n > 0, so an
# earlier plateau is still mixing)
_STALL_WINDOW = 10
# quotient heads j per block of one operator application: the block's
# weights, output and ratios (about 1.5 MiB at m = 2) stay in L2 between
# the contraction and the bracket's min/max
_BLOCK_HEADS = 2**14


@dataclass(frozen=True)
class PotentialField:
    """phi[w] = beta * B at the left endpoint of cylinder [w]."""

    level: int
    alphabet: Alphabet
    beta: float
    phi: np.ndarray

    def __post_init__(self):
        if not self.beta >= 0:  # NaN too
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

    @property
    def level(self) -> int:
        return self.potential.level

    @property
    def alphabet(self) -> Alphabet:
        return self.potential.alphabet

    def _apply(self, f: np.ndarray) -> np.ndarray:
        m = self.alphabet.m
        G = np.exp(self.potential.phi) * f
        return np.repeat(G.reshape(m, -1).sum(axis=0), m)

    def _apply_log(self, g: np.ndarray) -> np.ndarray:
        # log-sum-exp over the m preimage terms of phi + g
        m = self.alphabet.m
        A = (self.potential.phi + g).reshape(m, -1)
        amax = A.max(axis=0)
        S = amax + np.log(np.exp(A - amax).sum(axis=0))
        return np.repeat(S, m)


@dataclass(frozen=True)
class SpectralResult:
    """Perron data of one operator. eigenvalue/log_eigenvalue are the JSON
    report's lambda/log_lambda; h is normalized h[0^n] = 1, nu sums to 1.

    bracket is the Collatz-Wielandt certificate min(Lh/h) <= lambda <=
    max(Lh/h) of h. iterations counts the operator applications of both
    solves. An unconverged result stops after the right solve: nu is then
    NaN, and h and bracket are its last iterate's. A lambda past the
    float64 range is inf, while log_eigenvalue stays finite.

    spectrum reports h, nu and the residual, and montecarlo's positivity
    check reads h and nu; callers that read only lambda (pressure,
    refine-study) use perron_eigenvalue instead.
    """

    eigenvalue: float
    log_eigenvalue: float
    h: CylinderFunction
    nu: np.ndarray
    iterations: int
    residual: float
    converged: bool
    bracket: tuple[float, float]


@dataclass(frozen=True)
class PerronEigenvalue:
    """lambda alone, from the right solve: the fields of SpectralResult that
    the Collatz-Wielandt bracket certifies without h or nu. iterations
    counts the right solve's operator applications."""

    eigenvalue: float
    log_eigenvalue: float
    bracket: tuple[float, float]
    iterations: int
    converged: bool


def build_potential(grid: BrownianGrid, beta: float) -> PotentialField:
    """Left-endpoint relabeling of the grid, scaled by beta. No interpolation."""
    phi = beta * grid.values[:-1]
    return PotentialField(grid.level, grid.alphabet, beta, phi)


def apply(L: TransferOperator, f: CylinderFunction) -> CylinderFunction:
    if f.level != L.level or f.alphabet != L.alphabet:
        raise ValueError("operator and function live at different levels")
    return CylinderFunction(L.level, L.alphabet, L._apply(f.values))


def _reverse(x: np.ndarray, m: int, depth: int) -> np.ndarray:
    """x o R on depth-letter words, R reversing the letters of a word."""
    return x.reshape((m,) * depth).transpose().ravel()


def _scaled_weights(phi3: np.ndarray, psi: np.ndarray):
    """(W, c) with W[a, b, j] = exp(phi[a j b] + psi[a j] - psi[j b] - c) and
    c the largest exponent, so W <= 1 for every potential. The last letter b
    comes before j so that the contraction over a runs along j."""
    m, inner, last = phi3.shape
    E = np.empty((m, last, inner))
    np.add(phi3.transpose(0, 2, 1),
           np.broadcast_to(psi.reshape(-1, inner), (m, inner))[:, None, :],
           out=E)
    E -= psi.reshape(inner, last).T
    c = float(E.max())
    E -= c
    return np.exp(E, out=E), c


def _plans(W: np.ndarray, F: np.ndarray, S: np.ndarray):
    """Per-block views for one application F -> S and one for S -> F.

    A block is the heads j0:j1: its weights W[:, :, j0:j1], its heads
    F[a j], its strided output S[j b], the contiguous F and S slices its
    Collatz-Wielandt ratios are taken over, and a block-sized ratio
    buffer. Built once per weight build, so the loop makes no view.
    """
    m, last, inner = W.shape
    block = min(_BLOCK_HEADS, inner)
    ratio = np.empty(block * last)
    plans = []
    for src, dst in ((F, S), (S, F)):
        heads = np.broadcast_to(src.reshape(-1, inner), (m, inner))
        out = dst.reshape(inner, last)
        plan = []
        for j0 in range(0, inner, block):
            j1 = min(j0 + block, inner)
            cells = slice(j0 * last, j1 * last)
            plan.append((W[:, :, j0:j1], heads[:, j0:j1], out[j0:j1].T,
                         dst[cells], src[cells], ratio[:(j1 - j0) * last]))
        plans.append(plan)
    return plans


def _perron_core(phi: np.ndarray, m: int, n: int, tol: float, max_iters: int):
    """Right Perron vector of the operator with potential phi, on the m^(n-1)
    quotient words: (Lf)[k] depends only on j = k // m, and F[j] = f[j m]
    obeys (QF)[j b] = sum_a exp(phi[a j b]) F[a j].

    The true iterate is exp(psi) * F. F is iterated against the scaled
    weights of _scaled_weights; when its entries span more than _FOLD_RANGE,
    log F moves into psi and the weights are rebuilt, so one linear kernel
    serves every beta. Stops when the Collatz-Wielandt bracket
    [min QF/F, max QF/F] has relative width <= tol. The update is F <- QF
    until the width stalls (near-cyclic large beta), then F <- QF + lo F,
    which damps the eigenvalues near -lambda. Each application runs block
    by block over _BLOCK_HEADS heads (see _plans); min and max are exact,
    so the block size never changes a bit of the result.

    Returns (log H, c, lo, hi, iterations, converged, shift_at): H is the
    quotient eigenvector, e^c lo <= lambda <= e^c hi its bracket, and
    shift_at the iteration the shifted update began at (None if never).
    """
    inner, last = (m ** (n - 2), m) if n > 1 else (1, 1)
    phi3 = phi.reshape(m, inner, last)
    psi = np.zeros(inner * last)
    W, c = _scaled_weights(phi3, psi)
    F, S = np.ones(psi.size), np.empty(psi.size)
    plan, other = _plans(W, F, S)
    floor = top = 1.0  # bounds on min F and max F
    widths = []
    shift_at = None
    converged = False
    for it in range(1, max_iters + 1):
        lo, hi = np.inf, -np.inf
        for w, heads, out, s, f, r in plan:
            np.einsum("abj,aj->bj", w, heads, out=out)
            np.divide(s, f, out=r)
            block_lo, block_hi = np.minimum.reduce(r), np.maximum.reduce(r)
            # a NaN block wins, as in one min and max over the whole vector
            if block_lo < lo or block_lo != block_lo:
                lo = block_lo
            if block_hi > hi or block_hi != block_hi:
                hi = block_hi
        lo, hi = float(lo), float(hi)
        if not 0.0 < lo <= hi < np.inf:
            break
        width = (hi - lo) / hi
        converged = width <= tol
        if converged or it == max_iters:
            break
        widths.append(width)
        if (shift_at is None and it >= n + _STALL_WINDOW
                and width > 0.5 * widths[-1 - _STALL_WINDOW]):
            shift_at = it
        if shift_at is not None:
            S += lo * F
            floor, top = floor * 2 * lo, top * (hi + lo)
        else:
            floor, top = floor * lo, top * hi
        F, S = S, F
        plan, other = other, plan
        if floor * _FOLD_RANGE < 1.0 or top > _FOLD_RANGE:
            fmin, fmax = float(F.min()), float(F.max())
            if fmin * _FOLD_RANGE < fmax:
                psi += np.log(F)
                W, c = _scaled_weights(phi3, psi)
                plan, other = _plans(W, F, S)
                F.fill(1.0)
                floor = 1.0
            else:
                F /= fmax
                floor = fmin / fmax
            top = 1.0
    return psi + np.log(F), c, lo, hi, it, converged, shift_at


def _eigenvalue(c: float, lo: float, hi: float):
    """(lambda, log lambda, bracket) from the core's e^c [lo, hi]: lambda
    is the bracket's midpoint, and past float64 it is inf while its log
    stays finite."""
    with np.errstate(over="ignore"):
        scale = float(np.exp(c))
    return (scale * (lo + hi) / 2, c + float(np.log((lo + hi) / 2)),
            (scale * lo, scale * hi))


def perron_eigenvalue(L: TransferOperator, tol: float = DEFAULT_TOL,
                      max_iters: int = DEFAULT_MAX_ITERS) -> PerronEigenvalue:
    """lambda, certified by the Collatz-Wielandt bracket of one right solve.

    The same core run, and the same bits, as power_iterate's eigenvalue,
    log_eigenvalue and bracket; converged is the right solve's. No
    reversed solve, residual or eigenvector is formed.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    _, c, lo, hi, iters, ok, _ = _perron_core(
        L.potential.phi, L.alphabet.m, L.level, tol, max_iters)
    lam, llam, bracket = _eigenvalue(c, lo, hi)
    return PerronEigenvalue(lam, llam, bracket, iters, ok)


def power_iterate(L: TransferOperator, tol: float = DEFAULT_TOL,
                  max_iters: int = DEFAULT_MAX_ITERS) -> SpectralResult:
    """Perron eigendata, certified by the Collatz-Wielandt bracket.

    Two runs of one quotient core: on phi for h, then on phi o R for the
    right vector h' of the reversed operator, which gives
    nu[k] = exp(phi[k]) h'[R k] / norm. Each run stops when its bracket's
    relative width is <= tol; the result is converged only if both are,
    and a failed right run returns at once, spending at most max_iters
    applications.

    Non-convergence is reported through the converged flag, never raised:
    replica batches must see the failure, not die on it. Callers that need
    nu, h or the residual (spectrum, montecarlo) call this; perron_eigenvalue
    runs the right solve alone.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    m, n = L.alphabet.m, L.level
    phi = L.potential.phi
    logH, c, lo, hi, iters, ok, _ = _perron_core(phi, m, n, tol, max_iters)
    lam, llam, bracket = _eigenvalue(c, lo, hi)
    logh = np.repeat(logH, m)
    # residual max|Lh - lam h| / (lam ||h||_inf), formed on h / ||h||_inf
    # so that extreme beta cannot overflow
    g = logh - logh.max()
    residual = float(np.max(np.abs(np.exp(L._apply_log(g) - llam) - np.exp(g))))
    h = np.exp(logh - logh[0])
    if ok:
        logH, _, _, _, rev_iters, ok, _ = _perron_core(
            _reverse(phi, m, n), m, n, tol, max_iters)
        iters += rev_iters
        lnu = phi.reshape(-1, logH.size) + _reverse(logH, m, n - 1)
        lnu -= lnu.max()
        nu = np.exp(lnu, out=lnu).ravel()
        nu /= nu.sum()
    else:
        nu = np.full(phi.size, np.nan)
    return SpectralResult(
        eigenvalue=lam,
        log_eigenvalue=llam,
        h=CylinderFunction(L.level, L.alphabet, h),
        nu=nu,
        iterations=iters,
        residual=residual,
        converged=ok,
        bracket=bracket,
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
    under float rounding. A side past float64 is inf: as the ceiling it is
    still a true bound, and a diagonal entry that large makes lambda inf.
    """
    m = L.alphabet.m
    n = L.level
    beta = L.potential.beta
    lam = result.eigenvalue
    with np.errstate(over="ignore"):
        diag = max(float(np.exp(L.potential.phi[a * (m**n - 1) // (m - 1)]))
                   for a in range(m))
        upper = m * np.exp(beta * float(np.max(grid.values)))
    return {
        "lower_ok": bool(lam >= diag * (1.0 - 1e-12)),
        "upper_ok": bool(lam <= upper * (1.0 + 1e-12)),
    }
