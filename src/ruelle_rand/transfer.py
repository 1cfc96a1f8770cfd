"""Depth-n transfer operator for a sampled Brownian potential.

A depth-n word w carries weight exp(beta * B_{t(w)}) with t read at the
cylinder's left endpoint w.0^inf. The operator of that PotentialField

    (L f)[w] = sum_a exp(phi[a w_1 .. w_{n-1}]) f[a w_1 .. w_{n-1}]

is never assembled as a matrix: with k the index of w, the preimage
indices are a * m^(n-1) + k // m, so one application is a reshape, a sum
over the leading letter, and a repeat. The left-endpoint convention puts
B_0 = 0 into the operator exactly, which makes the eigenvalue ratio
identity at the all-zeros word exact at every finite depth.

Because Lf depends only on k // m, the Perron solve runs on the m^(n-1)
quotient words, as does log L e^g for a g constant over the last letter
(_log_apply). power_iterate, the one solve, gives lambda, log lambda and
the quotient logs of h from one core run; h and the residual are formed
from those logs only where a caller reads them. The eigenmeasure nu is
never solved for, since every entry of L^n is at least e^(n min phi) and
that bounds nu below through lambda alone (SpectralResult.log_floor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .brownian import BrownianGrid
from .symbolic import Alphabet

if TYPE_CHECKING:  # skorokhod loads only where h or apply is formed
    from .skorokhod import CylinderFunction

# a solve is converged once its Collatz-Wielandt bracket's relative width
# is at most DEFAULT_TOL
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
# a window runs up to _WINDOW applications per bracket computation (see
# _perron_core), where _WINDOW quotient iterates fit in _WINDOW_CELLS cells:
# to depth 12 at m = 2, where numpy's per-call cost is most of an
# application; deeper, shorter or longer windows measured slower
_WINDOW = 8
_WINDOW_CELLS = 2**14


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


class TransferOperator(PotentialField):
    """A PotentialField under the operator's name. The operator is
    determined by its potential, and every function here takes the
    PotentialField; nothing in the package builds this class. It is kept
    only because perfbench builds and subclasses it."""

    def __init__(self, potential: PotentialField):
        super().__init__(potential.level, potential.alphabet, potential.beta,
                         potential.phi)


@dataclass(frozen=True)
class SpectralResult:
    """Right Perron data of one operator. eigenvalue/log_eigenvalue are the
    JSON report's lambda/log_lambda; h is normalized h[0^n] = 1.

    bracket is the Collatz-Wielandt certificate min(Lh/h) <= lambda <=
    max(Lh/h) of h. iterations and converged are the right solve's; an
    unconverged result's h and bracket are its last iterate's. A lambda
    past the float64 range is inf, while log_eigenvalue stays finite; so is
    an entry of h past it.

    log_floor is n (min phi - log lambda_hi), lambda_hi the bracket's top:
    each entry of L^n is the weight of one n-step path, so at least
    e^(n min phi), and nu L^n = lambda^n nu, L^n h = lambda^n h put every
    nu[w] (sum nu = 1) and h[w] / sum(h) above e^(log_floor). It is formed
    in logs, so it is finite for every converged solve.

    log_h holds log H, the solve's logs of h on the m^(n-1) quotient words
    (h[w] = H[k // m] / H[0] at the word w of index k), and is read-only:
    h and the residual are formed from it on first read, in either order,
    so that a caller pays only for what it reads. spectrum reports lambda,
    h and the residual; montecarlo rows read log_h and log_floor for
    positivity, and form neither h nor the ratio identity; pressure and
    refine-study read log_eigenvalue.
    """

    eigenvalue: float
    log_eigenvalue: float
    iterations: int
    converged: bool
    bracket: tuple[float, float]
    log_floor: float
    log_h: np.ndarray = field(repr=False, compare=False)
    potential: PotentialField = field(repr=False, compare=False)

    @cached_property
    def h(self) -> CylinderFunction:
        from .skorokhod import CylinderFunction

        p = self.potential
        # past float64 an entry is inf, as lambda is: the values report it,
        # not a warning
        H = self.log_h - self.log_h[0]
        with np.errstate(over="ignore"):
            np.exp(H, out=H)
        return CylinderFunction(p.level, p.alphabet, np.repeat(H, p.alphabet.m))

    @cached_property
    def residual(self) -> float:
        return _residual(self.potential, self.log_h, self.log_eigenvalue)


def build_potential(grid: BrownianGrid, beta: float) -> PotentialField:
    """Left-endpoint relabeling of the grid, scaled by beta. No interpolation."""
    phi = beta * grid.values[:-1]
    return PotentialField(grid.level, grid.alphabet, beta, phi)


def apply(potential: PotentialField, f: CylinderFunction) -> CylinderFunction:
    from .skorokhod import CylinderFunction

    if f.level != potential.level or f.alphabet != potential.alphabet:
        raise ValueError("operator and function live at different levels")
    m = potential.alphabet.m
    G = np.exp(potential.phi) * f.values
    return CylinderFunction(potential.level, potential.alphabet,
                            np.repeat(G.reshape(m, -1).sum(axis=0), m))


def _scaled_weights(phi3: np.ndarray, psi: np.ndarray | None):
    """(W, c) with W[a, b, j] = exp(phi[a j b] + psi[a j] - psi[j b] - c) and
    c the largest exponent, so W <= 1 for every potential. psi None stands
    for psi = 0, before the first fold. The last letter b comes before j so
    that the contraction over a runs along j."""
    m, inner, last = phi3.shape
    E = phi3.transpose(0, 2, 1).copy()
    if psi is not None:
        E += _heads(psi, m, inner)[:, None, :]
        E -= psi.reshape(inner, last).T
    c = float(E.max())
    E -= c
    return np.exp(E, out=E), c


def _by_head(phi: np.ndarray, m: int, n: int) -> np.ndarray:
    """phi as phi3[a, j, b] = phi[a j b]: first letter a, quotient head j
    (the m^(n-2) middle words), last letter b. Depth 1 has one empty head
    and no last letter."""
    inner, last = (m ** (n - 2), m) if n > 1 else (1, 1)
    return phi.reshape(m, inner, last)


def _heads(v: np.ndarray, m: int, inner: int) -> np.ndarray:
    """A quotient vector v as heads[a, j] = v[a j]: a plain view from depth
    2 on, and at depth 1, where the one empty head serves every letter a, a
    broadcast."""
    if v.size == m * inner:
        return v.reshape(m, inner)
    return np.broadcast_to(v.reshape(1, inner), (m, inner))


def _plan(W: np.ndarray, src: np.ndarray, dst: np.ndarray,
          ratio: np.ndarray):
    """Per-block views for one application src -> dst.

    A block is the heads j0:j1: its weights W[:, :, j0:j1], its heads
    src[a j], its strided output dst[j b], the contiguous dst and src
    slices its Collatz-Wielandt ratios are taken over, and a block-sized
    slice of ratio. Built once per weight build, so the loop makes no view.
    """
    m, last, inner = W.shape
    block = min(_BLOCK_HEADS, inner)
    heads = _heads(src, m, inner)
    out = dst.reshape(inner, last)
    plan = []
    for j0 in range(0, inner, block):
        j1 = min(j0 + block, inner)
        cells = slice(j0 * last, j1 * last)
        plan.append((W[:, :, j0:j1], heads[:, j0:j1], out[j0:j1].T,
                     dst[cells], src[cells], ratio[:(j1 - j0) * last]))
    return plan


def _plans(W: np.ndarray, iterates: list, ratio: np.ndarray, rows: list):
    """(steps, back) for the weights W: back is the plan iterates[1] ->
    iterates[0], and steps[i] the plan iterates[i] -> iterates[i + 1]. With
    no window rows that is the one step of _plan; a window's steps are its
    rows, the views of one single-block application each, with W added."""
    back = _plan(W, iterates[1], iterates[0], ratio)
    if not rows:
        return [_plan(W, iterates[0], iterates[1], ratio)], back
    return [[(W, *row)] for row in rows], back


def _perron_core(phi: np.ndarray, m: int, n: int, max_iters: int):
    """Right Perron vector of the operator with potential phi, on the m^(n-1)
    quotient words: (Lf)[k] depends only on j = k // m, and F[j] = f[j m]
    obeys (QF)[j b] = sum_a exp(phi[a j b]) F[a j].

    The true iterate is exp(psi) * F. F is iterated against the scaled
    weights of _scaled_weights; when its entries span more than _FOLD_RANGE,
    log F moves into psi and the weights are rebuilt, so one linear kernel
    serves every beta. Stops when the Collatz-Wielandt bracket
    [min QF/F, max QF/F] has relative width <= DEFAULT_TOL. The update is
    F <- QF until the width stalls (near-cyclic large beta), then
    F <- QF + lo F, which damps the eigenvalues near -lambda. Each
    application runs block by block over _BLOCK_HEADS heads (see _plan);
    min and max are exact, so the block size never changes a bit of the
    result.

    Where the quotient is one block and _WINDOW of its iterates fit in
    _WINDOW_CELLS, the unshifted update runs in windows: up to _WINDOW
    applications back to back into the rows of one array X, then all their
    brackets from one divide and one row-wise min and max. The decisions
    (breakdown, convergence, max_iters, stall -> shift, renormalize or
    fold) are then taken row by row, in order, by the same code as the
    one-application loop. Row i's application reads row i - 1, and its
    bracket is that of the same two vectors, so up to the first decision
    that stops or alters an iterate the rows are the one-application
    loop's own, bit for bit; the window ends there, and the applications
    after it are discarded. Those may divide by the zeros of a breakdown,
    so the window runs under errstate(all="ignore"); a kept application
    divides by a finite F > 0 and cannot warn.
    _window_length guesses how many applications the next decision leaves,
    from a bracket under the weights in use: the first application under
    new weights runs alone.
    The shifted update and deeper quotients run one application per
    bracket.

    Returns (log H, c, lo, hi, iterations, converged, shift_at): H is the
    quotient eigenvector, e^c lo <= lambda <= e^c hi its bracket, and
    shift_at the iteration the shifted update began at (None if never).
    """
    phi3 = _by_head(phi, m, n)
    _, inner, last = phi3.shape
    cells = inner * last
    block = min(_BLOCK_HEADS, inner)
    # a window of one is the one-application loop
    k = (_WINDOW if block == inner and 2 <= _WINDOW <= _WINDOW_CELLS // cells
         else 0)
    rows = []  # a window's per-application views, built once
    if not k:
        iterates = [np.empty(cells), np.empty(cells)]
        ratio = np.empty(block * last)
    else:
        X = np.empty((k + 1, cells))
        iterates = list(X)
        ratio = np.empty(k * cells)
        R = ratio.reshape(k, cells)
        for src, dst, r in zip(iterates, iterates[1:], R):
            rows.append((_heads(src, m, inner), dst.reshape(inner, last).T,
                         dst, src, r))
    F, S = iterates[0], iterates[1]
    F.fill(1.0)
    psi = None  # the folded logs, allocated at the first fold
    W, c = _scaled_weights(phi3, psi)
    steps, back = _plans(W, iterates, ratio, rows)
    plan, other = steps[0], back
    floor = top = 1.0  # bounds on min F and max F
    widths = []
    shift_at = None
    converged = False
    it = 0
    known = False  # whether lo, hi are a bracket under the current weights
    while True:
        window = k and shift_at is None and known and _window_length(
            k, widths, floor, top, lo, hi)
        if window > 1:
            if F is not iterates[0]:  # a window starts from row 0
                iterates[0][:] = F
                F = iterates[0]
            with np.errstate(all="ignore"):
                for [(w, heads, out, *_)] in steps[:window]:
                    np.einsum("abj,aj->bj", w, heads, out=out)
                ratios = np.divide(X[1:window + 1], X[:window],
                                   out=R[:window])
            brackets = zip(np.minimum.reduce(ratios, axis=1).tolist(),
                           np.maximum.reduce(ratios, axis=1).tolist(),
                           steps, iterates[1:])
        else:
            window = 0
            lo, hi = np.inf, -np.inf
            for w, heads, out, s, f, r in plan:
                np.einsum("abj,aj->bj", w, heads, out=out)
                np.divide(s, f, out=r)
                block_lo, block_hi = np.minimum.reduce(r), np.maximum.reduce(r)
                # a NaN block wins, as in one min and max over the whole
                # vector
                if block_lo < lo or block_lo != block_lo:
                    lo = block_lo
                if block_hi > hi or block_hi != block_hi:
                    hi = block_hi
            brackets = ((float(lo), float(hi), plan, S),)
        # one iteration per bracket: F is the iterate it was taken on, and
        # plan took it to S
        stop = False
        for lo, hi, plan, S in brackets:
            it += 1
            known = True
            if not 0.0 < lo <= hi < np.inf:
                stop = True
                break
            width = (hi - lo) / hi
            converged = width <= DEFAULT_TOL
            if converged or it >= max_iters:
                stop = True
                break
            widths.append(width)
            # altered: the next F is not S as the application left it
            altered = (shift_at is None and it >= n + _STALL_WINDOW
                       and width > 0.5 * widths[-1 - _STALL_WINDOW])
            if altered:
                shift_at = it
            if shift_at is not None:
                # S += lo F, through the block ratio buffers
                for *_, s, f, r in plan:
                    s += np.multiply(f, lo, out=r)
                floor, top = floor * 2 * lo, top * (hi + lo)
            else:
                floor, top = floor * lo, top * hi
            F, S = S, F
            plan, other = other, plan
            if floor * _FOLD_RANGE < 1.0 or top > _FOLD_RANGE:
                altered = True
                fmin, fmax = float(F.min()), float(F.max())
                if fmin * _FOLD_RANGE < fmax:
                    if psi is None:
                        psi = np.log(F)
                    else:
                        psi += np.log(F, out=F)
                    F.fill(1.0)
                    # the old weights go before the new ones are built
                    # (a window's brackets still hold its steps, whose
                    # weights are at most 2^11 m cells)
                    W = w = plan = other = steps = back = None
                    W, c = _scaled_weights(phi3, psi)
                    known = False
                    steps, back = _plans(W, iterates, ratio, rows)
                    plan, other = ((steps[0], back) if F is iterates[0]
                                   else (back, steps[0]))
                    floor = 1.0
                else:
                    F /= fmax
                    floor = fmin / fmax
                top = 1.0
            if window and altered:
                break
        if stop:
            break
        if window:  # the one-application loop runs from row 0
            iterates[0][:] = F
            F, S = iterates[0], iterates[1]
            plan, other = steps[0], back
    log_f = np.log(F, out=F)
    if psi is not None:
        log_f += psi
    return log_f, c, lo, hi, it, converged, shift_at


def _window_length(k: int, widths: list, floor: float, top: float,
                   lo: float, hi: float) -> int:
    """Applications for the next window: k, or fewer where the last bracket
    lo, hi and the last two widths put the next stop or fold check sooner,
    assuming they keep their rates. A guess that saves the applications a
    window would discard; it changes no bit of the result."""
    if len(widths) >= 2 and 0.0 < widths[-1] < widths[-2]:
        k = min(k, math.ceil(math.log(DEFAULT_TOL / widths[-1])
                             / math.log(widths[-1] / widths[-2])))
    if lo < 1.0:
        k = min(k, int(math.log(floor * _FOLD_RANGE) / -math.log(lo)) + 1)
    if hi > 1.0:
        k = min(k, int(math.log(_FOLD_RANGE / top) / math.log(hi)) + 1)
    return k


def lambda_overflow(log_lambda: float) -> str:
    """Why a lambda past float64 cannot be reported."""
    return (f"lambda = exp(log_lambda) with log_lambda = {log_lambda:.17g} "
            f"overflows float64")


def _eigenvalue(c: float, lo: float, hi: float):
    """(lambda, log lambda, bracket) from the core's e^c [lo, hi]: lambda
    is the bracket's midpoint, and past float64 it is inf while its log
    stays finite. Where e^c itself overflows, lambda and the bracket ends
    are each exp of their own log, so they are finite wherever they fit."""
    llam = c + float(np.log((lo + hi) / 2))
    with np.errstate(over="ignore", divide="ignore"):
        scale = float(np.exp(c))
        if scale < np.inf:
            return scale * (lo + hi) / 2, llam, (scale * lo, scale * hi)
        # an unconverged core can stop with lo = 0, whose end is e^-inf = 0
        lam, lam_lo, lam_hi = np.exp([llam, c + np.log(lo), c + np.log(hi)])
    return float(lam), llam, (float(lam_lo), float(lam_hi))


def power_iterate(potential: PotentialField,
                  max_iters: int = DEFAULT_MAX_ITERS) -> SpectralResult:
    """Perron eigendata, certified by the Collatz-Wielandt bracket.

    One run of the quotient core gives lambda, its bracket and the logs of
    h; it stops when the bracket's relative width is <= DEFAULT_TOL or
    after max_iters applications. h and Lh are constant over the last
    letter, so the residual is formed on the m^(n-1) quotient words and
    only h is repeated to depth n, each on its first read.

    Non-convergence is reported through the converged flag, never raised:
    replica batches must see the failure, not die on it. Every solve of
    the CLI runs here.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    logH, c, lo, hi, iters, ok, _ = _perron_core(
        potential.phi, potential.alphabet.m, potential.level, max_iters)
    logH.setflags(write=False)
    lam, llam, bracket = _eigenvalue(c, lo, hi)
    # a core that stopped without a finite bracket gets floor -inf
    log_hi = c + float(np.log(hi)) if hi > 0 else np.inf
    return SpectralResult(
        eigenvalue=lam,
        log_eigenvalue=llam,
        iterations=iters,
        converged=ok,
        bracket=bracket,
        log_floor=potential.level * (float(potential.phi.min()) - log_hi),
        log_h=logH,
        potential=potential,
    )


def _residual(potential: PotentialField, logH: np.ndarray,
              llam: float) -> float:
    """max|Lh - lam h| / (lam ||h||_inf) for the quotient eigenvector
    H = exp(logH), formed on h / ||h||_inf so that extreme beta cannot
    overflow: with G = logH - max logH, the max over the blocks of
    _log_apply of |exp(log (L e^G) - llam) - exp(G)|.
    """
    top = logH.max()
    worst = []
    for cells, S, spare in _log_apply(potential, logH, top):
        S -= llam
        np.exp(S, out=S)
        G = np.subtract(logH[cells], top, out=spare)
        S -= np.exp(G, out=G)
        worst.append(np.abs(S, out=S).max())
    # a NaN block wins, as in one max over the whole vector
    return float(np.max(worst))


def _log_apply(potential: PotentialField, G: np.ndarray, shift: float):
    """log (L e^(G - shift)) on the quotient words j b, for a depth-n
    vector constant over its last letter with quotient logs G: the
    log-sum-exp over a of phi[a j b] + G[a j] - shift.

    Yields (cells, S, spare) per block of _BLOCK_HEADS heads j: S holds the
    entries of the quotient words in the slice cells, and spare is a buffer
    of S's size the caller may overwrite. Temporaries are block-sized, and
    the block size changes no bit.
    """
    phi3 = _by_head(potential.phi, potential.alphabet.m, potential.level)
    m, inner, last = phi3.shape
    heads = _heads(G, m, inner)
    block = min(_BLOCK_HEADS, inner)
    buf = np.empty(m * block * last)
    for j0 in range(0, inner, block):
        j1 = min(j0 + block, inner)
        A = buf[:m * (j1 - j0) * last].reshape(m, j1 - j0, last)
        np.add(phi3[:, j0:j1], (heads[:, j0:j1] - shift)[:, :, None], out=A)
        amax = A.max(axis=0)
        A -= amax
        S = np.exp(A, out=A).sum(axis=0)
        np.log(S, out=S)
        S += amax
        yield slice(j0 * last, j1 * last), S.ravel(), amax.ravel()


def ratio_representation(potential: PotentialField,
                         result: SpectralResult) -> float:
    """1 + sum_{a>0} exp(beta B_{a/m}) h[a 0^{n-1}] / h[0^n].

    This is the eigen-equation at the all-zeros word, so it reproduces the
    eigenvalue exactly up to the iteration tolerance at every finite depth.
    beta B_{a/m} is phi[a 0^{n-1}], the same product build_potential forms,
    and h[a 0^{n-1}] / h[0^n] is exp of d = log H[a 0^{n-2}] - log H[0^{n-1}]
    from result.log_h. A term is exp(beta B_{a/m}) exp(d) where both factors
    fit float64, and exp(beta B_{a/m} + d) otherwise, so it is finite
    wherever the term is.
    """
    m = potential.alphabet.m
    phi, log_h = potential.phi, result.log_h
    block = m ** (potential.level - 1)
    total = 1.0
    for a in range(1, m):
        p, d = phi[a * block], log_h[a * block // m] - log_h[0]
        with np.errstate(over="ignore"):
            weight, ratio = np.exp(p), np.exp(d)
            if weight < np.inf and ratio < np.inf:
                total += weight * ratio
            else:
                total += np.exp(p + d)
    return float(total)


def pathwise_bounds(potential: PotentialField, result: SpectralResult,
                    m1: float) -> dict:
    """Sandwich for the discrete eigenvalue on one path, m1 = max B on the
    grid:

      max diagonal entry  <=  lambda  <=  m * exp(beta * m1).

    The diagonal entries sit at the constant words a^n. Checks carry a
    DEFAULT_TOL relative slack so exact-equality cases (zero noise) stay
    true under float rounding. A side past float64 is inf: as the ceiling it is
    still a true bound, and a diagonal entry that large makes lambda inf.
    """
    m = potential.alphabet.m
    n = potential.level
    lam = result.eigenvalue
    with np.errstate(over="ignore"):
        diag = max(float(np.exp(potential.phi[a * (m**n - 1) // (m - 1)]))
                   for a in range(m))
        upper = m * np.exp(potential.beta * m1)
    return {
        "lower_ok": bool(lam >= diag * (1.0 - DEFAULT_TOL)),
        "upper_ok": bool(lam <= upper * (1.0 + DEFAULT_TOL)),
    }
