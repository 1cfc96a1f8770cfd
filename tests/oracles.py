"""Independent reference implementations for the test suite.

Nearly everything here goes through a different route than the code under
test: the dense matrix is assembled word by word from shift_preimages, on
words held as letter tuples rather than the base-m indices of src/, spectra
come from numpy's general eigensolver, integrals from scipy quadrature,
and the Bernoulli variational values from one product-measure reduction
per p.

Two quantities that no CLI path computes live here too: the eigenmeasure
nu, from the Perron core run on the reversed potential and checked against
the dense solve, and the functional-equation residual of h, read through
theta^-1 and checked against the solve's own residual. The Birkhoff
iterates run log L e^g on all m^n depth-n words, where src/ runs them on
the quotient words. CSV bytes come from the csv module. Memory peaks come
from tracemalloc.
"""

import csv
import io
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np

from ruelle_rand.skorokhod import theta_inverse
from ruelle_rand.transfer import DEFAULT_MAX_ITERS, _perron_core


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes traced during the call above those traced
    at its start). Warm fn up first: a first call also allocates module
    state."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak - start


def all_words(depth: int, m: int):
    """Depth-n words over {0, ..., m-1} as letter tuples, in lex order."""
    return itertools.product(range(m), repeat=depth)


def word_index(w: tuple, m: int) -> int:
    """Base-m value of the letters, most significant first."""
    k = 0
    for a in w:
        k = k * m + a
    return k


def shift_preimages(w: tuple, m: int) -> list:
    """Depth-preserving shift preimages (a, w_1, ..., w_{n-1}), ordered by
    the prepended letter a."""
    return [(a,) + w[:-1] for a in range(m)]


def metric(x: tuple, y: tuple) -> float:
    """The shift's ultrametric d(x, y) = 2^-N, N the first index of
    disagreement (1-based); 0 for equal words. Base 2 for every alphabet."""
    if len(x) != len(y):
        raise ValueError("metric defined for words of equal depth")
    for i, (a, b) in enumerate(zip(x, y)):
        if a != b:
            return 2.0 ** -(i + 1)
    return 0.0


def t_exact(w: tuple, m: int) -> Fraction:
    """t(w . 0^inf) = sum_i w_i m^-i, summed letter by letter."""
    return sum((Fraction(a, m**(i + 1)) for i, a in enumerate(w)),
               start=Fraction(0))


def csv_module_bytes(header, rows) -> bytes:
    """What csv.writer writes for these rows, floats at 17 significant
    digits and every other cell through str."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([format(v, ".17g") if isinstance(v, float) else str(v)
                    for v in row])
    return buf.getvalue().encode("utf-8")


def dense_matrix(potential) -> np.ndarray:
    """Full m^n x m^n transfer matrix, assembled entrywise."""
    m, n = potential.alphabet.m, potential.level
    M = m**n
    A = np.zeros((M, M))
    for w in all_words(n, m):
        k = word_index(w, m)
        for u in shift_preimages(w, m):
            j = word_index(u, m)
            A[k, j] += np.exp(potential.phi[j])
    return A


def dense_perron(potential):
    """(lambda, h normalized h[0]=1, nu normalized sum 1) by dense solve."""
    A = dense_matrix(potential)
    lams, vecs = np.linalg.eig(A)
    i = np.argmax(lams.real)
    lam = lams[i].real
    h = vecs[:, i].real
    h = h / h[0]
    lams_t, vecs_t = np.linalg.eig(A.T)
    j = np.argmax(lams_t.real)
    nu = vecs_t[:, j].real
    nu = nu / nu.sum()
    return lam, h, nu


def max_cycle_mean(values: np.ndarray, m: int) -> float:
    """Karp's maximum cycle mean of the edge weights values[w] on the level-n
    de Bruijn graph (n >= 2): vertices are the (n-1)-letter words, and the
    n-letter word w = a u b is an edge from a u to u b.

    D_k(v) is the heaviest walk of exactly k edges ending at v, from any
    start (D_0 = 0). With N vertices, Karp's theorem gives
    c* = max_v min_{0 <= k < N} (D_N(v) - D_k(v)) / (N - k). Two passes over
    k keep the memory at O(N): the first finds D_N, the second the minimum.
    """
    N = values.size // m
    w = values.reshape(m, N // m, m).transpose(0, 2, 1).copy()  # [a, b, u]

    def step(D):
        # D'(u b) = max_a D(a u) + w(a u b), written through a [b, u] view
        out = np.empty(N)
        view = out.reshape(N // m, m).T
        Da = D.reshape(m, N // m)
        np.add(Da[0], w[0], out=view)
        for a in range(1, m):
            np.maximum(view, Da[a] + w[a], out=view)
        return out

    D = np.zeros(N)
    for _ in range(N):
        D = step(D)
    DN = D
    best = np.full(N, np.inf)
    D = np.zeros(N)
    for k in range(N):
        best = np.minimum(best, (DN - D) / (N - k))
        D = step(D)
    return float(best.max())


def bernoulli_values(potential, p_grid) -> np.ndarray:
    """entropy(q_p) + sum_w mu_p([w]) phi[w] at each p of p_grid, with q_p
    the Binomial(m-1, p) letter law and mu_p its product measure: the
    integral contracts one letter at a time, n passes per p."""
    m, n = potential.alphabet.m, potential.level
    a = np.arange(m)
    comb = np.array([math.comb(m - 1, int(k)) for k in a], dtype=float)
    values = []
    for p in np.asarray(p_grid, dtype=float):
        q = comb * p**a * (1 - p) ** (m - 1 - a)
        integral = potential.phi
        for _ in range(n):
            integral = q @ integral.reshape(m, -1)
        values.append(float(-(q * np.log(q)).sum()) + float(integral[0]))
    return np.array(values)


def _reverse(x: np.ndarray, m: int, depth: int) -> np.ndarray:
    """x o R on depth-letter words, R reversing the letters of a word."""
    return x.reshape((m,) * depth).transpose().ravel()


def log_apply(potential, g: np.ndarray) -> np.ndarray:
    """log (L e^g) for a depth-n g: the log-sum-exp over the m preimage
    terms of phi + g, in place on the one depth-n temporary."""
    A = (potential.phi + g).reshape(potential.alphabet.m, -1)
    amax = A.max(axis=0)
    A -= amax
    return np.repeat(amax + np.log(np.exp(A, out=A).sum(axis=0)),
                     potential.alphabet.m)


def birkhoff_iterates(potential, ix, kmax: int) -> np.ndarray:
    """(1/k) log (L^k 1)[ix] for k = 1..kmax, by log_apply at depth n; row
    k - 1 holds k's entries when ix is a list of indices."""
    g = np.zeros(potential.alphabet.m**potential.level)
    out = np.empty((kmax,) + np.shape(ix))
    for k in range(1, kmax + 1):
        g = log_apply(potential, g)
        out[k - 1] = g[ix] / k
    return out


def eigenmeasure(potential, max_iters: int = DEFAULT_MAX_ITERS):
    """(nu, iterations, converged): the eigenmeasure of L as a probability
    vector, from one run of the quotient core on phi o R.

    Reversing the letters of a word, R, conjugates the adjoint of L to the
    operator of the reversed potential phi o R. Its right vector h' gives
    nu[k] = exp(phi[k]) h'[R k] / norm. The run stops as power_iterate's
    does; an unconverged nu is its last iterate's.
    """
    lnu, iters, ok = _log_eigenmeasure(potential, max_iters)
    nu = np.exp(lnu, out=lnu).ravel()
    nu /= nu.sum()
    return nu, iters, ok


def _log_eigenmeasure(potential, max_iters: int):
    """log nu + const, with maximum 0, from eigenmeasure's reversed run."""
    m, n = potential.alphabet.m, potential.level
    phi = potential.phi
    logH, _, _, _, iters, ok, _ = _perron_core(
        _reverse(phi, m, n), m, n, max_iters)
    lnu = phi.reshape(-1, logH.size) + _reverse(logH, m, n - 1)
    lnu -= lnu.max()
    return lnu, iters, ok


def log_eigenmeasure(potential) -> np.ndarray:
    """log nu, finite where nu itself underflows (large beta)."""
    lnu, _, ok = _log_eigenmeasure(potential, DEFAULT_MAX_ITERS)
    assert ok, "reversed solve did not converge"
    return (lnu - np.log(np.exp(lnu).sum())).ravel()


def functional_equation_residual(potential, result, grid) -> float:
    """Residual of sum_a exp(beta B_{a/m + t/m}) X_{a/m + t/m} = lambda X_t
    over the level-(n-1) grid points t, with X = theta_inverse(h), scaled
    by lambda ||X||_inf.

    Unconverged results leave a visibly large residual; that is the point.
    """
    m = potential.alphabet.m
    n = potential.level
    beta = potential.beta
    X = theta_inverse(result.h).right_values
    block = m ** (n - 1)
    j = np.arange(block)  # t = j / m^(n-1)
    lhs = np.zeros(block)
    for a in range(m):
        idx = a * block + j  # index of the level-n point a/m + t/m
        lhs += np.exp(beta * grid.values[idx]) * X[idx]
    rhs = result.eigenvalue * X[j * m]
    return float(np.max(np.abs(lhs - rhs)) / (result.eigenvalue * np.max(np.abs(X))))
