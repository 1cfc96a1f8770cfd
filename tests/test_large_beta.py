"""The Perron solve at large beta, against two independent oracles.

At large beta the operator is nearly cyclic and its weights span hundreds
of decades. Two references hold there:

- the tropical bracket beta c* <= log lambda <= beta c* + log m, with c*
  Karp's maximum cycle mean of B on the de Bruijn graph;
- the dense eigensolver at levels <= 8, for lambda. Its eigenvector is
  not a reference here (at (m, n, beta) = (3, 5, 20) it is off by a factor
  of 10^6, at beta = 40 it has negative entries), so h and nu are checked
  against the dense matrix itself: h by its Collatz-Wielandt bracket, nu
  by the dual eigen-equation.
"""

import json
import math
from functools import lru_cache

import numpy as np
import pytest

from oracles import dense_matrix, dense_perron, eigenmeasure, max_cycle_mean
from test_acceptance import DENSE_LAMBDA_TOL, RATIO_TOL
from ruelle_rand.brownian import sample
from ruelle_rand.cli import dispatch
from ruelle_rand.symbolic import Alphabet
from ruelle_rand.transfer import (PotentialField, build_potential,
                                  power_iterate)

BETAS = (3.0, 10.0, 20.0, 40.0, 100.0)
# B rounded to this grid keeps every walk sum in Karp's recursion exact
# in float64 (|sum| < 2^23 over at most 2^15 edges)
GRID = 2.0**-30
EPS = np.finfo(float).eps


@lru_cache(maxsize=None)
def _path(m, level, seed):
    """A sampled path rounded to GRID, and its exact maximum cycle mean."""
    b = np.round(sample(level, Alphabet(m), seed).values[:-1] / GRID) * GRID
    b.setflags(write=False)
    return b, max_cycle_mean(b, m)


# (m, level, seed); (2, 12, 0) is spectrum-hot's path
TROPICAL_PATHS = [(2, 8, 601), (2, 12, 0), (2, 14, 602), (2, 16, 603),
                  (3, 8, 604), (3, 10, 605)]


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("m,level,seed", TROPICAL_PATHS)
def test_tropical_bracket(m, level, seed, beta):
    b, c_star = _path(m, level, seed)
    potential = PotentialField(level, Alphabet(m), beta, beta * b)
    r = power_iterate(potential)
    assert r.converged
    log_lo, log_hi = (math.log(x) for x in r.bracket)
    assert log_lo <= r.log_eigenvalue <= log_hi
    # a few ulps of the log-scale quantities: the exponents beta B that the
    # weights are formed from, and beta c* itself
    slack = 16 * EPS * (beta * float(np.max(np.abs(b))) + math.log(m))
    floor, ceiling = beta * c_star, beta * c_star + math.log(m)
    assert floor - slack <= r.log_eigenvalue <= ceiling + slack
    assert floor - slack <= log_hi and log_lo <= ceiling + slack


# levels <= 8, where the dense matrix is small enough to form
DENSE_PATHS = [(2, 4, 611), (2, 6, 612), (2, 8, 613), (3, 4, 614),
               (3, 5, 501)]


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("m,level,seed", DENSE_PATHS)
def test_dense_oracle(m, level, seed, beta):
    potential = build_potential(sample(level, Alphabet(m), seed), beta)
    r = power_iterate(potential)
    lam, _, _ = dense_perron(potential)
    A = dense_matrix(potential)
    assert r.converged
    assert abs(r.eigenvalue - lam) / lam <= DENSE_LAMBDA_TOL
    h = r.h.values
    assert np.all(h > 0)
    ratio = (A @ h) / h
    lo, hi = float(ratio.min()), float(ratio.max())
    assert hi - lo <= RATIO_TOL * hi
    assert lo * (1 - DENSE_LAMBDA_TOL) <= lam <= hi * (1 + DENSE_LAMBDA_TOL)
    # nu is a probability vector whose tail may underflow: check nu A = lam nu
    # in total variation
    nu = eigenmeasure(potential)[0]
    assert nu.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.abs(nu @ A - lam * nu).sum() <= RATIO_TOL * lam


def test_spectrum_reads_the_right_solve_alone(capsys):
    # the reversed solve's weights underflow on this path, and its bracket
    # (0, 1) once made spectrum exit 2 on a certified right solve
    m, level, seed, beta = 2, 5, 6, 700.0
    code = dispatch(["spectrum", "--level", str(level), "--seed", str(seed),
                     "--beta", str(beta)])
    rep = json.loads(capsys.readouterr().out)["report"]
    assert code == 0
    assert rep["converged"] is True and rep["iterations"] == 376
    grid = sample(level, Alphabet(m), seed)
    potential = build_potential(grid, beta)
    # the oracle's h and nu divide by entries that underflow here; only its
    # lambda is read
    with np.errstate(divide="ignore", invalid="ignore"):
        lam, _, _ = dense_perron(potential)
    assert abs(rep["lambda"] - lam) / lam <= DENSE_LAMBDA_TOL
    b = grid.values[:-1]
    c_star = max_cycle_mean(b, m)
    slack = 16 * EPS * (beta * float(np.max(np.abs(b))) + math.log(m))
    assert (beta * c_star - slack <= rep["log_lambda"]
            <= beta * c_star + math.log(m) + slack)
