"""End-to-end acceptance gate.

One test per shipped guarantee, each emitting a single [criterion N]
PASS/FAIL line on the real stdout (bypassing capture) so a plain
`pytest -v | tee` log shows the verdict table. Tolerances are pinned
constants; seeds are frozen. The heavy replica batch is computed once and
shared by the criteria that read it.
"""

import json
import math
import sys
import time

import numpy as np
import pytest

from oracles import dense_perron, eigenmeasure
from ruelle_rand import brownian, montecarlo
from ruelle_rand._rng import derive_seed
from ruelle_rand.cli import dispatch
from ruelle_rand.montecarlo import (ReplicaConfig, aggregate, run,
                                    run_replicas, tightened_upper_check)
from ruelle_rand.pressure import bernoulli_lower_bound
from ruelle_rand.report import dumps
from ruelle_rand.skorokhod import StepFunction, sup_norm, theta, theta_inverse
from ruelle_rand.symbolic import Alphabet
from ruelle_rand.transfer import (DEFAULT_TOL, build_potential,
                                  power_iterate, ratio_representation)

B2 = Alphabet(2)

RATIO_TOL = 10 * DEFAULT_TOL          # 1e-11
DENSE_LAMBDA_TOL = 1e-9
DENSE_VECTOR_TOL = 1e-8
MEAN_BAND = (1.64872, 6.59489)        # [e^(1/2), 4 e^(1/2)] rounded outward
LOG_BAND = (0.0, 1.88629)             # [0, log 4 + 1/2]
GRID_MAX_ALLOWANCE = 0.04             # discrete-max deficit of e^M1 at depth 12
B1_SAMPLES = 100_000


def _verdict(num: int, label: str, ok: bool) -> bool:
    sys.__stdout__.write(
        f"[criterion {num:2d}] {label}: {'PASS' if ok else 'FAIL'}\n")
    sys.__stdout__.flush()
    return ok


@pytest.fixture(scope="module")
def frozen_batch():
    """10^4 replicas at depth 12, beta 1, master seed 2026; shared by the
    identity, bounds, expectation, and pressure criteria. Rows carry no
    ratio identity, so the batch runs serially with each converged solve's
    relative ratio gap recorded as it is made."""
    cfg = ReplicaConfig(level=12, beta=1.0, master_seed=2026, replicas=10_000)
    solve, gaps = montecarlo.power_iterate, []

    def recorded(potential, *a):
        res = solve(potential, *a)
        if res.converged:
            ratio = ratio_representation(potential, res)
            gaps.append(abs(ratio - res.eigenvalue) / res.eigenvalue)
        return res
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "power_iterate", recorded)
        t0 = time.perf_counter()
        rows = run_replicas(cfg, workers=1)
        elapsed = time.perf_counter() - t0
    return cfg, rows, elapsed, gaps


def test_criterion_01_zero_noise_oracle(capsys):
    t0 = time.perf_counter()
    ok = True
    for m, level in ((2, 8), (3, 5), (5, 3)):
        code = dispatch(["spectrum", "--level", str(level), "--alphabet",
                         str(m), "--zero-noise"])
        rep = json.loads(capsys.readouterr().out)["report"]
        ok = ok and code == 0
        ok = ok and abs(rep["lambda"] - m) / m <= 1e-10
        ok = ok and abs(rep["log_lambda"] - math.log(m)) <= 1e-10
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    assert _verdict(1, "zero-noise eigenvalue and pressure oracle", ok)


def test_criterion_02_dense_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    for n in (4, 6, 8):
        for i in range(50):
            g = brownian.sample(n, B2, derive_seed(300 + n, i))
            potential = build_potential(g, 1.0)
            r = power_iterate(potential)
            lam, h, nu = dense_perron(potential)
            ok = ok and r.converged
            ok = ok and abs(r.eigenvalue - lam) / lam <= DENSE_LAMBDA_TOL
            ok = ok and (np.max(np.abs(r.h.values - h)) / np.max(np.abs(h))
                         <= DENSE_VECTOR_TOL)
            nu_err = np.max(np.abs(eigenmeasure(potential)[0] - nu))
            ok = ok and nu_err <= DENSE_VECTOR_TOL
    ok = ok and time.perf_counter() - t0 < 30.0
    assert _verdict(2, "power iteration matches dense eigensolver", ok)


def test_criterion_03_ratio_identity_at_depth(frozen_batch):
    _, rows, _, gaps = frozen_batch
    conv = [r for r in rows if r.converged]
    ok = len(conv) >= 1000 and len(gaps) == len(conv)
    ok = ok and all(gap <= RATIO_TOL for gap in gaps)
    assert _verdict(3, "eigenvalue ratio identity exact at finite depth", ok)


def test_criterion_04_pathwise_bounds_hold(frozen_batch):
    cfg, rows, _, _ = frozen_batch
    rep = aggregate(cfg, rows, 0.0)
    ok = rep.n_failed == 0
    ok = ok and rep.bound_violations == {"lower": 0, "upper": 0, "positivity": 0}
    assert _verdict(4, "diagonal lower and max-based upper bounds, 10^4 paths", ok)


def test_criterion_05_expectation_band(frozen_batch):
    cfg, rows, elapsed, _ = frozen_batch
    sub = rows[:4096]  # prefix of the derived-seed sequence = the N=4096 run
    lams = np.array([r.eigenvalue for r in sub])
    mean, se = float(lams.mean()), float(lams.std(ddof=1) / 64.0)
    lo, hi = MEAN_BAND
    ok = lo <= mean <= hi
    ok = ok and mean - 3 * se <= hi and mean + 3 * se >= lo
    tight = tightened_upper_check(cfg, rows=sub)
    ok = ok and tight["tightened_bound_ok"] and tight["band_bound_ok"]
    # independent quadrature oracle for E[exp(max of the path)]
    from scipy.integrate import quad
    oracle, err = quad(
        lambda x: math.sqrt(2 / math.pi) * math.exp(x - x * x / 2),
        0, np.inf)
    closed = 2 * math.exp(0.5) * 0.5 * (1 + math.erf(1 / math.sqrt(2)))
    ok = ok and abs(oracle - closed) <= 1e-10 + err
    em = np.exp(np.array([r.m1 for r in sub]))
    tol = 3 * float(em.std(ddof=1) / 64.0) + GRID_MAX_ALLOWANCE
    ok = ok and abs(float(em.mean()) - oracle) <= tol
    ok = ok and elapsed < 300.0
    assert _verdict(5, "mean eigenvalue inside the expectation band", ok)


def test_criterion_06_quenched_pressure_band(frozen_batch):
    _, rows, _, _ = frozen_batch
    sub = rows[:4096]
    logs = np.array([r.log_eigenvalue for r in sub])
    lams = np.array([r.eigenvalue for r in sub])
    lo, hi = LOG_BAND
    ok = lo <= float(logs.mean()) <= hi
    ok = ok and float(logs.mean()) <= math.log(float(lams.mean()))
    ok = ok and bool(np.all(logs > 0))
    assert _verdict(6, "quenched pressure band, Jensen order, positivity", ok)


def test_criterion_07_variational_lower_bound():
    violations = 0
    ok = True
    for i in range(1000):
        g = brownian.sample(12, B2, derive_seed(777, i))
        potential = build_potential(g, 1.0)
        r = power_iterate(potential)
        ok = ok and r.converged
        lb, _ = bernoulli_lower_bound(potential)
        # exact at finite depth: only the solve's tolerance is allowed
        if lb - r.log_eigenvalue > DEFAULT_TOL * (1 + abs(r.log_eigenvalue)):
            violations += 1
    ok = ok and violations == 0
    assert _verdict(7, "Bernoulli variational bound below log eigenvalue", ok)


def test_criterion_08_isometry_exactness():
    rng = np.random.default_rng(20260822)
    failures = 0
    worst = 0.0
    for _ in range(10_000):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(1, 13 if m == 2 else 8))
        alphabet = Alphabet(m)
        values = rng.standard_normal(m**n)
        F = StepFunction(n, alphabet, values, float(values[-1]))
        f = theta(F)
        worst = max(worst, abs(sup_norm(F) - sup_norm(f)))
        back = theta_inverse(f)
        if not (np.array_equal(back.right_values, F.right_values)
                and back.terminal_value == F.terminal_value):
            failures += 1
    ok = worst == 0.0 and failures == 0
    assert _verdict(8, "step/cylinder correspondence exact over 10^4 draws", ok)


def test_criterion_09_refinement_consistency():
    g = brownian.sample(0, B2, 31)
    ok = True
    for level in range(1, 15):
        g = brownian.refine(g)
        ok = ok and np.array_equal(g.values, brownian.sample(level, B2, 31).values)
    b1 = np.array([brownian.sample(0, B2, derive_seed(909, i)).values[-1]
                   for i in range(B1_SAMPLES)])
    rt = math.sqrt(B1_SAMPLES)
    ok = ok and abs(float(b1.mean())) <= 3.0 / rt
    ok = ok and abs(float(b1.var(ddof=1)) - 1.0) <= 3.0 * math.sqrt(2) / rt
    e = np.exp(b1)
    ok = ok and abs(float(e.mean()) - math.exp(0.5)) <= 3 * float(e.std(ddof=1)) / rt
    assert _verdict(9, "bitwise refinement chain and endpoint law", ok)


def test_criterion_10_report_determinism():
    cfg = ReplicaConfig(level=10, beta=1.0, master_seed=4242, replicas=64)
    blobs = []
    for w in (1, 4, 8):
        d = run(cfg, workers=w)[1].to_dict()
        blobs.append(dumps(d).encode())
    ok = blobs[0] == blobs[1] == blobs[2]
    assert _verdict(10, "identical report bytes across worker counts", ok)
