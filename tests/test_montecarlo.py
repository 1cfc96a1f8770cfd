import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from ruelle_rand import brownian
from ruelle_rand._rng import derive_seed
from ruelle_rand.montecarlo import (ReplicaConfig, _replica_row, aggregate,
                                    map_replicas, pressure_row,
                                    refinement_study, resolve_workers, run,
                                    run_replicas, tightened_upper_check)
from ruelle_rand.pressure import pressure_sample
from ruelle_rand.transfer import (TransferOperator, build_potential,
                                  power_iterate)
from ruelle_rand.symbolic import Alphabet

B2 = Alphabet(2)


@pytest.fixture(scope="module")
def healthy_rows():
    cfg = ReplicaConfig(level=10, beta=1.0, master_seed=11, replicas=64)
    return cfg, run_replicas(cfg)


class TestConfig:
    def test_defaults(self):
        cfg = ReplicaConfig(level=6)
        assert cfg.alphabet == B2
        assert cfg.beta == 1.0 and cfg.replicas == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicaConfig(level=0)
        with pytest.raises(ValueError):
            ReplicaConfig(level=4, replicas=0)


class TestResolveWorkers:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("RUELLE_RAND_WORKERS", raising=False)
        assert resolve_workers() == 1

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("RUELLE_RAND_WORKERS", "3")
        assert resolve_workers() == 3

    def test_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("RUELLE_RAND_WORKERS", "3")
        assert resolve_workers(2) == 2

    def test_invalid_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_workers(0)
        monkeypatch.setenv("RUELLE_RAND_WORKERS", "0")
        with pytest.raises(ValueError):
            resolve_workers()

    def test_blank_env_ignored(self, monkeypatch):
        monkeypatch.setenv("RUELLE_RAND_WORKERS", "  ")
        assert resolve_workers() == 1


class TestReplicaRow:
    def test_beta_zero_exact(self):
        cfg = ReplicaConfig(level=6, beta=0.0, master_seed=5)
        row = _replica_row((cfg, 0))
        assert row.eigenvalue == 2.0
        assert row.converged
        assert row.residual == 0.0
        assert row.lower_ok and row.upper_ok and row.positive_ok
        assert row.ratio_gap == 0.0

    def test_seed_derivation_and_path_fields(self):
        cfg = ReplicaConfig(level=7, beta=1.0, master_seed=40, replicas=3)
        row = _replica_row((cfg, 2))
        assert row.index == 2
        assert row.seed == derive_seed(40, 2)
        g = brownian.sample(7, B2, row.seed)
        assert row.m1 == float(np.max(g.values))
        assert row.b1 == float(g.values[-1])
        assert row.m1 >= 0.0 and row.m1 >= row.b1


class TestPressureRow:
    def test_matches_hand_built_sample(self):
        cfg = ReplicaConfig(level=6, beta=1.0, master_seed=5, replicas=3)
        grid = brownian.sample(6, B2, derive_seed(5, 2))
        L = TransferOperator(build_potential(grid, 1.0))
        want = pressure_sample(L, power_iterate(L), grid)
        got = pressure_row((cfg, 2))
        assert got.log_lambda == want.log_lambda
        assert (got.variational_lb, got.bernoulli_p, got.slack) == \
            (want.variational_lb, want.bernoulli_p, want.slack)

    def test_unconverged_is_none(self):
        cfg = ReplicaConfig(level=8, beta=1.0, master_seed=1, replicas=2,
                            max_iters=1)
        assert map_replicas(pressure_row, cfg, workers=2) == [None, None]


class TestDeterminism:
    def test_rows_independent_of_workers(self):
        cfg = ReplicaConfig(level=8, beta=1.0, master_seed=7, replicas=16)
        serial = run_replicas(cfg, workers=1)
        for w in (2, 4):
            assert run_replicas(cfg, workers=w) == serial

    def test_report_independent_of_workers(self):
        cfg = ReplicaConfig(level=8, beta=1.0, master_seed=7, replicas=16)
        d1 = run(cfg, workers=1)[1].to_dict()
        d2 = run(cfg, workers=2)[1].to_dict()
        d1.pop("wall_time"), d2.pop("wall_time")
        assert d1 == d2

    def test_master_seed_changes_rows(self):
        a = run_replicas(ReplicaConfig(level=6, master_seed=1, replicas=4))
        b = run_replicas(ReplicaConfig(level=6, master_seed=2, replicas=4))
        assert a != b

    def test_beta_shares_the_coupled_path(self):
        # same master seed => identical grids, so the path statistics agree
        # across beta even though the spectra differ
        r0 = run_replicas(ReplicaConfig(level=7, beta=0.0, master_seed=9, replicas=6))
        r1 = run_replicas(ReplicaConfig(level=7, beta=1.0, master_seed=9, replicas=6))
        assert [x.m1 for x in r0] == [x.m1 for x in r1]
        assert [x.b1 for x in r0] == [x.b1 for x in r1]
        assert [x.eigenvalue for x in r0] != [x.eigenvalue for x in r1]


class TestAggregate:
    def test_beta_zero_degenerate(self):
        rep = run(ReplicaConfig(level=5, beta=0.0, master_seed=3, replicas=8))[1]
        assert rep.n_converged == 8 and rep.n_failed == 0
        assert rep.mean_lambda == 2.0
        assert rep.stderr_lambda == 0.0
        assert rep.quantiles == {"q01": 2.0, "q50": 2.0, "q99": 2.0}
        assert rep.bound_violations == {"lower": 0, "upper": 0, "positivity": 0}

    def test_healthy_batch(self, healthy_rows):
        cfg, rows = healthy_rows
        rep = aggregate(cfg, rows, 0.0)
        assert rep.n_failed == 0
        assert rep.bound_violations == {"lower": 0, "upper": 0, "positivity": 0}
        assert all(r.ratio_gap <= 1e-10 for r in rows)
        q = rep.quantiles
        assert q["q01"] <= q["q50"] <= q["q99"]
        assert math.exp(0.5) <= rep.mean_lambda <= 4 * math.exp(0.5)
        assert rep.stderr_lambda > 0
        assert rep.mean_log_lambda > 0

    def test_all_failed_raises(self):
        cfg = ReplicaConfig(level=8, beta=1.0, master_seed=1, replicas=4,
                            max_iters=1)
        with pytest.raises(RuntimeError):
            run(cfg)

    def test_wall_time_passthrough(self, healthy_rows):
        cfg, rows = healthy_rows
        assert aggregate(cfg, rows, 1.5).wall_time == 1.5


class TestRefinementStudy:
    def test_validation(self):
        cfg = ReplicaConfig(level=4, replicas=2)
        with pytest.raises(ValueError):
            refinement_study(cfg, (6,))
        with pytest.raises(ValueError):
            refinement_study(cfg, (8, 6))
        with pytest.raises(ValueError):
            refinement_study(cfg, (6, 6, 8))

    def test_flat_potential_zero_drift(self):
        cfg = ReplicaConfig(level=4, beta=0.0, master_seed=2, replicas=4)
        out = refinement_study(cfg, (4, 6, 8))
        assert out["mean_abs_drift"] == [0.0, 0.0]
        assert out["pairs"] == ["4->6", "6->8"]

    def test_drift_shrinks_with_depth(self):
        # frozen regression run; ratio between the outer pairs measured at
        # about 7.8 for this master seed
        cfg = ReplicaConfig(level=6, beta=1.0, master_seed=0, replicas=256)
        out = refinement_study(cfg, (6, 8, 10, 12))
        d = out["mean_abs_drift"]
        assert out["decreasing"]
        assert all(x > 0 for x in d)
        assert d[0] >= 1.5 * d[-1]

    def test_workers_do_not_change_study(self):
        cfg = ReplicaConfig(level=5, beta=1.0, master_seed=4, replicas=8)
        assert refinement_study(cfg, (5, 7)) == refinement_study(
            cfg, (5, 7), workers=2)


class TestTightenedUpper:
    def test_bounds_hold(self, healthy_rows):
        cfg, rows = healthy_rows
        out = tightened_upper_check(cfg, rows=rows)
        assert out["band_upper"] == pytest.approx(4 * math.exp(0.5), rel=1e-15)
        assert out["band_bound_ok"] and out["tightened_bound_ok"]
        assert out["mean_exp_m1"] > 1.0
        assert out["tightened_upper"] == pytest.approx(
            2 * out["mean_exp_m1"] + 3 * out["stderr_lambda"], rel=1e-14)

    def test_band_upper_at_beta(self, healthy_rows):
        cfg, rows = healthy_rows
        out = tightened_upper_check(replace(cfg, beta=3.0), rows)
        assert out["band_upper"] == pytest.approx(4 * math.exp(4.5), rel=1e-15)
        # 4 e^800 is past float64: the band saturates at the largest float
        out = tightened_upper_check(replace(cfg, beta=40.0), rows)
        assert out["band_upper"] == sys.float_info.max
        assert out["band_bound_ok"]

    def test_tightened_upper_at_beta(self):
        # lambda <= m e^(beta M1) on every path, so the empirical bound is
        # m mean(e^(beta M1)) + 3 stderr and holds at every beta
        cfg = ReplicaConfig(level=8, beta=3.0, master_seed=0, replicas=16)
        rows = run_replicas(cfg)
        out = tightened_upper_check(cfg, rows)
        mean_exp = np.mean([math.exp(3.0 * r.m1) for r in rows if r.converged])
        assert out["mean_exp_m1"] == pytest.approx(mean_exp, rel=1e-14)
        assert out["tightened_upper"] == pytest.approx(
            2 * mean_exp + 3 * out["stderr_lambda"], rel=1e-14)
        assert out["tightened_upper"] >= out["mean_lambda"]
        assert out["tightened_bound_ok"]

    def test_tightened_upper_saturates(self, healthy_rows):
        # e^(1000 M1) is past float64 on these paths
        cfg, rows = healthy_rows
        with np.errstate(over="raise"):
            out = tightened_upper_check(replace(cfg, beta=1000.0), rows)
        assert out["mean_exp_m1"] == sys.float_info.max
        assert out["tightened_upper"] == sys.float_info.max
        assert out["tightened_bound_ok"]
