import math
import multiprocessing
import os
import sys
import time
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from ruelle_rand import brownian, montecarlo, pressure, transfer
from ruelle_rand._rng import derive_seed
from ruelle_rand.cli import resolve_workers
from ruelle_rand.montecarlo import (ReplicaConfig, _replica_row, aggregate,
                                    chunk_size, map_replicas,
                                    refinement_study, replica_potential,
                                    run, run_replicas, tightened_upper_check)
from ruelle_rand.pressure import pressure_row, pressure_sample
from ruelle_rand.transfer import (DEFAULT_MAX_ITERS, _perron_core,
                                  build_potential, power_iterate,
                                  ratio_representation)
from ruelle_rand.symbolic import Alphabet

from oracles import _reverse, eigenmeasure

B2 = Alphabet(2)


def _pid_row(config, i):
    """The process that mapped the replica."""
    return os.getpid()


def _slow_pid_row(config, i):
    """The process that mapped the replica, after a wait long enough for
    a forked child to claim a chunk."""
    time.sleep(0.005)
    return os.getpid()


def _skewed_row(config, i):
    """The replica's index, after a wait that is longest on the lowest
    indices: the chunks claimed first finish last."""
    time.sleep(max(0, 24 - i) * 2e-4)
    return i


def _failing_row(parent, side, log, config, i):
    """The replica's index after a short wait, logged by the process that
    mapped it; raises on side ("parent" or "child") past replica 0."""
    here = "parent" if os.getpid() == parent else "child"
    if here == side and i > 0:
        raise ValueError(f"row {i} failed in the {side}")
    with open(log, "a") as fh:
        fh.write(f"{here} {i}\n")
    time.sleep(0.02)
    return i


@pytest.fixture(scope="module")
def healthy_rows():
    cfg = ReplicaConfig(level=10, beta=1.0, master_seed=11, replicas=64)
    return cfg, run_replicas(cfg)


@pytest.fixture
def core_runs(monkeypatch):
    """Iteration counts of every Perron core run, in call order."""
    runs = []
    core = transfer._perron_core

    def counted(*a):
        out = core(*a)
        runs.append(out[4])
        return out
    monkeypatch.setattr(transfer, "_perron_core", counted)
    return runs


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

    def test_non_integer_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("RUELLE_RAND_WORKERS", "abc")
        with pytest.raises(ValueError, match="RUELLE_RAND_WORKERS='abc'"):
            resolve_workers()


class TestReplicaRow:
    def test_beta_zero_exact(self):
        cfg = ReplicaConfig(level=6, beta=0.0, master_seed=5)
        row = _replica_row(cfg, 0)
        assert row.eigenvalue == 2.0
        assert row.converged
        # rows carry no residual or ratio identity: the solve's own, on the
        # same replica
        potential = replica_potential(cfg, 0)[2]
        res = power_iterate(potential)
        assert res.residual == 0.0
        assert row.lower_ok and row.upper_ok and row.positive_ok
        assert ratio_representation(potential, res) == res.eigenvalue

    def test_seed_derivation_and_path_fields(self):
        cfg = ReplicaConfig(level=7, beta=1.0, master_seed=40, replicas=3)
        row = _replica_row(cfg, 2)
        assert row.index == 2
        assert row.seed == derive_seed(40, 2)
        g = brownian.sample(7, B2, row.seed)
        assert row.m1 == float(np.max(g.values))
        assert row.b1 == float(g.values[-1])
        assert row.m1 >= 0.0 and row.m1 >= row.b1

    def test_failed_right_solve_skips_the_reversed_one(self, core_runs,
                                                       monkeypatch):
        monkeypatch.setattr(montecarlo, "power_iterate",
                            partial(power_iterate, max_iters=5))
        cfg = ReplicaConfig(level=8, beta=1.0, master_seed=43)
        row = _replica_row(cfg, 0)
        assert core_runs == [5]
        assert not row.converged
        assert row.iterations == 5
        assert not row.positive_ok

    def test_positivity_from_log_h_agrees_with_h(self, monkeypatch):
        # rows decide h > 0 from log H, as nu > 0 from the floor; on these
        # paths h has entries below e^-745, which are 0 in float64, and the
        # rows are still positive: their log H and floor are finite
        solve, solves = montecarlo.power_iterate, []

        def recorded(potential, *a):
            solves.append(solve(potential, *a))
            return solves[-1]
        monkeypatch.setattr(montecarlo, "power_iterate", recorded)
        zero_h = 0
        for beta in (300.0, 500.0, 700.0, 1000.0):
            del solves[:]
            cfg = ReplicaConfig(level=8, beta=beta, master_seed=5,
                                replicas=32)
            for row, res in zip(run_replicas(cfg, workers=1), solves):
                if res.converged:
                    zero_h += not np.all(res.h.values > 0)
                    assert row.positive_ok == (
                        bool(np.isfinite(res.log_h.min()))
                        and math.isfinite(res.log_floor))
                    assert row.positive_ok
        assert zero_h == 13

    def test_unconverged_reversed_solve_is_flagged(self, monkeypatch):
        # The reversed solve (nu) flags its own stop; rows no longer run it,
        # so a budget only the right solve meets leaves the row converged.
        cfg = ReplicaConfig(level=8, beta=1.0, master_seed=5)
        _, _, potential = replica_potential(cfg, 0)
        phi = potential.phi
        right = _perron_core(phi, 2, 8, DEFAULT_MAX_ITERS)[4]
        rev = _perron_core(_reverse(phi, 2, 8), 2, 8, DEFAULT_MAX_ITERS)[4]
        assert right < rev  # this path's reversed solve is the slower one
        _, iters, ok = eigenmeasure(potential, max_iters=right)
        assert not ok and iters == right
        monkeypatch.setattr(montecarlo, "power_iterate",
                            partial(power_iterate, max_iters=right))
        row = _replica_row(cfg, 0)
        assert row.converged
        assert row.iterations == right
        assert power_iterate(potential, right).residual <= 1e-11

    def test_iterations_count_both_solves(self, core_runs):
        # Each solve counts its own core run; a row runs the right one once.
        cfg = ReplicaConfig(level=10, beta=1.0, master_seed=45)
        _, _, potential = replica_potential(cfg, 0)
        phi = potential.phi
        counts = [_perron_core(p, 2, 10, DEFAULT_MAX_ITERS)[4]
                  for p in (phi, _reverse(phi, 2, 10))]
        assert power_iterate(potential).iterations == counts[0]
        assert eigenmeasure(potential)[1:] == (counts[1], True)
        del core_runs[:]
        row = _replica_row(cfg, 0)
        assert core_runs == [counts[0]]
        assert row.converged and row.iterations == counts[0]


class TestPressureRow:
    def test_matches_hand_built_sample(self):
        cfg = ReplicaConfig(level=6, beta=1.0, master_seed=5, replicas=3)
        grid = brownian.sample(6, B2, derive_seed(5, 2))
        potential = build_potential(grid, 1.0)
        want = pressure_sample(potential, power_iterate(potential))
        got = pressure_row(cfg, 2)
        assert got.log_lambda == want.log_lambda
        assert got.variational_lb == want.variational_lb

    def test_unconverged_is_none(self, monkeypatch):
        # forked rows inherit the patch
        monkeypatch.setattr(pressure, "power_iterate",
                            partial(power_iterate, max_iters=1))
        cfg = ReplicaConfig(level=8, beta=1.0, master_seed=1, replicas=2)
        assert map_replicas(pressure_row, cfg, workers=2) == [None, None]


class TestDeterminism:
    def test_rows_independent_of_workers(self):
        # batches smaller than, equal to and larger than the worker count:
        # the parent's share and the children's rejoin in index order
        for replicas in (1, 2, 7, 16):
            cfg = ReplicaConfig(level=8, beta=1.0, master_seed=7,
                                replicas=replicas)
            serial = run_replicas(cfg, workers=1)
            assert [r.index for r in serial] == list(range(replicas))
            for w in (2, 3, 4):
                assert run_replicas(cfg, workers=w) == serial, (replicas, w)

    @pytest.mark.parametrize("replicas,workers", [(7, 2), (7, 3), (2, 3),
                                                  (1, 3)])
    def test_parent_is_one_of_the_workers(self, replicas, workers):
        cfg = ReplicaConfig(level=4, replicas=replicas)
        pids = map_replicas(_pid_row, cfg, workers)
        assert len(pids) == replicas
        # the parent maps the first share of indices itself
        assert pids[0] == os.getpid()
        assert len(set(pids)) <= min(workers, replicas)

    def test_library_map_reads_no_environment(self, monkeypatch):
        # only the CLI reads the variable: a map without workers runs in
        # the parent alone
        monkeypatch.setenv("RUELLE_RAND_WORKERS", "2")
        cfg = ReplicaConfig(level=4, replicas=16)
        assert map_replicas(_slow_pid_row, cfg) == [os.getpid()] * 16

    @pytest.mark.parametrize("workers", [2, 3])
    def test_skewed_rows_come_back_in_index_order(self, workers):
        # 101 replicas: no chunk size at two or three workers divides them
        cfg = ReplicaConfig(level=4, replicas=101)
        assert cfg.replicas % chunk_size(cfg.replicas, workers) != 0
        assert map_replicas(_skewed_row, cfg, workers) == list(range(101))

    @pytest.mark.parametrize("side", ["parent", "child"])
    def test_failure_stops_the_other_side(self, tmp_path, side):
        # 64 replicas in chunks of 2; a failure on one side stops the other
        # within a chunk, long before it could map the rest, and no child
        # is left running
        log = tmp_path / "rows.log"
        log.touch()
        cfg = ReplicaConfig(level=4, replicas=64)
        fn = partial(_failing_row, os.getpid(), side, str(log))
        with pytest.raises(ValueError, match=f"failed in the {side}"):
            map_replicas(fn, cfg, 2)
        assert multiprocessing.active_children() == []
        other = "child" if side == "parent" else "parent"
        mapped = [l for l in log.read_text().splitlines()
                  if l.startswith(other)]
        assert len(mapped) < 32

    def test_report_independent_of_workers(self):
        cfg = ReplicaConfig(level=8, beta=1.0, master_seed=7, replicas=16)
        d1 = run(cfg, workers=1)[1].to_dict()
        d2 = run(cfg, workers=2)[1].to_dict()
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
        for r in rows:
            potential = replica_potential(cfg, r.index)[2]
            res = power_iterate(potential)
            assert res.eigenvalue == r.eigenvalue
            ratio = ratio_representation(potential, res)
            assert abs(ratio - res.eigenvalue) / res.eigenvalue <= 1e-10
        assert all(r.positive_ok and math.isfinite(r.log_floor) for r in rows)
        assert rep.positivity_log_floor == min(r.log_floor for r in rows)
        q = rep.quantiles
        assert q["q01"] <= q["q50"] <= q["q99"]
        assert math.exp(0.5) <= rep.mean_lambda <= 4 * math.exp(0.5)
        assert rep.stderr_lambda > 0
        assert rep.mean_log_lambda > 0

    @staticmethod
    def assert_numpy_quantiles(values):
        # np.quantile is the oracle, compared bit for bit
        want = np.quantile(values, [0.01, 0.5, 0.99])
        got = montecarlo._quantiles(values)
        assert [got[k].hex() for k in ("q01", "q50", "q99")] == \
            [float(v).hex() for v in want], len(values)

    def test_quantiles_match_numpy(self):
        rng = np.random.default_rng(20)
        for n in range(1, 1026):
            x = rng.lognormal(0.5, 0.3, n)
            self.assert_numpy_quantiles(x.tolist())
            # ties
            self.assert_numpy_quantiles(np.round(x, 1).tolist())
            self.assert_numpy_quantiles((1.5 * rng.integers(0, 3, n)).tolist())

    def test_batch_quantiles_match_numpy(self, healthy_rows):
        cfg, rows = healthy_rows
        self.assert_numpy_quantiles([r.eigenvalue for r in rows])
        q = aggregate(cfg, rows, 0.0).quantiles
        assert q == montecarlo._quantiles([r.eigenvalue for r in rows])

    def test_all_failed_is_none(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "power_iterate",
                            partial(power_iterate, max_iters=1))
        cfg = ReplicaConfig(level=8, beta=1.0, master_seed=1, replicas=4)
        rows, rep = run(cfg)
        assert len(rows) == 4 and rep is None

    def test_overflowing_lambda_is_refused(self):
        # beta 700: converged rows whose lambda is past float64 are refused
        # before any mean or quantile is taken over them
        cfg = ReplicaConfig(level=8, beta=700.0, master_seed=1, replicas=16)
        rows = run_replicas(cfg)
        bad = [r for r in rows if r.converged and math.isinf(r.eigenvalue)]
        assert bad
        assert all(r.log_eigenvalue > math.log(sys.float_info.max)
                   for r in bad)
        with pytest.raises(ValueError, match=(
                f"replica {bad[0].index} .*log_lambda = .* overflows float64")):
            aggregate(cfg, rows, 0.0)

    def test_overflowing_stderr_is_refused(self):
        # every converged lambda fits float64 here, the spread of lambda
        # does not
        cfg = ReplicaConfig(level=8, beta=700.0, master_seed=0, replicas=16)
        rows = run_replicas(cfg)
        good = [r for r in rows if r.converged]
        assert all(math.isfinite(r.eigenvalue) for r in good)
        assert max(r.log_eigenvalue for r in good) > 600
        with pytest.raises(ValueError, match=(
                f"^stderr_lambda of the {len(good)} converged replicas "
                f"overflows float64")):
            aggregate(cfg, rows, 0.0)

    def test_verdicts_and_tightened_block(self, healthy_rows):
        # the report carries its own verdicts and the tightened block, whose
        # mean and stderr are the report's
        cfg, rows = healthy_rows
        rep = aggregate(cfg, rows, 0.0)
        assert rep.tightened == tightened_upper_check(cfg, rows)
        assert rep.mean_lambda == rep.tightened["mean_lambda"]
        assert rep.stderr_lambda == rep.tightened["stderr_lambda"]
        assert rep.bounds_ok is True and rep.expectation_band_ok is True
        assert aggregate(replace(cfg, beta=2.0), rows,
                         0.0).expectation_band_ok is None
        failed = [replace(rows[0], converged=False), *rows[1:]]
        assert aggregate(cfg, failed, 0.0).bounds_ok is False

    def test_wall_time_passthrough(self, healthy_rows):
        cfg, rows = healthy_rows
        rep = aggregate(cfg, rows, 1.5)
        assert rep.wall_time == 1.5
        assert "wall_time" not in rep.to_dict()


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

    def test_rows_are_the_montecarlo_rows(self):
        # one path for every batch: a study row solves replica i's path at
        # each level as the montecarlo row at that level does, bit for bit
        cfg = ReplicaConfig(level=9, beta=1.0, master_seed=17, replicas=4)
        for i in range(4):
            want = [_replica_row(replace(cfg, level=level), i).log_eigenvalue
                    for level in (6, 8)]
            assert montecarlo._study_row((6, 8), cfg, i) == want

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
