import math

import numpy as np
import pytest

from oracles import (all_words, bernoulli_values, birkhoff_iterates,
                     dense_matrix)
from ruelle_rand import transfer
from ruelle_rand.brownian import sample, stats
from ruelle_rand.montecarlo import mean_stderr
from ruelle_rand.pressure import (DEFAULT_P_GRID, _digit_tables,
                                  bernoulli_lower_bound, birkhoff_pressure,
                                  pressure_band, pressure_sample,
                                  quenched_report, variational_slack)
from ruelle_rand.symbolic import Alphabet
from ruelle_rand.transfer import (PotentialField, TransferOperator,
                                  build_potential, power_iterate)

B2 = Alphabet(2)
B3 = Alphabet(3)
# (m, n) for the oracle comparison: depths up to 16 at m = 2
ORACLE_CASES = ([(2, n) for n in (1, 2, 5, 10, 16)]
                + [(3, 1), (3, 4), (3, 8), (4, 3), (4, 6), (5, 2), (5, 5),
                   (16, 1), (16, 3), (16, 4)])


def seeded(level, seed, beta=1.0, alphabet=B2):
    grid = sample(level, alphabet, seed)
    L = TransferOperator(build_potential(grid, beta))
    return L, power_iterate(L), grid


class TestBirkhoff:
    def test_zero_potential_every_entry_log_m(self):
        phi = np.zeros(16)
        L = TransferOperator(PotentialField(4, B2, 1.0, phi))
        seq = birkhoff_pressure(L, 0b0110, 12)
        assert np.allclose(seq, math.log(2), rtol=1e-14, atol=0)

    def test_converges_to_log_eigenvalue(self):
        L, r, _ = seeded(10, 7)
        seq = birkhoff_pressure(L, 0, 256)
        assert abs(seq[-1] - r.log_eigenvalue) <= 0.01

    def test_near_log_eigenvalue_at_kmax_64(self):
        L, r, _ = seeded(8, 41)
        seq = birkhoff_pressure(L, 0, 64)
        assert seq.shape == (64,)
        assert abs(seq[-1] - r.log_eigenvalue) <= 0.05

    def test_limit_independent_of_base_word(self):
        L, _, _ = seeded(8, 17)
        rng = np.random.default_rng(3)
        finals = []
        for ix in rng.integers(0, 2**8, size=5):
            finals.append(birkhoff_pressure(L, int(ix), 512)[-1])
        assert max(finals) - min(finals) <= 0.01

    @pytest.mark.parametrize("alphabet,level", [(B2, 5), (B3, 3)])
    def test_matches_dense_iterates_at_every_word(self, alphabet, level):
        # (1/k) log (A^k 1)[ix] from the entrywise matrix, k = 1..6
        L, _, _ = seeded(level, 23, alphabet=alphabet)
        A = dense_matrix(L.potential)
        v, want = np.ones(A.shape[0]), []
        for k in range(1, 7):
            v = A @ v
            want.append(np.log(v) / k)
        want = np.array(want)
        for ix in range(A.shape[0]):
            got = birkhoff_pressure(L, ix, 6)
            assert np.allclose(got, want[:, ix], rtol=1e-13, atol=0), ix

    def test_bits_of_the_depth_n_iterates(self, monkeypatch):
        # the quotient iterates equal the depth-n log kernel's bit for bit,
        # on one block of heads and, at the smaller depths, across several
        cases = [(m, n, beta, seed)
                 for m, levels in ((2, range(1, 9)), (3, range(1, 9)),
                                   (5, range(1, 7)))
                 for n in levels
                 for beta in (0.0, 1.0, 30.0)
                 for seed in range(4)]
        default = transfer._BLOCK_HEADS
        for m, n, beta, seed in cases:
            grid = sample(n, Alphabet(m), seed)
            L = TransferOperator(build_potential(grid, beta))
            words = [0, m**n // 3, m**n - 1]
            want = birkhoff_iterates(L, words, 32)
            for block in (default, 2) if n <= 5 else (default,):
                monkeypatch.setattr(transfer, "_BLOCK_HEADS", block)
                for i, ix in enumerate(words):
                    got = birkhoff_pressure(L, ix, 32)
                    assert got.tobytes() == want[:, i].tobytes(), \
                        (m, n, beta, seed, ix, block)

    def test_kmax_validated(self):
        L, _, _ = seeded(3, 1)
        with pytest.raises(ValueError):
            birkhoff_pressure(L, 0, 0)

    def test_wrong_depth_rejected(self):
        # an index past m^n names no depth-n word
        L, _, _ = seeded(3, 1)
        for ix in (-1, 2**3, 2**4):
            with pytest.raises(ValueError):
                birkhoff_pressure(L, ix, 4)


class TestBernoulliBound:
    def test_zero_potential_maximized_at_half(self):
        phi = np.zeros(32)
        value, p = bernoulli_lower_bound(PotentialField(5, B2, 1.0, phi))
        assert value == pytest.approx(math.log(2), rel=1e-12)
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_constant_potential_adds_c(self):
        c = 0.37
        phi = np.full(8, c)
        value, _ = bernoulli_lower_bound(PotentialField(3, B2, 1.0, phi))
        assert value == pytest.approx(math.log(2) + c, rel=1e-12)

    def test_trinary_uniform_is_interior(self):
        phi = np.zeros(27)
        value, p = bernoulli_lower_bound(PotentialField(3, B3, 1.0, phi))
        # Binomial(2, 1/2) has entropy 3/2 log 2 - (1/2) log 2 ... compute
        # directly: q = (1/4, 1/2, 1/4)
        q = np.array([0.25, 0.5, 0.25])
        assert value == pytest.approx(float(-(q * np.log(q)).sum()), rel=1e-12)
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_product_measure_integral_matches_direct_sum(self):
        L, _, _ = seeded(5, 23)
        p = 0.3
        q = np.array([0.7, 0.3])
        mu = np.ones(1)
        for _ in range(5):
            mu = np.kron(mu, q)  # MSB-first product weights
        direct = float(mu @ L.potential.phi)
        q_ent = float(-(q * np.log(q)).sum())
        value, _ = bernoulli_lower_bound(L.potential, p_grid=[p])
        assert value == pytest.approx(q_ent + direct, rel=1e-12)

    def test_lower_bound_below_log_lambda(self):
        for seed in (31, 32, 33):
            L, r, _ = seeded(8, seed)
            value, _ = bernoulli_lower_bound(L.potential)
            assert value <= r.log_eigenvalue + 1e-10

    @pytest.mark.parametrize("m,n", ORACLE_CASES)
    def test_matches_per_p_oracle(self, m, n):
        rng = np.random.default_rng(100 * m + n)
        for seed in range(16):
            pot = build_potential(sample(n, Alphabet(m), seed), 1.0)
            scale = 1.0 + float(np.abs(pot.phi).max())
            random_grid = rng.uniform(0.001, 0.999, int(rng.integers(1, 40)))
            for p_grid in (DEFAULT_P_GRID, random_grid):
                ref = bernoulli_values(pot, p_grid)
                value, p = bernoulli_lower_bound(pot, p_grid)
                best = int(np.argmax(ref))
                assert abs(value - ref[best]) <= 1e-13 * scale
                top_two = np.sort(ref)[-2:]
                if ref.size == 1 or top_two[1] - top_two[0] > 1e-12:
                    assert p == p_grid[best]

    def test_digit_tables(self):
        s, r = _digit_tables(3, 4)
        assert s.tolist() == [sum(w) for w in all_words(4, 3)]
        # r is the law of the word given its digit sum
        assert np.allclose(np.bincount(s, weights=r), 1.0, rtol=1e-14, atol=0)
        assert _digit_tables(3, 4)[0] is s
        assert _digit_tables(2, 6)[1] is None

    def test_grid_over_cell_budget_refused(self):
        m = 2**18
        pot = PotentialField(1, Alphabet(m), 1.0, np.zeros(m))
        with pytest.raises(ValueError, match="budget"):
            bernoulli_lower_bound(pot)

    def test_bad_grid_rejected(self):
        phi = np.zeros(4)
        pot = PotentialField(2, B2, 1.0, phi)
        with pytest.raises(ValueError):
            bernoulli_lower_bound(pot, p_grid=[])
        with pytest.raises(ValueError):
            bernoulli_lower_bound(pot, p_grid=[0.0, 0.5])
        with pytest.raises(ValueError):
            bernoulli_lower_bound(pot, p_grid=[0.5, 1.0])


class TestSlack:
    def test_formula(self):
        g = sample(10, B2, 5)
        from ruelle_rand.brownian import stats
        C = stats(g, 0.4).holder_constant
        assert variational_slack(g, 2.0) == pytest.approx(
            2 * 2.0 * C * 2 ** (-0.4 * 10), rel=1e-14)

    def test_m_adic_span(self):
        g = sample(6, B3, 5)
        C = stats(g, 0.4).holder_constant
        assert variational_slack(g, 1.5) == pytest.approx(
            2 * 1.5 * C * 3 ** (-0.4 * 6), rel=1e-14)

    def test_zero_beta_zero_slack(self):
        g = sample(6, B2, 5)
        assert variational_slack(g, 0.0) == 0.0

    def test_decreases_with_depth_on_refinement(self):
        from ruelle_rand.brownian import refine
        g = sample(8, B2, 77)
        s8 = variational_slack(g, 1.0)
        s12 = variational_slack(refine(refine(refine(refine(g)))), 1.0)
        assert s12 < s8


class TestPressureSample:
    def test_fields_coherent(self):
        L, r, g = seeded(8, 41)
        s = pressure_sample(L, r, g)
        assert s.log_lambda == r.log_eigenvalue
        assert s.variational_lb <= s.log_lambda + 1e-10
        assert s.variational_lb == bernoulli_lower_bound(L.potential)[0]
        assert s.slack > 0


class TestMeanStderr:
    def test_sample_formula(self):
        v = np.array([1.0, 2.0, 4.0, 7.0])
        mean, se = mean_stderr(v)
        assert mean == 3.5
        assert se == pytest.approx(np.std(v, ddof=1) / 2, rel=1e-15)

    def test_single_sample_has_zero_stderr(self):
        assert mean_stderr(np.array([2.5])) == (2.5, 0.0)


class TestQuenchedReport:
    def test_zero_noise_batch(self):
        samples = []
        for seed in range(8):
            g = sample(6, B2, seed, zero_noise=True)
            L = TransferOperator(build_potential(g, 1.0))
            r = power_iterate(L)
            samples.append(pressure_sample(L, r, g))
        rep = quenched_report(samples, B2, 1.0)
        assert rep["n"] == 8
        assert rep["mean_log_lambda"] == pytest.approx(math.log(2), rel=1e-12)
        assert rep["stderr"] == 0.0
        assert rep["all_positive"] and rep["jensen_ok"] and rep["bounds_ok"]
        assert rep["band"] == [0.0, math.log(4) + 0.5]
        assert rep["variational_violations"] == 0

    def test_seeded_batch(self):
        samples = []
        for seed in range(48):
            L, r, g = seeded(10, 3000 + seed)
            samples.append(pressure_sample(L, r, g))
        rep = quenched_report(samples, B2, 1.0)
        assert rep["all_positive"]
        assert rep["jensen_ok"]
        assert rep["bounds_ok"]
        assert rep["stderr"] > 0
        assert rep["min_log_lambda"] > 0
        assert rep["worst_variational_gap"] <= 0 + 1e-10
        assert rep["variational_violations"] == 0

    def test_band_values(self):
        assert pressure_band(B2, 1.0) == (0.0, math.log(4) + 0.5)
        assert pressure_band(B3, 1.0) == (0.0, math.log(6) + 0.5)

    def test_band_at_beta(self):
        assert pressure_band(B2, 4.0) == (0.0, math.log(4) + 8.0)
        assert pressure_band(B3, 0.0) == (0.0, math.log(6))

    def test_empty_rejected(self):
        # no converged replica: no report, as for the other batches
        assert quenched_report([], B2, 1.0) is None
        assert quenched_report([None, None], B2, 1.0) is None

    def test_unconverged_replicas_counted(self):
        samples = [pressure_sample(*seeded(6, 200 + i)) for i in range(3)]
        rep = quenched_report([None, samples[0], None, samples[1], samples[2]],
                              B2, 1.0)
        assert rep == {**quenched_report(samples, B2, 1.0), "n_failed": 2}
        assert rep["n"] == 3

    def test_jensen_is_equality_for_constant_batch(self):
        L, r, g = seeded(6, 91)
        samples = [pressure_sample(L, r, g)] * 5
        rep = quenched_report(samples, B2, 1.0)
        assert rep["jensen_ok"]
        assert rep["stderr"] == 0.0
