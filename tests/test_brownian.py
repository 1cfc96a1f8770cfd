import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ruelle_rand import brownian
from ruelle_rand._rng import derive_seed, level_stream, rekey
from ruelle_rand.brownian import BrownianGrid, refine, sample, stats
from ruelle_rand.symbolic import Alphabet

B2 = Alphabet(2)
B3 = Alphabet(3)

# E[exp(max B)] by the reflection principle: M_1 ~ |N(0,1)|, so the target
# is 2 e^(1/2) Phi(1); the grid max at finite level undershoots slightly,
# covered by the allowance below
EXP_M1 = 2 * math.exp(0.5) * 0.5 * (1 + math.erf(1 / math.sqrt(2)))
GRID_MAX_ALLOWANCE = 0.04


class TestShape:
    def test_level0(self):
        g = sample(0, B2, seed=11)
        assert g.values.shape == (2,)
        assert g.values[0] == 0.0

    def test_lengths(self):
        assert sample(3, B2, seed=1).values.shape == (9,)
        assert sample(2, B3, seed=1).values.shape == (10,)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            sample(-1, B2)

    def test_b0_enforced_in_constructor(self):
        with pytest.raises(ValueError):
            BrownianGrid(0, B2, np.array([1.0, 2.0]), seed=0)

    def test_values_read_only(self):
        g = sample(2, B2, seed=5)
        with pytest.raises(ValueError):
            g.values[1] = 9.9


class TestZeroNoise:
    def test_all_zero(self):
        g = sample(6, B2, seed=123, zero_noise=True)
        assert not g.values.any()

    def test_propagates_through_refine(self):
        g = refine(sample(4, B3, seed=9, zero_noise=True))
        assert not g.values.any()
        assert g.zero_noise


class TestDeterminism:
    @given(st.integers(0, 2**64 - 1))
    def test_same_seed_same_path(self, seed):
        a = sample(4, B2, seed)
        b = sample(4, B2, seed)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        assert not np.array_equal(sample(4, B2, 1).values, sample(4, B2, 2).values)

    def test_derive_seed_injective_prefix(self):
        seen = {derive_seed(7, i) for i in range(100_000)}
        assert len(seen) == 100_000


class TestStreams:
    SEEDS = (0, 1, 2**63, 2**64 - 1)

    @staticmethod
    def keyed(seed, level):
        key = np.array([seed & (2**64 - 1), level], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    @staticmethod
    def draws(stream):
        # float32 draws take half-words, so a stale uint32 buffer shows
        return np.concatenate([stream.standard_normal(7),
                               stream.random(3, dtype=np.float32)])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_level_stream_is_keyed_philox(self, seed):
        for level in range(25):
            assert np.array_equal(self.draws(level_stream(seed, level)),
                                  self.draws(self.keyed(seed, level)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rekey_restarts_the_keyed_stream(self, seed):
        stream = level_stream(seed ^ 1, 99)
        for level in range(25):
            stream.random(1, dtype=np.float32)  # leave the stream part-spent
            rekey(stream, seed, level)
            assert np.array_equal(self.draws(stream),
                                  self.draws(self.keyed(seed, level)))

    def test_two_streams_alive_at_once(self):
        a, b = level_stream(1, 3), level_stream(2**63, 3)
        ref_a, ref_b = self.keyed(1, 3), self.keyed(2**63, 3)
        for _ in range(3):
            assert np.array_equal(self.draws(a), self.draws(ref_a))
            assert np.array_equal(self.draws(b), self.draws(ref_b))
        rekey(a, 2**64 - 1, 24)
        ref_a = self.keyed(2**64 - 1, 24)
        for _ in range(3):
            assert np.array_equal(self.draws(b), self.draws(ref_b))
            assert np.array_equal(self.draws(a), self.draws(ref_a))


class TestRefine:
    @pytest.mark.parametrize("alphabet,level", [(B2, 0), (B2, 5), (B3, 3)])
    def test_matches_direct_sample_bitwise(self, alphabet, level):
        g = sample(level, alphabet, seed=77)
        assert np.array_equal(refine(g).values,
                              sample(level + 1, alphabet, seed=77).values)

    def test_chain_from_zero(self):
        g = sample(0, B2, seed=31)
        for _ in range(8):
            g = refine(g)
        assert np.array_equal(g.values, sample(8, B2, seed=31).values)

    def test_coarse_points_preserved(self):
        g = sample(6, B3, seed=4)
        r = refine(g)
        assert np.array_equal(r.values[::3], g.values)

    def test_level_and_generation_advance(self):
        g = sample(2, B2, seed=1)
        r = refine(g)
        assert (r.level, r.generation) == (3, g.generation + 1)


class TestLaw:
    def test_b1_moments(self):
        # moment sanity: mean within 4/sqrt(N), var within 4*sqrt(2/N)
        N = 10_000
        b1 = np.array([sample(0, B2, derive_seed(2024, i)).values[1]
                       for i in range(N)])
        assert abs(b1.mean()) <= 4 / math.sqrt(N)
        assert abs(b1.var(ddof=1) - 1) <= 4 * math.sqrt(2 / N)

    def test_exp_b1_lognormal_mean(self):
        N = 10_000
        b1 = np.array([sample(0, B2, derive_seed(55, i)).values[1]
                       for i in range(N)])
        e = np.exp(b1)
        se = e.std(ddof=1) / math.sqrt(N)
        assert abs(e.mean() - math.exp(0.5)) <= 3 * se

    def test_midpoint_bridge_variance(self):
        # Var(B_1/2 - (B_0 + B_1)/2) = 1/4
        N = 100_000
        inc = np.empty(N)
        for i in range(N):
            v = sample(1, B2, derive_seed(301, i)).values
            inc[i] = v[1] - 0.5 * (v[0] + v[2])
        var = inc.var(ddof=1)
        se = var * math.sqrt(2 / (N - 1))
        assert abs(var - 0.25) <= 3 * se

    def test_trinary_joint_law(self):
        # level-1 m=3 grid must carry Cov(B_t, B_s) = min(t, s)
        N = 30_000
        pts = np.empty((N, 2))
        for i in range(N):
            v = sample(1, B3, derive_seed(640, i)).values
            pts[i] = v[1], v[2]
        cov = np.cov(pts.T)
        assert abs(cov[0, 0] - 1 / 3) < 0.015
        assert abs(cov[1, 1] - 2 / 3) < 0.02
        assert abs(cov[0, 1] - 1 / 3) < 0.015

    def test_exp_max_reflection_value(self):
        # grid max over 2^12 points, mean of exp against the reflection
        # target; 3 SE plus a small allowance for the discrete-max deficit
        N = 10_000
        em = np.empty(N)
        for i in range(N):
            em[i] = math.exp(sample(12, B2, derive_seed(41, i)).values.max())
        se = em.std(ddof=1) / math.sqrt(N)
        assert abs(em.mean() - EXP_M1) <= 3 * se + GRID_MAX_ALLOWANCE


class TestStats:
    def test_zero_grid(self):
        s = stats(sample(5, B2, 3, zero_noise=True), 0.4)
        assert (s.max, s.min, s.integral, s.holder_constant) == (0, 0, 0, 0)

    def test_hand_grid(self):
        g = BrownianGrid(2, B2, np.array([0.0, 2.0, -2.0, 4.0, 1.0]), seed=0)
        s = stats(g, 0.4)
        assert s.max == 4.0
        assert s.min == -2.0
        assert s.integral == pytest.approx(1.125, rel=1e-15)
        # scales: full span |1|, halves max(2,3)*2^0.4, quarters 6*4^0.4
        expected = max(1.0, 3 * 2**0.4, 6 * 4**0.4)
        assert s.holder_constant == pytest.approx(expected, rel=1e-12)

    def test_min_max_bracket_zero(self):
        for seed in (1, 2, 3):
            s = stats(sample(8, B2, seed), 0.3)
            assert s.min <= 0 <= s.max
            assert s.max >= sample(8, B2, seed).values[-1]

    def test_gamma_range_enforced(self):
        g = sample(3, B2, 1)
        for bad in (0.0, 0.5, 0.9, -0.1):
            with pytest.raises(ValueError):
                stats(g, bad)

    def test_holder_constant_is_stats_field(self):
        for alphabet, level in ((B2, 0), (B2, 1), (B2, 10), (B3, 6)):
            for seed in (0, 5):
                g = sample(level, alphabet, seed)
                for gamma in (0.1, 0.25, 0.4, 0.49):
                    c = brownian.holder_constant(g, gamma)
                    assert c == stats(g, gamma).holder_constant
                    assert type(c) is float
        with pytest.raises(ValueError):
            brownian.holder_constant(sample(3, B2, 1), 0.5)

    def test_holder_stable_under_refinement(self):
        # smoke check of path regularity: one refinement should not blow
        # the empirical constant up by more than 2x
        g = sample(10, B2, seed=88)
        c0 = stats(g, 0.4).holder_constant
        c1 = stats(refine(g), 0.4).holder_constant
        assert c1 <= 2 * c0
        assert np.isfinite(c1)
