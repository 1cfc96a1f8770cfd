import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import all_words, t_exact, word_index
from ruelle_rand.brownian import sample
from ruelle_rand.skorokhod import (CylinderFunction, StepFunction, sup_norm,
                                   theta, theta_inverse)
from ruelle_rand.symbolic import Alphabet

B2 = Alphabet(2)
B3 = Alphabet(3)


def random_step(level, alphabet, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=alphabet.m**level)
    return StepFunction(level, alphabet, v, float(v[-1]))


cases = st.tuples(st.integers(0, 8), st.sampled_from([2, 3]),
                  st.integers(0, 10_000))


class TestTheta:
    def test_constant(self):
        F = StepFunction(2, B2, np.full(4, 5.5), 5.5)
        assert np.all(theta(F).values == 5.5)

    def test_two_interval_example(self):
        F = StepFunction(1, B2, np.array([3.0, 7.0]), 7.0)
        f = theta(F)
        assert f.values[0] == 3.0 and f.values[1] == 7.0

    def test_indicator_against_t_map(self):
        # indicator of [1/2, 3/4) at n=2: only the word with t in the
        # interval carries 1
        F = StepFunction(2, B2, np.array([0.0, 0.0, 1.0, 0.0]), 0.0)
        f = theta(F)
        for w in all_words(2, 2):
            t = t_exact(w, 2)
            expected = 1.0 if (t >= 0.5 and t < 0.75) else 0.0
            assert f.values[word_index(w, 2)] == expected

    @given(cases)
    def test_roundtrip_bitwise(self, case):
        level, m, seed = case
        F = random_step(level, Alphabet(m), seed)
        back = theta_inverse(theta(F))
        assert np.array_equal(back.right_values, F.right_values)
        assert back.terminal_value == F.terminal_value
        f = theta(F)
        again = theta(theta_inverse(f))
        assert np.array_equal(again.values, f.values)

    @given(cases)
    def test_isometry_exact(self, case):
        level, m, seed = case
        F = random_step(level, Alphabet(m), seed)
        assert sup_norm(theta(F)) == sup_norm(F)

    @given(cases, st.integers(0, 100))
    def test_linearity_exact(self, case, seed2):
        level, m, seed = case
        alphabet = Alphabet(m)
        F = random_step(level, alphabet, seed)
        G = random_step(level, alphabet, seed2 + 7_000_000)
        rng = np.random.default_rng(seed + 13)
        a, b = rng.normal(size=2)
        combo = StepFunction(level, alphabet,
                             a * F.right_values + b * G.right_values,
                             a * F.terminal_value + b * G.terminal_value)
        lhs = theta(combo).values
        rhs = a * theta(F).values + b * theta(G).values
        assert np.array_equal(lhs, rhs)


class TestSupNorm:
    def test_constant(self):
        assert sup_norm(StepFunction(1, B2, np.array([-4.0, 2.0]), 2.0)) == 4.0

    @given(cases, st.integers(0, 100))
    def test_triangle(self, case, seed2):
        level, m, seed = case
        alphabet = Alphabet(m)
        F = random_step(level, alphabet, seed)
        G = random_step(level, alphabet, seed2)
        s = StepFunction(level, alphabet, F.right_values + G.right_values,
                         F.terminal_value + G.terminal_value)
        assert sup_norm(s) <= sup_norm(F) + sup_norm(G) + 1e-15


class TestProject:
    @pytest.mark.parametrize("alphabet,level", [(B2, 6), (B2, 8), (B3, 4)])
    def test_theta_project_reads_grid_at_t(self, alphabet, level):
        # the left-endpoint step function of a grid, B_{k/m^n} on
        # [k/m^n, (k+1)/m^n), is what build_potential scales into phi
        g = sample(level, alphabet, seed=97)
        m = alphabet.m
        f = theta(StepFunction(level, alphabet, g.values[:-1],
                               float(g.values[-1])))
        for w in all_words(level, m):
            k = t_exact(w, m) * m**level
            assert f.values[word_index(w, m)] == g.values[int(k)]


class TestValidation:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            StepFunction(2, B2, np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            CylinderFunction(2, B3, np.zeros(8))

    def test_arrays_frozen(self):
        f = CylinderFunction(1, B2, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            f.values[0] = 3.0
