"""The alphabet, and the conventions of depth-n words that src/ holds as
base-m indices k: the oracle's letter tuples against the digit strings and
the times t = k / m^n that spectrum's eigenfunction CSV writes."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import all_words, metric, shift_preimages, t_exact, word_index
from ruelle_rand.symbolic import Alphabet

# (m, word) with the word a letter tuple over {0, ..., m-1}
words_st = st.integers(2, 5).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(st.integers(0, m - 1),
                                             min_size=1, max_size=10)
                        .map(tuple)))


def digits(k: int, m: int, n: int) -> str:
    """The eigenfunction CSV's word column for index k at depth n."""
    return np.base_repr(k, m).zfill(n)


class TestWordBasics:
    def test_alphabet_needs_two_letters(self):
        with pytest.raises(ValueError):
            Alphabet(1)

    @given(words_st)
    def test_index_roundtrip(self, case):
        m, w = case
        k = word_index(w, m)
        assert 0 <= k < m ** len(w)
        assert tuple(int(c) for c in digits(k, m, len(w))) == w

    def test_enumeration_order_is_index_order(self):
        for m in (2, 3):
            ws = list(all_words(3, m))
            assert [word_index(w, m) for w in ws] == list(range(m**3))

    def test_string_roundtrip(self):
        assert digits(6, 2, 4) == "0110"
        assert word_index((0, 1, 1, 0), 2) == 6


class TestTMap:
    def test_leading_one_is_half(self):
        for n in range(1, 6):
            w = (1,) + (0,) * (n - 1)
            assert Fraction(word_index(w, 2), 2**n) == Fraction(1, 2)

    def test_zero_word(self):
        assert word_index((0, 0, 0), 2) / 2**3 == 0.0

    def test_ones_word_geometric_sum(self):
        for n in range(1, 8):
            assert t_exact((1,) * n, 2) == Fraction(2**n - 1, 2**n)

    @given(words_st)
    def test_against_fraction_oracle(self, case):
        # t = k / m^n is the letter sum exactly, and the CSV's float k / m^n
        # is that value correctly rounded
        m, w = case
        k, n = word_index(w, m), len(w)
        assert Fraction(k, m**n) == t_exact(w, m)
        assert k / m**n == float(t_exact(w, m))

    @given(words_st)
    def test_range_exact(self, case):
        m, w = case
        n = len(w)
        assert 0 <= t_exact(w, m) <= Fraction(m**n - 1, m**n)


class TestMetric:
    def test_equal_words(self):
        assert metric((0, 1), (0, 1)) == 0.0

    def test_first_letter_disagreement(self):
        assert metric((0, 1, 1), (1, 0, 0)) == 0.5

    def test_third_letter_disagreement(self):
        assert metric((1, 0, 1), (1, 0, 0)) == 0.125

    def test_depth_mismatch_rejected(self):
        with pytest.raises(ValueError):
            metric((0,), (0, 1))

    def test_base_two_for_any_alphabet(self):
        assert metric((0, 2), (0, 1)) == 0.25

    def test_t_lipschitz_factor_two_exhaustive(self):
        # |t(x) - t(y)| <= 2 d(x,y) over every depth-10 binary pair; the
        # factor 2 is sharp (witness below), a plain d bound is false
        n = 10
        k = np.arange(2**n)
        kx, ky = np.meshgrid(k, k, indexing="ij")
        xor = kx ^ ky
        off = xor > 0
        b = np.floor(np.log2(xor[off])).astype(int)  # highest differing bit
        d = 2.0 ** (b - n)
        tdiff = np.abs(kx[off] - ky[off]) / 2**n
        assert np.all(tdiff <= 2 * d)
        assert np.max(tdiff / d) > 1.0  # d alone would not bound t

    def test_t_lipschitz_sharp_witness(self):
        x, y = (0, 0), (1, 1)
        tdiff = abs(t_exact(x, 2) - t_exact(y, 2))
        assert tdiff == Fraction(3, 4)
        assert tdiff > metric(x, y)
        assert tdiff <= 2 * metric(x, y)

    @given(words_st, st.data())
    def test_t_lipschitz_factor_two_random(self, case, data):
        m, x = case
        y = tuple(data.draw(st.lists(st.integers(0, m - 1),
                                     min_size=len(x), max_size=len(x))))
        tdiff = abs(t_exact(x, m) - t_exact(y, m))
        assert float(tdiff) <= 2 * metric(x, y)


class TestLex:
    def test_agrees_with_index_order(self):
        # so the CSV's word column sorts in row order
        m, n = 3, 4
        for x, y in itertools.product(all_words(n, m), repeat=2):
            kx, ky = word_index(x, m), word_index(y, m)
            assert (x > y) - (x < y) == np.sign(kx - ky)
            sx, sy = digits(kx, m, n), digits(ky, m, n)
            assert (sx > sy) - (sx < sy) == np.sign(kx - ky)


class TestPreimages:
    def test_examples(self):
        assert shift_preimages((0, 0), 2) == [(0, 0), (1, 0)]
        assert shift_preimages((1, 0, 1), 2) == [(0, 1, 0), (1, 1, 0)]
        assert shift_preimages((2,), 3) == [(0,), (1,), (2,)]

    @given(words_st)
    def test_t_values_shift_relation(self, case):
        # t(a . w') = a/m + t(w')/m, with w' = w minus its last letter: the
        # preimage indices a m^(n-1) + k // m that dense_matrix fills
        m, w = case
        n, k = len(w), word_index(w, m)
        pre = shift_preimages(w, m)
        assert [t_exact(u, m) for u in pre] == [
            Fraction(a, m) + t_exact(w[:-1], m) / m for a in range(m)]
        assert [word_index(u, m) for u in pre] == [
            a * m ** (n - 1) + k // m for a in range(m)]

    @given(words_st)
    def test_count_and_depth(self, case):
        m, w = case
        pre = shift_preimages(w, m)
        assert len(pre) == m
        assert all(len(u) == len(w) for u in pre)


def tail_time(u: tuple, m: int) -> Fraction:
    """t(u . (m-1)^inf): the tail adds sum_{i > n} (m-1) m^-i = m^-n."""
    return t_exact(u, m) + Fraction(1, m ** len(u))


class TestTwin:
    # the point k / m^n has two sequences, w . 0^inf with w of index k and
    # u . (m-1)^inf with u of index k - 1; skorokhod's left limits and
    # theta_inverse's terminal value are read on the second

    def test_half_point(self):
        assert tail_time((0, 1, 1), 2) == t_exact((1, 0, 0), 2) == Fraction(1, 2)
        assert digits(4 - 1, 2, 3) == "011"

    def test_zero_has_no_twin(self):
        for m, n in ((2, 4), (3, 3)):
            assert all(tail_time(u, m) > 0 for u in all_words(n, m))

    def test_quarter_point(self):
        assert tail_time((0, 0), 2) == t_exact((0, 1), 2) == Fraction(1, 4)

    @given(words_st)
    def test_twin_pair_represents_same_point(self, case):
        m, w = case
        k, n = word_index(w, m), len(w)
        if k == 0:
            return
        u = tuple(int(c) for c in digits(k - 1, m, n))
        assert tail_time(u, m) == t_exact(w, m) == Fraction(k, m**n)

    def test_twin_is_index_predecessor(self):
        # exhaustive: u . (m-1)^inf lands on the grid point of index(u) + 1
        for m, n in ((2, 5), (3, 3)):
            for u in all_words(n, m):
                k = tail_time(u, m) * m**n
                assert k.denominator == 1
                assert word_index(u, m) == k - 1
