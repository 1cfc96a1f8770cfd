import itertools
import math
import sys
import warnings

import numpy as np
import pytest

from oracles import (_reverse, dense_matrix, dense_perron, eigenmeasure,
                     functional_equation_residual, log_apply,
                     log_eigenmeasure, traced_peak)
from ruelle_rand import transfer
from ruelle_rand.brownian import sample
from ruelle_rand.skorokhod import CylinderFunction
from ruelle_rand.symbolic import Alphabet
from ruelle_rand.transfer import (DEFAULT_MAX_ITERS, DEFAULT_TOL,
                                  PotentialField, _perron_core, apply,
                                  build_potential,
                                  _eigenvalue, pathwise_bounds, power_iterate,
                                  ratio_representation)

B2 = Alphabet(2)
B3 = Alphabet(3)
B4 = Alphabet(4)


def seeded_potential(level, seed, beta=1.0, alphabet=B2):
    grid = sample(level, alphabet, seed)
    return build_potential(grid, beta), grid


def flat_potential(level, c, alphabet=B2):
    m = alphabet.m
    phi = np.full(m**level, float(c))
    phi[0] = 0.0 if c == 0 else phi[0]
    return PotentialField(level, alphabet, 1.0, phi)


class TestBuildPotential:
    def test_zero_noise(self):
        g = sample(5, B2, 3, zero_noise=True)
        assert not build_potential(g, 1.0).phi.any()

    def test_beta_zero(self):
        g = sample(5, B2, 3)
        assert not build_potential(g, 0.0).phi.any()

    def test_first_entry_always_zero(self):
        for seed in (1, 5, 9):
            assert build_potential(sample(6, B2, seed), 1.7).phi[0] == 0.0

    def test_left_endpoint_relabeling(self):
        g = sample(4, B3, 8)
        p = build_potential(g, 2.5)
        assert np.array_equal(p.phi, 2.5 * g.values[:-1])

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            build_potential(sample(3, B2, 1), -0.5)

    def test_nan_beta_rejected(self):
        with pytest.raises(ValueError):
            PotentialField(3, B2, math.nan, np.zeros(8))


class TestApply:
    def test_zero_potential_counts_preimages(self):
        potential = flat_potential(4, 0.0)
        ones = CylinderFunction(4, B2, np.ones(16))
        assert np.all(apply(potential, ones).values == 2.0)

    def test_constant_potential(self):
        c = 0.7
        phi = np.full(8, c)
        potential = PotentialField(3, B2, 1.0, phi)
        ones = CylinderFunction(3, B2, np.ones(8))
        assert np.allclose(apply(potential, ones).values, 2 * math.exp(c),
                           rtol=1e-15)

    def test_hand_expanded_2x2(self):
        phi = np.array([0.3, -0.2])
        potential = PotentialField(1, B2, 1.0, phi)
        f = CylinderFunction(1, B2, np.array([2.0, 5.0]))
        got = apply(potential, f).values
        expected = math.exp(0.3) * 2.0 + math.exp(-0.2) * 5.0
        assert got[0] == pytest.approx(expected, rel=1e-15)
        assert got[1] == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("alphabet,level,seed",
                             [(B2, 1, 0), (B2, 4, 1), (B2, 6, 2), (B3, 3, 3)])
    def test_matches_dense_matrix(self, alphabet, level, seed):
        potential, _ = seeded_potential(level, seed, alphabet=alphabet)
        A = dense_matrix(potential)
        rng = np.random.default_rng(seed + 100)
        f = rng.uniform(0.5, 2.0, size=alphabet.m**level)
        fast = apply(potential, CylinderFunction(level, alphabet, f)).values
        assert np.allclose(fast, A @ f, rtol=1e-13, atol=0)

    def test_log_domain_consistency(self):
        # the quotient log kernel against the linear operator, on a g that
        # is constant over the last letter
        potential, _ = seeded_potential(5, 11)
        rng = np.random.default_rng(0)
        G = rng.normal(size=16)
        f = CylinderFunction(5, B2, np.exp(np.repeat(G, 2)))
        direct = np.log(apply(potential, f).values)
        assert np.array_equal(direct[::2], direct[1::2])
        for shift in (0.0, 1.5):
            got = np.empty(16)
            for cells, S, _ in transfer._log_apply(potential, G, shift):
                got[cells] = S
            assert np.allclose(got, direct[::2] - shift, rtol=0, atol=1e-12)

    def test_level_mismatch_rejected(self):
        potential, _ = seeded_potential(3, 1)
        with pytest.raises(ValueError):
            apply(potential, CylinderFunction(4, B2, np.zeros(16)))

    def test_positivity_preserved(self):
        potential, _ = seeded_potential(6, 13)
        f = np.full(64, 1e-9)
        assert np.all(apply(potential, CylinderFunction(6, B2, f)).values > 0)


class TestPowerIterate:
    def test_zero_noise_exact(self):
        g = sample(8, B2, 5, zero_noise=True)
        potential = build_potential(g, 1.0)
        r = power_iterate(potential)
        assert r.eigenvalue == 2.0
        assert r.converged
        assert np.all(r.h.values == 1.0)
        assert np.allclose(eigenmeasure(potential)[0], 1 / 256, rtol=1e-12)
        assert r.residual == 0.0
        assert r.bracket == (2.0, 2.0)

    def test_constant_potential(self):
        r = power_iterate(flat_potential(5, 0.9))
        assert r.eigenvalue == pytest.approx(2 * math.exp(0.9), rel=1e-12)

    @pytest.mark.parametrize("alphabet,level,seed",
                             [(B2, 4, 21), (B2, 6, 22), (B2, 8, 23), (B3, 4, 24)])
    def test_matches_dense_eigensolver(self, alphabet, level, seed):
        potential, _ = seeded_potential(level, seed, alphabet=alphabet)
        r = power_iterate(potential)
        lam, h, nu = dense_perron(potential)
        assert r.converged
        assert abs(r.eigenvalue - lam) / lam <= 1e-9
        assert np.max(np.abs(r.h.values - h)) / np.max(np.abs(h)) <= 1e-8
        assert np.max(np.abs(eigenmeasure(potential)[0] - nu)) <= 1e-8

    def test_normalizations(self):
        potential, _ = seeded_potential(7, 31)
        r = power_iterate(potential)
        nu = eigenmeasure(potential)[0]
        assert r.h.values[0] == 1.0
        assert nu.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(r.h.values > 0) and np.all(nu > 0)
        assert r.eigenvalue > 1.0
        assert r.log_eigenvalue == pytest.approx(math.log(r.eigenvalue), rel=1e-14)

    def test_residual_meets_tolerance(self):
        potential, _ = seeded_potential(8, 41)
        r = power_iterate(potential)
        assert r.residual <= 1e-11

    def test_unconverged_flagged_not_raised(self):
        potential, _ = seeded_potential(8, 43)
        r = power_iterate(potential, max_iters=1)
        assert not r.converged
        assert r.iterations == 1
        assert r.residual > 1e-6  # negative control

    def test_max_iters_below_one_refused(self):
        potential, _ = seeded_potential(6, 0)
        for max_iters in (0, -1):
            with pytest.raises(ValueError, match="max_iters"):
                power_iterate(potential, max_iters=max_iters)

    def test_runs_the_right_core_once(self, monkeypatch):
        runs = []  # (potential, iterations) of every core run
        core = transfer._perron_core

        def counted(phi, *a):
            out = core(phi, *a)
            runs.append((phi, out[4]))
            return out
        monkeypatch.setattr(transfer, "_perron_core", counted)
        potential, _ = seeded_potential(10, 45)
        r = power_iterate(potential)
        [(phi, iters)] = runs
        assert phi is potential.phi
        assert r.converged and r.iterations == iters

    def test_h_and_residual_read_in_either_order(self):
        # both are formed from the read-only log_h, which neither changes
        for beta in (1.0, 400.0):
            potential, _ = seeded_potential(9, 44, beta=beta)
            first, second = power_iterate(potential), power_iterate(potential)
            assert not first.log_h.flags.writeable
            log_h = first.log_h.copy()
            h, residual = first.h.values, first.residual
            residual2, h2 = second.residual, second.h.values
            assert h.tobytes() == h2.tobytes()
            assert residual == residual2
            assert first.log_h.tobytes() == log_h.tobytes()

    def test_quotient_residual_and_h_bits(self, monkeypatch):
        # the residual and h formed on the m^(n-1) quotient words equal the
        # depth-n formulas bit for bit
        builds = []  # weight builds: more than one per solve means a fold
        scaled = transfer._scaled_weights
        monkeypatch.setattr(transfer, "_scaled_weights",
                            lambda *a: builds.append(1) or scaled(*a))
        folded = shifted = False
        for alphabet, levels in ((B2, (1, 2, 5, 9, 12)), (B3, (1, 2, 4, 7)),
                                 (Alphabet(5), (1, 3))):
            m = alphabet.m
            for n in levels:
                for beta in (0.5, 1.0, 10.0, 400.0):
                    potential, _ = seeded_potential(n, n + 7, beta=beta,
                                                    alphabet=alphabet)
                    del builds[:]
                    logH, _, _, _, _, _, shift_at = _perron_core(
                        potential.phi, m, n, DEFAULT_MAX_ITERS)
                    folded |= len(builds) > 1
                    shifted |= shift_at is not None
                    # h past float64 at beta = 400 overflows on both sides
                    with np.errstate(over="ignore"):
                        r = power_iterate(potential)
                        logh = np.repeat(logH, m)
                        g = logh - logh.max()
                        # log Lg at depth n: log-sum-exp over the preimages
                        A = (potential.phi + g).reshape(m, -1)
                        amax = A.max(axis=0)
                        Lg = np.repeat(
                            amax + np.log(np.exp(A - amax).sum(axis=0)), m)
                        want = float(np.max(np.abs(
                            np.exp(Lg - r.log_eigenvalue) - np.exp(g))))
                        h = np.exp(logh - logh[0])
                    case = (m, n, beta)
                    assert r.residual == want, case
                    assert r.h.values.tobytes() == h.tobytes(), case
        assert folded and shifted

    @pytest.mark.parametrize("alphabet,level,seed,beta",
                             [(B2, 10, 46, 1.0), (B3, 6, 47, 1.0),
                              (B2, 12, 0, 10.0)])
    def test_bracket_certifies_eigenvalue(self, alphabet, level, seed, beta):
        potential, _ = seeded_potential(level, seed, beta=beta,
                                        alphabet=alphabet)
        r = power_iterate(potential)
        lo, hi = r.bracket
        assert r.converged
        assert lo <= r.eigenvalue <= hi
        assert hi - lo <= DEFAULT_TOL * hi
        # the bracket is h's own Collatz-Wielandt bracket, up to rounding
        ratio = apply(potential, r.h).values / r.h.values
        assert ratio.min() == pytest.approx(lo, rel=1e-13)
        assert ratio.max() == pytest.approx(hi, rel=1e-13)

    @pytest.mark.parametrize("level", [1, 2])
    def test_shallow_levels(self, level):
        for alphabet in (B2, B3):
            potential, _ = seeded_potential(level, 48, alphabet=alphabet)
            r = power_iterate(potential)
            lam, h, nu = dense_perron(potential)
            assert r.converged
            assert abs(r.eigenvalue - lam) / lam <= 1e-9
            assert np.allclose(r.h.values, h, rtol=1e-9)
            assert np.allclose(eigenmeasure(potential)[0], nu, rtol=1e-9)

    def test_log_domain_large_beta_matches_dense(self):
        # beta * oscillation > 30: weights spanning more than 13 decades
        potential, _ = seeded_potential(4, 51, beta=50.0)
        assert potential.phi.max() - potential.phi.min() > 30
        r = power_iterate(potential)
        lam, _, _ = dense_perron(potential)
        assert r.converged
        assert abs(r.log_eigenvalue - math.log(lam)) <= 1e-9 * abs(math.log(lam)) + 1e-12

    def test_duality_discrete(self):
        potential, _ = seeded_potential(6, 61)
        r = power_iterate(potential)
        nu = eigenmeasure(potential)[0]
        rng = np.random.default_rng(5)
        f = rng.uniform(0.1, 3.0, size=64)
        lhs = float(apply(potential, CylinderFunction(6, B2, f)).values @ nu)
        rhs = float(r.eigenvalue * (f @ nu))
        assert abs(lhs - rhs) / abs(rhs) <= 10 * DEFAULT_TOL

    def test_scale_covariance(self):
        potential, _ = seeded_potential(6, 71)
        c = 0.8
        shifted = PotentialField(
            6, B2, potential.beta, np.array(potential.phi) + c)
        r0, r1 = power_iterate(potential), power_iterate(shifted)
        assert r1.eigenvalue == pytest.approx(r0.eigenvalue * math.exp(c), rel=1e-11)
        assert np.allclose(r1.h.values, r0.h.values, rtol=1e-10)

    def test_monotonicity_in_potential(self):
        potential, _ = seeded_potential(6, 81)
        rng = np.random.default_rng(9)
        bump = rng.uniform(0.0, 0.5, size=64)
        bigger = PotentialField(
            6, B2, 1.0, np.array(potential.phi) + bump)
        assert (power_iterate(potential).eigenvalue
                <= power_iterate(bigger).eigenvalue)


class TestMemory:
    # level 16 is one block of heads, level 18 four
    @pytest.mark.parametrize("level", [16, 18])
    def test_power_iterate_holds_three_vectors_besides_phi(self, level):
        # the weights, the two quotient iterates and h; the residual runs
        # block by block with no depth-n temporary
        power_iterate(seeded_potential(4, 1)[0])
        potential, _ = seeded_potential(level, 0)
        r, peak = traced_peak(power_iterate, potential)
        assert r.converged
        assert peak <= 3 * potential.phi.nbytes


class TestLogFloor:
    # the dense eigensolver fits in a few seconds up to 729 words, and its nu
    # is read only at beta <= 3, where no entry falls below its rounding;
    # elsewhere log nu comes from the reversed solve run in logs
    @pytest.mark.parametrize("m,n,beta", [(2, 8, 1.0), (2, 12, 1.0),
                                          (3, 6, 3.0), (2, 10, 30.0)])
    def test_below_log_nu(self, m, n, beta):
        for seed in range(4):
            potential, _ = seeded_potential(n, seed, beta, Alphabet(m))
            r = power_iterate(potential)
            assert r.converged
            phi = potential.phi
            assert r.log_floor == pytest.approx(
                n * (phi.min() - math.log(r.bracket[1])), rel=1e-13)
            log_nu = log_eigenmeasure(potential)
            assert r.log_floor < log_nu.min()
            assert r.log_floor < np.log(r.h.values / r.h.values.sum()).min()
            if m**n <= 729:
                nu = dense_perron(potential)[2]
                assert np.abs(np.exp(log_nu) - nu).sum() <= 1e-9
                assert r.log_floor < np.log(nu.min())

    def test_finite_where_lambda_overflows(self):
        # lambda and the bracket are inf here; the floor is formed in logs
        potential, _ = seeded_potential(10, 1, beta=700.0)
        r = power_iterate(potential)
        assert math.isinf(r.eigenvalue) and math.isinf(r.bracket[1])
        assert math.isfinite(r.log_floor)
        assert r.log_floor <= potential.level * (potential.phi.min()
                                         - r.log_eigenvalue)


class TestShift:
    def test_never_engages_at_unit_beta(self):
        # beta = 1 converges on the plain power step; a stall trigger that
        # fires here costs spectrum-deep 30-100% more iterations
        engaged = []
        for alphabet, levels in ((B2, range(8, 17)), (B3, range(5, 11))):
            m = alphabet.m
            for n in levels:
                for seed in range(16):
                    phi = seeded_potential(n, seed, alphabet=alphabet)[0].phi
                    for p in (phi, _reverse(phi, m, n)):
                        out = _perron_core(p, m, n, DEFAULT_MAX_ITERS)
                        if out[6] is not None or not out[5]:
                            engaged.append((m, n, seed, out[4:]))
        assert engaged == []

    def test_engages_on_the_near_cyclic_path(self):
        # spectrum --level 12 --seed 0 --beta 10: arg lambda_2 = pi
        phi = seeded_potential(12, 0, beta=10.0)[0].phi
        _, _, _, _, iters, ok, shift_at = _perron_core(
            phi, 2, 12, DEFAULT_MAX_ITERS)
        assert ok and shift_at is not None and shift_at >= 12 + 10
        assert iters < 200


def same_core(a, b):
    """Bit-identical _perron_core tuples."""
    return a[0].tobytes() == b[0].tobytes() and a[1:] == b[1:]


class TestBlocks:
    def test_block_size_changes_no_bit(self, monkeypatch):
        builds = []  # weight builds: more than one per solve means a fold
        scaled = transfer._scaled_weights
        monkeypatch.setattr(transfer, "_scaled_weights",
                            lambda *a: builds.append(1) or scaled(*a))
        default = transfer._BLOCK_HEADS

        def core(block, p, m, n):
            monkeypatch.setattr(transfer, "_BLOCK_HEADS", block)
            return _perron_core(p, m, n, 2000)

        cases = [(alphabet, n, 49, beta)
                 for alphabet, levels in ((B2, (1, 2, 9)), (B3, (1, 2, 6)),
                                          (B4, (1, 2, 5)))
                 for n in levels
                 for beta in (0.0, 1.0, 10.0, 40.0, 400.0)]
        cases.append((B2, 12, 0, 10.0))  # spectrum-hot's near-cyclic path
        folded = shifted = False
        for alphabet, n, seed, beta in cases:
            m = alphabet.m
            phi = seeded_potential(n, seed, beta=beta, alphabet=alphabet)[0].phi
            for p in (phi, _reverse(phi, m, n)):
                del builds[:]
                ref = core(default, p, m, n)
                folded |= len(builds) > 1
                shifted |= ref[6] is not None
                for block in (1, 2, 3, 7):
                    assert same_core(core(block, p, m, n), ref), (m, n, beta)
        assert folded and shifted

    def test_deep_path_spans_blocks(self, monkeypatch):
        phi = seeded_potential(18, 50)[0].phi
        assert 2**16 > 2 * transfer._BLOCK_HEADS  # level 18 has 2^16 heads
        out = _perron_core(phi, 2, 18, DEFAULT_MAX_ITERS)
        monkeypatch.setattr(transfer, "_BLOCK_HEADS", 2**30)
        assert out[5]
        assert same_core(
            out, _perron_core(phi, 2, 18, DEFAULT_MAX_ITERS))


class TestWindow:
    def test_window_changes_no_bit(self, monkeypatch):
        # each application's input F and output S, as digests
        applied = []
        einsum = np.einsum

        def recorded(spec, w, heads, out):
            einsum(spec, w, heads, out=out)
            src = np.ascontiguousarray(heads).ravel()[:out.size]
            dst = np.ascontiguousarray(out.T).ravel()
            applied.append((hash(src.tobytes()), hash(dst.tobytes())))

        folds = []  # applications made before each weight rebuild
        scaled = transfer._scaled_weights
        monkeypatch.setattr(np, "einsum", recorded)
        monkeypatch.setattr(transfer, "_scaled_weights",
                            lambda *a: folds.append(len(applied)) or scaled(*a))

        guess = transfer._window_length

        def core(window, cells, p, m, n, max_iters, full=False):
            # full: every window runs its whole length, whatever the guess
            monkeypatch.setattr(transfer, "_WINDOW", window)
            monkeypatch.setattr(transfer, "_WINDOW_CELLS", cells)
            monkeypatch.setattr(transfer, "_window_length",
                                (lambda k, *_: k) if full else guess)
            del applied[:], folds[:]
            return _perron_core(p, m, n, max_iters)

        def events(ref, calls, rebuilds, max_iters):
            """(iteration, kind) of every decision of the one-application
            run ref that ends a window: each fold, renormalization and the
            stall-shift before the shifted update, and the stop."""
            iters, ok, shift_at = ref[4:]
            out = [(j, "fold") for j in rebuilds[1:]
                   if shift_at is None or j <= shift_at]
            end = iters if shift_at is None else shift_at
            out += [(j, "renormalization") for j in range(1, end)
                    if j not in rebuilds and calls[j][0] != calls[j - 1][1]]
            if shift_at is not None:
                out.append((shift_at, "shift"))
            stop = ("converged" if ok else
                    "max_iters" if iters == max_iters else "breakdown")
            return out + [(iters, stop)]

        cases = [(alphabet, n, 49, beta)
                 for alphabet, levels in ((B2, (1, 2, 9)), (B3, (1, 2, 6)),
                                          (B4, (1, 2, 5)))
                 for n in levels
                 for beta in (0.0, 1.0, 10.0, 40.0, 400.0)]
        cases.append((B2, 12, 0, 10.0))  # spectrum-hot's near-cyclic path
        inside = set()  # kinds of decision met strictly inside a window
        for alphabet, n, seed, beta in cases:
            m = alphabet.m
            phi = seeded_potential(n, seed, beta=beta, alphabet=alphabet)[0].phi
            for p in (phi, _reverse(phi, m, n)):
                for max_iters in (7, 2000):
                    ref = core(8, 0, p, m, n, max_iters)
                    calls, rebuilds = list(applied), list(folds)
                    assert len(calls) == ref[4]
                    for window, full in itertools.product((1, 2, 3, 8),
                                                          (False, True)):
                        got = core(window, 2**30, p, m, n, max_iters, full)
                        assert same_core(got, ref), (m, n, beta, window, full)
                        # a decision at iteration j fell strictly inside a
                        # window if an application read S_j as the
                        # one-application run's application j left it
                        read = {src for src, _ in applied}
                        inside.update(
                            kind for j, kind in events(ref, calls, rebuilds,
                                                       max_iters)
                            if calls[j - 1][1] in read)
        # a max_iters stop ends its window, never falls inside one
        # (test_no_application_past_max_iters)
        assert {"fold", "renormalization", "shift", "converged"} <= inside, \
            inside

    def test_no_application_past_max_iters(self, monkeypatch):
        # every contraction is an iteration: a window that max_iters cuts
        # short runs no application past it
        contractions = []
        einsum = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *a, **kw: (
            contractions.append(1) or einsum(*a, **kw)))
        phi = seeded_potential(10, 0)[0].phi
        for max_iters in (1, 2, 3, 7):
            del contractions[:]
            out = _perron_core(phi, 2, 10, max_iters)
            assert not out[5] and out[4] == max_iters
            assert len(contractions) == max_iters, max_iters


class TestPerronEigenvalue:
    def test_bits_of_power_iterate(self, monkeypatch):
        builds = []  # weight builds: more than one per solve means a fold
        scaled = transfer._scaled_weights
        monkeypatch.setattr(transfer, "_scaled_weights",
                            lambda *a: builds.append(1) or scaled(*a))
        folded = shifted = False
        for alphabet in (B2, B3):
            m = alphabet.m
            for n in range(1, 13):
                for beta in (0.0, 0.5, 1.0, 3.0, 10.0, 40.0, 400.0):
                    potential, _ = seeded_potential(n, n, beta=beta,
                                                    alphabet=alphabet)
                    del builds[:]
                    got = power_iterate(potential)
                    folded |= beta == 400.0 and len(builds) > 1
                    core = _perron_core(potential.phi, m, n,
                                        DEFAULT_MAX_ITERS)
                    shifted |= core[6] is not None
                    lam, llam, bracket = _eigenvalue(*core[1:4])
                    case = (m, n, beta)
                    assert got.eigenvalue == lam, case
                    assert got.log_eigenvalue == llam, case
                    assert got.bracket == bracket, case
                    assert got.converged == core[5], case
                    assert got.iterations == core[4], case
        assert folded and shifted

    def test_unconverged_flagged_not_raised(self):
        potential, _ = seeded_potential(8, 5)
        got = power_iterate(potential, max_iters=2)
        core = _perron_core(potential.phi, 2, 8, 2)
        assert not got.converged and got.iterations == 2
        assert not core[5] and core[4] == 2
        assert (got.eigenvalue, got.log_eigenvalue, got.bracket) == \
            _eigenvalue(*core[1:4])

    def test_finite_where_the_core_scale_overflows(self):
        # the core's e^c is past float64 while lambda = e^616.73 is not
        potential, _ = seeded_potential(8, 14232521865600346940, beta=700.0)
        c, lo, hi = _perron_core(potential.phi, 2, 8, DEFAULT_MAX_ITERS)[1:4]
        assert c > math.log(sys.float_info.max) and (lo + hi) / 2 < 1
        r = power_iterate(potential)
        assert r.converged
        assert r.log_eigenvalue == pytest.approx(616.73, abs=0.01)
        assert r.eigenvalue == pytest.approx(math.exp(r.log_eigenvalue),
                                             rel=1e-14)
        # each bracket end is exp of its own log, so it carries that
        # rounding on top of the core's width
        assert r.bracket == pytest.approx(
            (math.exp(c + math.log(lo)), math.exp(c + math.log(hi))),
            rel=1e-14)
        assert r.bracket[0] <= r.eigenvalue <= r.bracket[1]

    def test_zero_bracket_end_is_no_warning(self):
        # an unconverged core may stop with lo = 0; past e^c's range the
        # bracket end is then 0, with no divide-by-zero warning
        lam, llam, bracket = _eigenvalue(710.0, 0.0, 0.5)
        assert llam == 710.0 + math.log(0.25)
        assert lam == pytest.approx(math.exp(llam), rel=1e-14)
        assert bracket[0] == 0.0
        assert bracket[1] == pytest.approx(math.exp(710.0 + math.log(0.5)),
                                           rel=1e-14)


class TestRatioIdentity:
    def test_zero_potential_gives_two(self):
        g = sample(6, B2, 1, zero_noise=True)
        potential = build_potential(g, 1.0)
        r = power_iterate(potential)
        assert ratio_representation(potential, r) == pytest.approx(
            2.0, rel=1e-14)

    @pytest.mark.parametrize("seed", [101, 102, 103])
    def test_exact_identity_at_depth(self, seed):
        potential, g = seeded_potential(12, seed)
        r = power_iterate(potential)
        ratio = ratio_representation(potential, r)
        gap = abs(ratio - r.eigenvalue) / r.eigenvalue
        assert gap <= 10 * DEFAULT_TOL

    def test_trinary_identity(self):
        potential, g = seeded_potential(6, 104, alphabet=B3)
        r = power_iterate(potential)
        ratio = ratio_representation(potential, r)
        gap = abs(ratio - r.eigenvalue) / r.eigenvalue
        assert gap <= 10 * DEFAULT_TOL

    def test_iterate_form_converges(self):
        # 1 + e^{B_1/2} (L^k 1)[10^(n-1)] / (L^k 1)[0^n] -> lambda
        potential, g = seeded_potential(8, 105)
        r = power_iterate(potential)
        glog = np.zeros(256)
        for _ in range(200):
            glog = log_apply(potential, glog)
            glog -= glog.max()
        est = 1 + math.exp(g.values[128]) * math.exp(glog[128] - glog[0])
        assert abs(est - r.eigenvalue) / r.eigenvalue <= 1e-6


class TestFunctionalEquation:
    def test_zero_potential(self):
        g = sample(5, B2, 1, zero_noise=True)
        potential = build_potential(g, 1.0)
        r = power_iterate(potential)
        assert functional_equation_residual(potential, r, g) <= 1e-14

    @pytest.mark.parametrize("alphabet,seed", [(B2, 111), (B2, 112), (B3, 113)])
    def test_converged_replicas(self, alphabet, seed):
        potential, g = seeded_potential(8 if alphabet.m == 2 else 5, seed,
                                        alphabet=alphabet)
        r = power_iterate(potential)
        assert functional_equation_residual(potential, r, g) <= 10 * DEFAULT_TOL

    def test_unconverged_negative_control(self):
        potential, g = seeded_potential(8, 114)
        r = power_iterate(potential, max_iters=1)
        assert functional_equation_residual(potential, r, g) > DEFAULT_TOL

    def test_agrees_with_the_solve_residual(self):
        # the same eigen-equation on the quotient words: equal to rounding
        # after 3 applications, and within a few percent at the roundoff
        # level a converged solve leaves
        for m, levels in ((2, range(2, 9)), (3, range(2, 6)), (5, (2, 3, 4))):
            for n in levels:
                for beta in (0.5, 1.0, 3.0, 10.0):
                    for seed in range(3):
                        p, g = seeded_potential(n, seed, beta, Alphabet(m))
                        early = power_iterate(p, max_iters=3)
                        assert functional_equation_residual(p, early, g) == \
                            pytest.approx(early.residual, rel=1e-9)
                        r = power_iterate(p)
                        assert r.converged
                        gap = math.log(functional_equation_residual(p, r, g)
                                       / r.residual)
                        assert abs(gap) <= 0.05, (m, n, beta, seed)


class TestPathwiseBounds:
    def test_zero_noise_equality(self):
        g = sample(6, B2, 1, zero_noise=True)
        potential = build_potential(g, 1.0)
        r = power_iterate(potential)
        b = pathwise_bounds(potential, r, float(np.max(g.values)))
        assert b["lower_ok"] and b["upper_ok"]

    def test_seeded_batch_all_hold(self):
        for seed in range(200):
            potential, g = seeded_potential(8, 1000 + seed)
            r = power_iterate(potential)
            b = pathwise_bounds(potential, r, float(np.max(g.values)))
            assert b["lower_ok"] and b["upper_ok"]

    @pytest.mark.parametrize("seed", [121, 122])
    def test_bounds_bracket_dense_eigenvalue(self, seed):
        potential, g = seeded_potential(6, seed)
        lam, _, _ = dense_perron(potential)
        diag = math.exp(max(potential.phi[0], potential.phi[-1]))
        upper = 2 * math.exp(float(np.max(g.values)))
        assert diag <= lam <= upper

    def test_no_overflow_warning_at_large_beta(self):
        overflowed = False
        for seed in range(8):
            potential, g = seeded_potential(6, seed, beta=1000.0)
            r = power_iterate(potential)
            if not r.converged:
                continue
            # e^(beta max B) past float64
            overflowed |= 1000.0 * float(np.max(g.values)) > 710
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                b = pathwise_bounds(potential, r, float(np.max(g.values)))
            assert b["lower_ok"] and b["upper_ok"], seed
        assert overflowed

    def test_diagonal_words_trinary(self):
        # constant words are the fixed points; check the lower bound uses
        # exactly their weights
        potential, g = seeded_potential(4, 123, alphabet=B3)
        r = power_iterate(potential)
        phis = potential.phi
        diag = max(math.exp(phis[0]), math.exp(phis[40]), math.exp(phis[80]))
        assert r.eigenvalue >= diag * (1 - 1e-12)
