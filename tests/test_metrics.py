import os
import queue
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    GOLAY_SEEDS, direct_acf, golay_pair, masked_weights, random_pulse, turyn_pair,
)
from ofdmforge import (
    GAConfig,
    PhaseCodeMatrix,
    PhaseEvaluator,
    PulseSpec,
    SparsityMask,
    WeightVector,
    autocorrelation,
    islr,
    newman_phases,
    noncoded_phases,
    pmepr,
    pslr,
    random_mask,
    random_phases,
    sga_phases,
    synthesize,
    uniform_weights,
)
from ofdmforge import metrics
from ofdmforge.errors import DegeneratePulseError, UndefinedSidelobesError
from ofdmforge.metrics import _real_idft

TWO_PI = 2 * np.pi


def full_band(n, k, oversampling, codes):
    spec = PulseSpec(n, k, 1e5, oversampling)
    if n == 1:  # a sparsity mask needs two extremes; single tones go bare
        return synthesize(spec, codes, WeightVector(np.ones(1)))
    mask = SparsityMask.full(n)
    return synthesize(spec, codes, uniform_weights(mask), mask)


class TestPmepr:
    def test_single_tone_is_one(self):
        pulse = full_band(1, 1, 16, PhaseCodeMatrix(np.array([[1.2]])))
        assert pmepr(pulse) == pytest.approx(1.0, abs=1e-12)

    def test_noncoded_equals_subcarrier_count(self):
        pulse = full_band(100, 1, 20, noncoded_phases(100))
        assert pmepr(pulse) == pytest.approx(100.0, rel=1e-9)

    def test_newman_band(self):
        pulse = full_band(100, 1, 20, newman_phases(100))
        assert pmepr(pulse) == pytest.approx(1.8, abs=0.15)

    def test_zero_energy_rejected(self):
        with pytest.raises(DegeneratePulseError):
            pmepr(np.zeros(2, dtype=complex))


class TestAutocorrelation:
    def test_zero_lag_is_plain_sample_energy(self):
        rng = np.random.default_rng(0)
        _, x = random_pulse(rng)
        acf = autocorrelation(x)
        m = len(x)
        assert len(acf) == 2 * m - 1
        assert np.argmax(np.abs(acf)) == m - 1
        expected = np.sum(np.abs(x) ** 2)
        assert np.abs(acf[m - 1]) == pytest.approx(expected, rel=1e-12)

    def test_two_sample_pulse_hand_computed(self):
        acf = autocorrelation(np.array([1.0, 1.0]) / np.sqrt(2))
        assert np.allclose(np.abs(acf), [0.5, 1.0, 0.5], atol=1e-12)
        assert len(acf) == 3 and np.argmax(np.abs(acf)) == 1

    def test_oversampled_tracks_critical_acf(self):
        # the critical-rate ACF is a coarse Riemann sum of the same
        # correlation; normalized curves agree exactly at symbol-aligned
        # lags and closely in between
        rng = np.random.default_rng(0)
        phases = PhaseCodeMatrix(rng.uniform(0, TWO_PI, (3, 3)))
        a1 = autocorrelation(full_band(3, 3, 1, phases))
        a20 = autocorrelation(full_band(3, 3, 20, phases))
        c1, c20 = len(a1) // 2, len(a20) // 2
        r1 = np.abs(a1) / np.abs(a1[c1])
        r20 = np.abs(a20) / np.abs(a20[c20])
        for m in range(-8, 9):
            if m % 3 == 0:
                assert r20[c20 + 20 * m] == pytest.approx(r1[c1 + m], abs=1e-9)
            else:
                assert r20[c20 + 20 * m] == pytest.approx(r1[c1 + m], abs=0.15)

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_fft_path_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        _, x = random_pulse(rng, n=int(rng.integers(2, 10)), k=1,
                            oversampling=int(rng.integers(1, 6)))
        assert len(x) <= 512
        got = autocorrelation(x)
        want = direct_acf(x)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_magnitude_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        acf = autocorrelation(random_pulse(rng)[1])
        mags = np.abs(acf)
        assert np.allclose(mags, mags[::-1], atol=1e-9 * mags.max())


def thumbtack_series(side_level: float, n_side: int, min_lag: int):
    """Synthetic ACF array: unit peak plus n_side sidelobes per wing at side_level."""
    center = min_lag + n_side
    values = np.zeros(2 * center + 1, dtype=complex)
    values[center] = 1.0
    for i in range(n_side):
        values[center + min_lag + i] = side_level
        values[center - min_lag - i] = side_level
    return values


class TestSidelobeMetrics:
    def test_undefined_for_single_symbol_single_carrier(self):
        acf = autocorrelation(full_band(1, 1, 20, PhaseCodeMatrix(np.array([[0.0]]))))
        spec = PulseSpec(1, 1, 1e5, 20)
        with pytest.raises(UndefinedSidelobesError):
            pslr(acf, spec)
        with pytest.raises(UndefinedSidelobesError):
            islr(acf, spec)

    def test_thumbtack_pslr(self):
        spec = PulseSpec(4, 1, 1e5, 1)  # exclusion: |lag| < 1
        acf = thumbtack_series(0.1, 1, 1)
        assert pslr(acf, spec) == pytest.approx(-20.0, abs=1e-9)

    def test_thumbtack_islr_two_sidelobes(self):
        spec = PulseSpec(4, 1, 1e5, 1)
        acf = thumbtack_series(0.1, 1, 1)
        assert islr(acf, spec) == pytest.approx(20 * np.log10(0.2), abs=1e-9)

    def test_islr_at_least_pslr(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            spec, x = random_pulse(rng, n=int(rng.integers(3, 10)), k=int(rng.integers(1, 3)))
            acf = autocorrelation(x)
            assert islr(acf, spec) >= pslr(acf, spec) - 1e-12

    def test_random_population_pslr_band(self):
        # Monte-Carlo oracle band for N=25, K=4 random codes, regenerated at
        # build time: mean PSLR sits near -13.6 dB (sd ~0.8)
        rng = np.random.default_rng(11)
        spec = PulseSpec(25, 4, 1e5, 20)
        mask = SparsityMask.full(25)
        w = uniform_weights(mask)
        vals = []
        for _ in range(60):
            pulse = synthesize(spec, random_phases(25, 4, rng), w, mask)
            vals.append(pslr(autocorrelation(pulse), spec))
        assert -14.5 < np.mean(vals) < -12.5

    def test_random_population_islr_band(self):
        # same protocol for ISLR of N=100 random codes on the oversampled
        # lag grid: mean near 43.5 dB (sd ~0.6)
        rng = np.random.default_rng(12)
        spec = PulseSpec(100, 1, 1e5, 20)
        mask = SparsityMask.full(100)
        w = uniform_weights(mask)
        vals = []
        for _ in range(50):
            pulse = synthesize(spec, random_phases(100, 1, rng), w, mask)
            vals.append(islr(autocorrelation(pulse), spec))
        vals = np.array(vals)
        assert np.all((41.0 < vals) & (vals < 46.0))
        assert 42.5 < vals.mean() < 44.5


class TestPmeprInvariances:
    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), shift=st.floats(0.0, 6.0))
    def test_global_phase_invariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        phases = rng.uniform(0, TWO_PI, (6, 1))
        a = full_band(6, 1, 8, PhaseCodeMatrix(phases))
        b = full_band(6, 1, 8, PhaseCodeMatrix(phases + shift))
        assert pmepr(a) == pytest.approx(pmepr(b), rel=1e-9)

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
    def test_rescaling_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        _, x = random_pulse(rng)
        assert pmepr(x * scale) == pytest.approx(pmepr(x), rel=1e-9)

    def test_oversampling_never_decreases_pmepr(self):
        rng = np.random.default_rng(9)
        drifts = []
        for _ in range(20):
            phases = PhaseCodeMatrix(rng.uniform(0, TWO_PI, (8, 1)))
            p1 = full_band(8, 1, 1, phases)
            p20 = full_band(8, 1, 20, phases)
            assert pmepr(p20) >= pmepr(p1) - 1e-12
            m1 = np.mean(np.abs(p1) ** 2) * PulseSpec(8, 1, 1e5, 1).sample_period_s * len(p1)
            m20 = np.mean(np.abs(p20) ** 2) * PulseSpec(8, 1, 1e5, 20).sample_period_s * len(p20)
            drifts.append(m20 - m1)
        # mean drift is reported, not asserted
        print(f"mean power drift L=1 -> L=20: {np.mean(drifts):.3e}")


def flat_evaluator(n, k, oversampling):
    """Evaluator of n equally weighted subcarriers over k symbols."""
    return PhaseEvaluator(PulseSpec(n, k, 1e5, oversampling), WeightVector(np.ones(n)))


def assert_complementary(a, b):
    """The aperiodic ACFs of a and b sum to 2N at lag 0 and to 0 elsewhere."""
    n = len(a)
    total = direct_acf(a.astype(complex)) + direct_acf(b.astype(complex))
    expected = np.zeros(2 * n - 1)
    expected[n - 1] = 2 * n
    assert np.array_equal(total, expected)  # integer sums, exact


# the pairs the PMEPR bound is checked on: every Golay seed doubled 0-3
# times, and the Turyn product of the length-10 pair with itself (N = 100)
TURYN_100 = turyn_pair(*golay_pair(1, 0), *golay_pair(1, 0))
COMPLEMENTARY_PAIRS = [
    *(golay_pair(seed, d) for seed in range(len(GOLAY_SEEDS)) for d in range(4)), TURYN_100,
]


class TestPmeprTheorems:
    """Bounds any correct PMEPR must meet, whatever sums compute it."""

    @pytest.mark.parametrize("doublings", range(4))
    @pytest.mark.parametrize("seed", range(len(GOLAY_SEEDS)))
    def test_golay_pairs_are_complementary(self, seed, doublings):
        a, b = golay_pair(seed, doublings)
        assert len(a) == len(GOLAY_SEEDS[seed][0]) * 2**doublings
        assert_complementary(a, b)

    def test_turyn_product_is_complementary(self):
        e, f = TURYN_100
        assert len(e) == len(f) == 100
        assert np.all(np.abs(np.concatenate(TURYN_100)) == 1.0)
        assert_complementary(e, f)

    @settings(deadline=None, max_examples=80)
    @given(
        pair=st.sampled_from(COMPLEMENTARY_PAIRS),
        member=st.integers(0, 1),
        oversampling=st.integers(1, 20),
        offset=st.floats(-10.0, 10.0),
    )
    def test_golay_codes_have_pmepr_at_most_two(self, pair, member, oversampling, offset):
        code = pair[member]
        phases = np.where(code > 0, 0.0, np.pi) + offset
        evaluator = flat_evaluator(len(code), 1, oversampling)
        assert evaluator.pmepr(phases[None, :, None])[0] <= 2.0 * (1 + 1e-12)

    @settings(deadline=None, max_examples=80)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([3, 8, 25]),
        k=st.integers(1, 2),
        oversampling=st.integers(1, 8),
        factor=st.integers(2, 5),
        other=st.integers(1, 40),
    )
    def test_sampled_pmepr_brackets_the_envelope_peak(self, seed, n, k, oversampling, factor,
                                                      other):
        # every sample grid of L points a chip lies on the one of each
        # multiple of L, and for L >= 2 no peak between samples exceeds the
        # largest sample by more than 1/cos(pi/(2L)) (Ehlich & Zeller, 1964)
        phases = np.random.default_rng(seed).uniform(0, TWO_PI, (20, n, k))
        coarse = flat_evaluator(n, k, oversampling).pmepr(phases)
        fine = flat_evaluator(n, k, oversampling * factor).pmepr(phases)
        assert np.all(coarse <= fine * (1 + 1e-12))
        if oversampling >= 2:
            bound = coarse / np.cos(np.pi / (2 * oversampling)) ** 2 * (1 + 1e-12)
            for ell in (oversampling * factor, other):
                assert np.all(flat_evaluator(n, k, ell).pmepr(phases) <= bound)


def direct_pmepr(spec, phases, weights, mask):
    """PMEPR of one pulse from the direct O(N*M) subcarrier sum
    x[t] = sum_n c_n exp(2j*pi*n*t/S) over every sample t of every symbol."""
    n, s = spec.n_subcarriers, spec.samples_per_symbol
    w = weights.weights if mask is None else np.where(mask.active, weights.weights, 0.0)
    codes = w[:, None] * np.exp(1j * np.asarray(phases))  # (N, K)
    # the exponent n*t reduced mod S in integers, so every term is accurate
    kernel = np.exp(2j * np.pi * (np.outer(np.arange(s), np.arange(n)) % s) / s)
    power = np.abs(kernel @ codes) ** 2  # (S, K)
    return power.max() / power.mean()


def direct_objectives(spec, phases, weights, mask):
    """(pmepr, pslr_db, islr_db) of one pulse: PMEPR from the direct
    subcarrier sum, sidelobes from the O(M^2) ACF of the synthesized samples."""
    acf = direct_acf(synthesize(spec, PhaseCodeMatrix(phases), weights, mask))
    return direct_pmepr(spec, phases, weights, mask), pslr(acf, spec), islr(acf, spec)


def budget_rows(monkeypatch, spec, rows):
    """Shrink the evaluator's block budget to ``rows`` genomes of ``spec``,
    so that small batches span several blocks."""
    genome_bytes = 16 * spec.n_symbols * spec.samples_per_symbol
    monkeypatch.setattr(metrics, "_BLOCK_BYTES", rows * genome_bytes)


def use_cpus(monkeypatch, cpus):
    """Make the evaluator see ``cpus`` CPUs in the process's affinity set."""
    # raising=False: a platform without affinity masks has no such function
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def count_splits(monkeypatch) -> list:
    """Record each block the evaluator hands to its worker thread."""
    splits, both = [], metrics._on_both_threads
    monkeypatch.setattr(metrics, "_on_both_threads",
                        lambda low, high: splits.append(1) or both(low, high))
    return splits


def assert_same_pmepr(got, want):
    """PMEPRs agree with the direct-sum oracle to 1e-12 relative."""
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def assert_same_sidelobes(got_db, want_db):
    """Sidelobe-to-peak ratios agree to 1e-9 relative (dB values can sit at 0)."""
    assert np.allclose(10 ** (got_db / 20), 10 ** (want_db / 20), rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("n", [1, 2, 7, 100])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("oversampling", [1, 4, 20])
def test_pmepr_matches_direct_sum(monkeypatch, n, k, oversampling):
    # the evaluator's polyphase kernel (pmepr, and the objectives column) and
    # the per-pulse pmepr(synthesize(...)) against the direct sum; 10 genomes
    # span three 4-genome blocks, and from N = 7 on the mask is sparse
    rng = np.random.default_rng(100 * n + 10 * k + oversampling)
    spec = PulseSpec(n, k, 1e5, oversampling)
    budget_rows(monkeypatch, spec, 4)
    mask = random_mask(n, 0.5, rng) if n >= 7 else None
    weights = WeightVector(rng.uniform(0.05, 2.0, n))
    phases = rng.uniform(-TWO_PI, 2 * TWO_PI, (10, n, k))
    want = [direct_pmepr(spec, np.mod(p, TWO_PI), weights, mask) for p in phases]
    evaluator = PhaseEvaluator(spec, masked_weights(weights, mask))
    assert_same_pmepr(evaluator.pmepr(phases), want)
    if n > 1 or k > 1:  # one tone in one symbol has no sidelobes
        # objectives takes PMEPR from the same kernel as pmepr, for every K
        assert np.array_equal(evaluator.objectives(phases)[:, 0], evaluator.pmepr(phases))
    per_pulse = [pmepr(synthesize(spec, PhaseCodeMatrix(p), weights, mask)) for p in phases]
    assert_same_pmepr(per_pulse, want)


def assert_closed_form(monkeypatch, n, k, oversampling, count, sparse):
    """``objectives`` of ``count`` random genomes, in blocks of 4, against
    the direct-sum PMEPR and the O(M^2) ACF of the synthesized samples."""
    rng = np.random.default_rng(n * oversampling + 1000 * (k - 1))
    spec = PulseSpec(n, k, 1e5, oversampling)
    budget_rows(monkeypatch, spec, 4)
    mask = random_mask(n, 0.5, rng) if sparse else None
    weights = WeightVector(rng.uniform(0.05, 2.0, n) if sparse else np.ones(n))
    phases = rng.uniform(0, TWO_PI, (count, n, k))
    got = PhaseEvaluator(spec, masked_weights(weights, mask)).objectives(phases)
    want = np.array([direct_objectives(spec, p, weights, mask) for p in phases])
    assert_same_pmepr(got[:, 0], want[:, 0])
    assert_same_sidelobes(got[:, 1:], want[:, 1:])


class TestPhaseEvaluator:
    """The batched evaluator against per-pulse synthesis and the direct ACF."""

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_per_pulse_oracles(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, 4))
        spec = PulseSpec(n, k, 1e5, int(rng.integers(1, 5)))
        mask = random_mask(n, int(rng.integers(2, n + 1)) / n, rng)
        weights = WeightVector(rng.uniform(0.05, 2.0, n))
        phases = rng.uniform(-TWO_PI, 2 * TWO_PI, (int(rng.integers(1, 20)), n, k))

        evaluator = PhaseEvaluator(spec, masked_weights(weights, mask))
        got = evaluator.objectives(phases)
        want = np.array([direct_objectives(spec, p, weights, mask) for p in phases])
        assert got.shape == (len(phases), 3)
        # PMEPR agrees with the direct sum, on both paths
        assert_same_pmepr(got[:, 0], want[:, 0])
        assert_same_pmepr(evaluator.pmepr(phases), want[:, 0])
        assert_same_sidelobes(got[:, 1:], want[:, 1:])

    @pytest.mark.parametrize("k", [1, 3])
    def test_inactive_phases_change_no_bit(self, k):
        # ``active`` marks the nonzero effective weights; the other codes are
        # +-0 whatever their phase, so every score is the same bits
        rng = np.random.default_rng(k)
        spec = PulseSpec(12, k, 1e5, 4)
        mask = random_mask(12, 0.5, rng)
        weights = masked_weights(WeightVector(rng.uniform(0.05, 2.0, 12)), mask)
        evaluator = PhaseEvaluator(spec, weights)
        assert np.array_equal(evaluator.active, mask.active)
        assert not evaluator.active.flags.writeable
        phases = rng.uniform(0, TWO_PI, (10, 12, k))
        moved = phases.copy()
        moved[:, ~mask.active] = rng.uniform(0, TWO_PI, (10, 12 - mask.n_active, k))
        assert np.array_equal(evaluator.pmepr(moved), evaluator.pmepr(phases))
        assert np.array_equal(evaluator.objectives(moved), evaluator.objectives(phases))

    @pytest.mark.parametrize("n, k", [(2, 1), (5, 1), (1, 2), (3, 3)])
    def test_unit_oversampling_mainlobe_edge(self, n, k):
        # L = 1: the mainlobe exclusion is just lag 0, and lag 1 is a sidelobe
        rng = np.random.default_rng(n * 10 + k)
        spec = PulseSpec(n, k, 1e5, 1)
        weights = WeightVector(rng.uniform(0.1, 1.0, n))
        phases = rng.uniform(0, TWO_PI, (9, n, k))
        got = PhaseEvaluator(spec, weights).objectives(phases)
        want = np.array([direct_objectives(spec, p, weights, None) for p in phases])
        assert_same_pmepr(got[:, 0], want[:, 0])
        assert_same_sidelobes(got[:, 1:], want[:, 1:])

    def test_mainlobe_does_not_depend_on_spacing(self):
        # the mainlobe is the lags |m| < L at any subcarrier spacing, also
        # where the sample period 1/(N*L*df) is subnormal (8.9e-312 s here)
        rng = np.random.default_rng(5000)
        weights = WeightVector(np.ones(3))
        phases = rng.uniform(0, TWO_PI, (4, 3, 1))
        specs = [PulseSpec(3, 1, df, 5000) for df in (1e5, 7.450414773728642e306)]
        scores = [PhaseEvaluator(spec, weights).objectives(phases) for spec in specs]
        assert np.array_equal(scores[0], scores[1])
        acf = autocorrelation(synthesize(specs[0], PhaseCodeMatrix(phases[0]), weights))
        assert pslr(acf, specs[1]) == pslr(acf, specs[0])
        assert islr(acf, specs[1]) == islr(acf, specs[0])

    def test_multisymbol_odd_symbol_length(self):
        # K > 1 transforms its sparse rows at S = N*L = 15 points, an odd length
        rng = np.random.default_rng(15)
        spec = PulseSpec(5, 2, 1e5, 3)
        mask = SparsityMask(np.array([True, True, False, True, True]))
        weights = WeightVector(rng.uniform(0.1, 1.0, 5))
        phases = rng.uniform(0, TWO_PI, (11, 5, 2))
        got = PhaseEvaluator(spec, masked_weights(weights, mask)).objectives(phases)
        want = np.array([direct_objectives(spec, p, weights, mask) for p in phases])
        assert_same_pmepr(got[:, 0], want[:, 0])
        assert_same_sidelobes(got[:, 1:], want[:, 1:])

    @pytest.mark.parametrize("n, oversampling, count, sparse", [
        (2, 5, 3, False),  # one carrier pair
        (9, 1, 8, False),  # L = 1, so M = N
        (7, 3, 9, False),  # odd N*L
        (24, 4, 10, True),  # sparse mask, non-uniform weights
        (100, 20, 11, False),
        (500, 20, 9, False),
    ])
    def test_single_symbol_closed_form(self, monkeypatch, n, oversampling, count, sparse):
        # K = 1 scores the sidelobes from the codes; batches of more than 4
        # genomes span two or more blocks
        assert_closed_form(monkeypatch, n, 1, oversampling, count, sparse)

    @pytest.mark.parametrize("n, k, oversampling, count, sparse", [
        (25, 4, 20, 9, False),  # criterion 06's shape
        (125, 4, 20, 2, False),
        (5, 2, 3, 7, False),  # odd S = N*L
        (9, 3, 1, 8, False),  # L = 1, so S = N
        (24, 3, 4, 10, True),  # sparse mask, non-uniform weights
    ])
    def test_multi_symbol_closed_form(self, monkeypatch, n, k, oversampling, count, sparse):
        # K > 1 scores the sidelobes from the codes' symbol-pair sums
        assert_closed_form(monkeypatch, n, k, oversampling, count, sparse)

    @pytest.mark.parametrize("k", [1, 3])
    def test_single_symbol_runs_no_m_point_complex_transform(self, monkeypatch, k):
        # pmepr runs only the polyphase kernel's N-point FFTs.  objectives
        # adds a 2N-point fft/ifft pair (the convolution for every symbol);
        # then one symbol takes one real rfft of length M, and more symbols
        # one batch of S-point iffts of sparse rows.  Nothing synthesizes.
        # 11 genomes are blocks of 5, 5 and 1: three kernel runs on one CPU,
        # and five on two, where each full block runs once per half
        spec = PulseSpec(16, k, 1e5, 4)
        s, m = spec.samples_per_symbol, spec.n_samples
        budget_rows(monkeypatch, spec, 5)
        evaluator = PhaseEvaluator(spec, WeightVector(np.ones(16)))
        assert len(evaluator._bins) == 5
        lengths = {"fft": [], "ifft": [], "rfft": []}
        for name in lengths:
            def counted(a, n=None, *args, _fn=getattr(np.fft, name), _seen=lengths[name],
                        **kwargs):
                # the transform length: n when the call pads or crops
                _seen.append(a.shape[-1] if n is None else n)
                return _fn(a, n, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        for cpus, runs in ((1, 3), (2, 5)):
            use_cpus(monkeypatch, cpus)
            for seen in lengths.values():
                seen.clear()
            evaluator.pmepr(np.zeros((11, 16, k)))
            assert lengths == {"fft": [16] * runs, "ifft": [], "rfft": []}
            for seen in lengths.values():
                seen.clear()
            evaluator.objectives(np.zeros((11, 16, k)))
            # the two threads' calls interleave in no fixed order
            got = {name: sorted(seen) for name, seen in lengths.items()}
            if k == 1:
                assert got == {
                    "fft": sorted([16, 32] * runs), "ifft": [32] * runs, "rfft": [m] * runs,
                }
            else:
                assert got == {"fft": sorted([16, 32] * runs), "ifft": sorted([32, s] * runs),
                               "rfft": []}

    def test_multi_symbol_transforms_write_into_block_buffers(self, monkeypatch):
        # with K > 1 each block's polyphase fft, convolution fft/ifft pair
        # and S-point iffts write into buffers the evaluator allocated once,
        # so no block allocates a transform's output, also when a block's
        # halves are scored on two threads (blocks of 5, 5 and 1 genomes)
        spec = PulseSpec(16, 3, 1e5, 4)
        budget_rows(monkeypatch, spec, 5)
        evaluator = PhaseEvaluator(spec, WeightVector(np.ones(16)))
        assert len(evaluator._bins) == 5
        owned = [evaluator._bins, evaluator._conv, evaluator._transforms]
        outs = []
        for name in ("fft", "ifft", "rfft"):
            def counted(a, n=None, *args, _fn=getattr(np.fft, name), _name=name, **kwargs):
                outs.append((_name, kwargs.get("out")))
                return _fn(a, n, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        for cpus, runs in ((1, 3), (2, 5)):
            use_cpus(monkeypatch, cpus)
            outs.clear()
            evaluator.objectives(np.zeros((11, 16, 3)))
            assert sorted(name for name, _ in outs) == sorted(["fft", "fft", "ifft", "ifft"] * runs)
            for name, out in outs:
                assert out is not None, name
                assert any(np.shares_memory(out, buf) for buf in owned), name

    @pytest.mark.parametrize("n, k, oversampling, rows", [(100, 1, 20, 40), (125, 4, 20, 8)])
    def test_blocks_fill_the_byte_budget(self, n, k, oversampling, rows):
        # K*L*N complex values a genome: a P = 40 generation at (100, 1, 20)
        # is one block, and (125, 4, 20) keeps blocks of 8
        evaluator = PhaseEvaluator(PulseSpec(n, k, 1e5, oversampling), WeightVector(np.ones(n)))
        assert len(evaluator._bins) == rows
        assert evaluator._bins.nbytes <= metrics._BLOCK_BYTES

    def test_genome_over_the_budget_gets_a_block_of_one(self, monkeypatch):
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 1)
        evaluator = PhaseEvaluator(PulseSpec(4, 2, 1e5, 2), WeightVector(np.ones(4)))
        assert len(evaluator._bins) == 1
        assert evaluator.objectives(np.zeros((3, 4, 2))).shape == (3, 3)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_block_boundaries_change_no_bit(self, monkeypatch, k, sparse):
        # a batch scored in one call gives the same bits as its genomes scored
        # one by one, and as one default-budget block, wherever it is split
        rng = np.random.default_rng(10 * k + sparse)
        spec = PulseSpec(20, k, 1e5, 4)
        mask = random_mask(20, 0.5, rng) if sparse else None
        weights = WeightVector(rng.uniform(0.05, 2.0, 20))
        weights = masked_weights(weights, mask)
        whole = PhaseEvaluator(spec, weights)
        budget_rows(monkeypatch, spec, 4)
        evaluator = PhaseEvaluator(spec, weights)
        rows = len(evaluator._bins)
        assert rows == 4 and len(whole._bins) > 2 * rows + 3
        for count in (1, rows - 1, rows, rows + 1, 2 * rows + 3):
            phases = rng.uniform(0, TWO_PI, (count, 20, k))
            for method in ("pmepr", "objectives"):
                score = getattr(evaluator, method)
                got = score(phases)
                assert np.array_equal(got, np.concatenate([score(p[None]) for p in phases]))
                assert np.array_equal(got, getattr(whole, method)(phases))

    @pytest.mark.parametrize("oversampling", [1, 5])
    def test_undefined_sidelobes_as_per_pulse(self, oversampling):
        # one carrier, one symbol: every lag sits inside the mainlobe
        spec = PulseSpec(1, 1, 1e5, oversampling)
        weights = WeightVector(np.ones(1))
        phases = np.zeros((3, 1, 1))
        pulse = synthesize(spec, PhaseCodeMatrix(phases[0]), weights)
        with pytest.raises(UndefinedSidelobesError):
            pslr(autocorrelation(pulse), spec)
        # the constructor accepts the spec; only the sidelobe metrics fail
        evaluator = PhaseEvaluator(spec, weights)
        with pytest.raises(UndefinedSidelobesError):
            evaluator.objectives(phases)
        assert_same_pmepr(evaluator.pmepr(phases), [pmepr(pulse)] * 3)

    def test_degenerate_weights_as_per_pulse(self):
        spec = PulseSpec(4, 1, 1e5, 2)
        weights = WeightVector(np.array([0.0, 1.0, 1.0, 0.0]))
        mask = SparsityMask(np.array([True, False, False, True]))
        with pytest.raises(DegeneratePulseError):
            synthesize(spec, PhaseCodeMatrix(np.zeros((4, 1))), weights, mask)
        # the evaluator takes weights alone, and no WeightVector is all zero
        with pytest.raises(ValueError, match="positive"):
            PhaseEvaluator(spec, masked_weights(weights, mask))

    @pytest.mark.parametrize("level", [1e-200, 1e200])
    def test_weights_without_finite_energy_rejected(self, level):
        # sum(w^2) underflows to 0 or overflows to inf: no PMEPR to divide by
        spec = PulseSpec(4, 1, 1e5, 2)
        with pytest.raises(DegeneratePulseError):
            PhaseEvaluator(spec, WeightVector(np.full(4, level)))

    def test_rejects_bad_blocks(self):
        spec = PulseSpec(4, 2, 1e5, 2)
        evaluator = PhaseEvaluator(spec, WeightVector(np.ones(4)))
        with pytest.raises(ValueError):
            evaluator.pmepr(np.zeros((3, 2, 4)))
        with pytest.raises(ValueError):
            evaluator.objectives(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            evaluator.pmepr(np.full((1, 4, 2), np.nan))
        with pytest.raises(ValueError):
            PhaseEvaluator(spec, WeightVector(np.ones(3)))
        # a call that fits one block is scored as that block, an empty one too
        assert evaluator.pmepr(np.zeros((0, 4, 2))).shape == (0,)
        assert evaluator.objectives(np.zeros((0, 4, 2))).shape == (0, 3)
        one = np.zeros((1, 4, 2))
        one[0, 1, 1] = np.inf
        for score in (evaluator.pmepr, evaluator.objectives):
            with pytest.raises(ValueError, match="finite"):
                score(one)


def full_band_evaluator(n, k, oversampling):
    mask = SparsityMask.full(n)
    return PhaseEvaluator(PulseSpec(n, k, 1e5, oversampling), uniform_weights(mask))


class TestTwoThreadBlocks:
    """A block whose rows hold at least half of ``_BLOCK_BYTES`` is scored
    in two halves, the upper one on a worker thread, when the process may
    run on more than one CPU; the scores are the serial ones bit for bit.
    Every split waits on a reply queue of its own, so callers that split at
    once queue on the one worker."""

    @pytest.mark.parametrize("method", ["pmepr", "objectives"])
    @pytest.mark.parametrize("n, k", [(100, 1), (25, 4)])
    @pytest.mark.parametrize("count", [41, 1000])
    def test_split_scores_are_the_serial_ones(self, monkeypatch, method, n, k, count):
        # blocks of 40 genomes: each full one splits, and 41 ends in a block of 1
        evaluator = full_band_evaluator(n, k, 20)
        assert len(evaluator._bins) == 40
        phases = np.random.default_rng(count + k).uniform(0, TWO_PI, (count, n, k))
        splits = count_splits(monkeypatch)
        use_cpus(monkeypatch, 1)
        serial = getattr(evaluator, method)(phases)
        assert splits == []
        use_cpus(monkeypatch, 2)
        assert np.array_equal(getattr(evaluator, method)(phases), serial)
        assert len(splits) == count // 40

    @pytest.mark.parametrize("n, k, count, split", [
        (100, 1, 6, False),  # pmepr-sga's offspring
        (100, 1, 12, False),  # pmepr-sga's and illuminate's generations
        (100, 1, 20, False),  # 640 000 bytes of _bins rows: under half the budget
        (100, 1, 21, True),
        (100, 1, 40, True),  # a constrained NSGA-II generation
        (125, 4, 8, True),  # a full K = 4 block
        (125, 4, 1, False),  # one row has no halves
    ])
    def test_which_blocks_split(self, monkeypatch, n, k, count, split):
        evaluator = full_band_evaluator(n, k, 20)
        splits = count_splits(monkeypatch)
        use_cpus(monkeypatch, 2)
        evaluator.objectives(np.zeros((count, n, k)))
        assert splits == [1] * split

    def test_one_cpu_stays_serial(self, monkeypatch):
        evaluator = full_band_evaluator(100, 1, 20)
        phases = np.random.default_rng(1).uniform(0, TWO_PI, (40, 100, 1))
        splits = count_splits(monkeypatch)
        use_cpus(monkeypatch, 1)
        evaluator.pmepr(phases)
        evaluator.objectives(phases)
        assert splits == []

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_a_failing_half_raises_and_the_next_call_scores(self, monkeypatch, failing):
        # the lower half (rows from 0) is the caller's, the upper the worker's
        evaluator = full_band_evaluator(100, 1, 20)
        phases = np.random.default_rng(2).uniform(0, TWO_PI, (40, 100, 1))
        use_cpus(monkeypatch, 2)
        want = evaluator.pmepr(phases)
        kernel, finished = evaluator._pmepr_codes, []

        def failing_half(codes, start):
            if (start > 0) == (failing == "worker"):
                raise RuntimeError(f"{failing} half")
            scores = kernel(codes, start)
            finished.append(start)
            return scores

        monkeypatch.setattr(evaluator, "_pmepr_codes", failing_half)
        with pytest.raises(RuntimeError, match=f"{failing} half"):
            evaluator.pmepr(phases)
        # the other half was done before the error was raised
        assert len(finished) == 1
        monkeypatch.undo()
        use_cpus(monkeypatch, 2)
        splits = count_splits(monkeypatch)
        assert np.array_equal(evaluator.pmepr(phases), want)
        assert np.array_equal(evaluator.pmepr(phases[::-1]), want[::-1])
        assert len(splits) == 2

    def test_an_interrupted_wait_leaves_no_stale_outcome(self, monkeypatch):
        # a KeyboardInterrupt that cuts the caller's wait short strands that
        # split's reply queue, and the worker's late outcome lands there: the
        # next split, on other phases, reads only its own
        evaluator = full_band_evaluator(100, 1, 20)
        phases = np.random.default_rng(3).uniform(0, TWO_PI, (40, 100, 1))
        use_cpus(monkeypatch, 2)
        want = evaluator.pmepr(phases)  # the worker and its jobs queue exist
        threads, replies = threading.active_count(), []

        class Interrupted(queue.SimpleQueue):
            def get(self, *args, **kwargs):
                replies.append(self)
                raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(queue, "SimpleQueue", Interrupted)
            with pytest.raises(KeyboardInterrupt):
                evaluator.pmepr(phases)
        assert len(replies) == 1
        deadline = time.monotonic() + 60
        while replies[0].empty():  # the late outcome, left unread
            assert time.monotonic() < deadline
            time.sleep(1e-3)
        assert np.array_equal(evaluator.pmepr(phases[::-1]), want[::-1])
        assert threading.active_count() == threads

    def test_a_split_evaluator_is_freed(self, monkeypatch):
        # the worker keeps no reference to the last half it scored
        evaluator = full_band_evaluator(100, 1, 20)
        splits = count_splits(monkeypatch)
        use_cpus(monkeypatch, 2)
        evaluator.objectives(np.zeros((40, 100, 1)))
        assert len(splits) == 1
        freed = weakref.ref(evaluator)
        del evaluator
        assert freed() is None

    def test_small_blocks_start_no_thread(self, monkeypatch):
        # the pmepr-sga and illuminate shapes score 12-genome generations and
        # offspring of at most 6 on the caller's thread alone
        monkeypatch.setattr(metrics, "_worker", None)
        use_cpus(monkeypatch, 2)
        threads = threading.active_count()
        mask = random_mask(100, 0.5, np.random.default_rng(1))
        evaluator = PhaseEvaluator(PulseSpec(100, 1, 2e7, 20), uniform_weights(mask))
        sga_phases(evaluator, 18, GAConfig(population_size=12, generations=20),
                   np.random.default_rng(1))
        evaluator.objectives(np.zeros((12, 100, 1)))
        assert threading.active_count() == threads
        assert metrics._worker is None

    def test_concurrent_callers_get_their_own_scores(self, monkeypatch):
        # three threads split blocks at once: their upper halves queue on the
        # one worker, and each caller reads the reply of its own split
        evaluators = [full_band_evaluator(100, 1, 20) for _ in range(3)]
        phases = [np.random.default_rng(r).uniform(0, TWO_PI, (80, 100, 1)) for r in range(3)]
        use_cpus(monkeypatch, 1)
        want = [e.objectives(p) for e, p in zip(evaluators, phases)]
        use_cpus(monkeypatch, 2)
        got = [[] for _ in evaluators]

        def score(i):
            for _ in range(5):
                got[i].append(evaluators[i].objectives(phases[i]))

        threads = [threading.Thread(target=score, args=(i,)) for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more switches inside a split
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for scores, expected in zip(got, want):
            assert len(scores) == 5
            assert all(np.array_equal(s, expected) for s in scores)


@pytest.mark.parametrize("m", [1, 2, 7, 2000, 2001])
def test_real_idft_matches_complex_ifft(m):
    y = np.random.default_rng(m).uniform(0.0, 3.0, (4, m))
    want = np.fft.ifft(y.astype(complex), axis=-1)
    # the caller's buffer is filled and returned
    buffer = np.full((4, m), np.nan, dtype=complex)
    assert _real_idft(y, out=buffer) is buffer
    assert np.allclose(buffer / m, want, rtol=0.0, atol=1e-12 * np.abs(want).max())
