import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import direct_acf, random_pulse
from ofdmforge import (
    CorrelationSeries,
    PhaseCodeMatrix,
    PhaseEvaluator,
    PulseSpec,
    SampledPulse,
    SparsityMask,
    WeightVector,
    autocorrelation,
    evaluate_objectives,
    islr,
    newman_phases,
    noncoded_phases,
    pmepr,
    pslr,
    random_mask,
    random_phases,
    synthesize,
    uniform_weights,
)
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
        spec = PulseSpec(2, 1, 1e5, 1)
        dead = SampledPulse(np.zeros(2, dtype=complex), spec.sample_period_s, spec)
        with pytest.raises(DegeneratePulseError):
            pmepr(dead)


class TestAutocorrelation:
    def test_zero_lag_is_plain_sample_energy(self):
        rng = np.random.default_rng(0)
        pulse = random_pulse(rng)
        acf = autocorrelation(pulse)
        center = len(acf.values) // 2
        assert acf.lags[center] == 0
        expected = np.sum(np.abs(pulse.samples) ** 2)
        assert np.abs(acf.values[center]) == pytest.approx(expected, rel=1e-12)

    def test_two_sample_pulse_hand_computed(self):
        spec = PulseSpec(1, 2, 1.0, 1)  # dt = 1 so unit energy works out
        pulse = SampledPulse(np.array([1.0, 1.0]) / np.sqrt(2), 1.0, spec)
        acf = autocorrelation(pulse)
        assert np.allclose(np.abs(acf.values), [0.5, 1.0, 0.5], atol=1e-12)
        assert list(acf.lags) == [-1, 0, 1]

    def test_oversampled_tracks_critical_acf(self):
        # the critical-rate ACF is a coarse Riemann sum of the same
        # correlation; normalized curves agree exactly at symbol-aligned
        # lags and closely in between
        rng = np.random.default_rng(0)
        phases = PhaseCodeMatrix(rng.uniform(0, TWO_PI, (3, 3)))
        a1 = autocorrelation(full_band(3, 3, 1, phases))
        a20 = autocorrelation(full_band(3, 3, 20, phases))
        c1, c20 = len(a1.values) // 2, len(a20.values) // 2
        r1 = np.abs(a1.values) / np.abs(a1.values[c1])
        r20 = np.abs(a20.values) / np.abs(a20.values[c20])
        for m in range(-8, 9):
            if m % 3 == 0:
                assert r20[c20 + 20 * m] == pytest.approx(r1[c1 + m], abs=1e-9)
            else:
                assert r20[c20 + 20 * m] == pytest.approx(r1[c1 + m], abs=0.15)

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_fft_path_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        pulse = random_pulse(rng, n=int(rng.integers(2, 10)), k=1,
                             oversampling=int(rng.integers(1, 6)))
        assert len(pulse.samples) <= 512
        got = autocorrelation(pulse).values
        want = direct_acf(pulse.samples)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_magnitude_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        acf = autocorrelation(random_pulse(rng))
        mags = np.abs(acf.values)
        assert np.allclose(mags, mags[::-1], atol=1e-9 * mags.max())


def thumbtack_series(side_level: float, n_side: int, min_lag: int):
    """Synthetic ACF: unit peak plus n_side sidelobes per wing at side_level."""
    lags = np.arange(-(min_lag + n_side), min_lag + n_side + 1)
    values = np.zeros(len(lags), dtype=complex)
    center = len(lags) // 2
    values[center] = 1.0
    for i in range(n_side):
        values[center + min_lag + i] = side_level
        values[center - min_lag - i] = side_level
    return CorrelationSeries(lags=lags, values=values)


class TestSidelobeMetrics:
    def test_undefined_for_single_symbol_single_carrier(self):
        pulse = full_band(1, 1, 20, PhaseCodeMatrix(np.array([[0.0]])))
        acf = autocorrelation(pulse)
        with pytest.raises(UndefinedSidelobesError):
            pslr(acf, pulse.spec)
        with pytest.raises(UndefinedSidelobesError):
            islr(acf, pulse.spec)

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
            pulse = random_pulse(rng, n=int(rng.integers(3, 10)), k=int(rng.integers(1, 3)))
            acf = autocorrelation(pulse)
            assert islr(acf, pulse.spec) >= pslr(acf, pulse.spec) - 1e-12

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
        pulse = random_pulse(rng)
        scaled = SampledPulse(pulse.samples * scale, pulse.sample_period_s, pulse.spec)
        assert pmepr(scaled) == pytest.approx(pmepr(pulse), rel=1e-9)

    def test_oversampling_never_decreases_pmepr(self):
        rng = np.random.default_rng(9)
        drifts = []
        for _ in range(20):
            phases = PhaseCodeMatrix(rng.uniform(0, TWO_PI, (8, 1)))
            p1 = full_band(8, 1, 1, phases)
            p20 = full_band(8, 1, 20, phases)
            assert pmepr(p20) >= pmepr(p1) - 1e-12
            m1 = np.mean(np.abs(p1.samples) ** 2) * p1.sample_period_s * len(p1.samples)
            m20 = np.mean(np.abs(p20.samples) ** 2) * p20.sample_period_s * len(p20.samples)
            drifts.append(m20 - m1)
        # mean drift is reported, not asserted
        print(f"mean power drift L=1 -> L=20: {np.mean(drifts):.3e}")


def test_evaluate_objectives_bundle():
    pulse = full_band(16, 1, 20, newman_phases(16))
    report = evaluate_objectives(pulse)
    assert report.pmepr_linear >= 1.0
    assert report.pslr_db <= 0.0
    assert report.islr_db >= report.pslr_db
    d = report.as_dict(20)
    assert d["oversampling"] == 20
    assert set(d) == {"pmepr", "pslr_db", "islr_db", "oversampling"}


def direct_objectives(spec, phases, weights, mask):
    """(pmepr, pslr_db, islr_db) of one pulse, sidelobes from the O(M^2) ACF."""
    pulse = synthesize(spec, PhaseCodeMatrix(phases), weights, mask)
    values = direct_acf(pulse.samples)
    m = len(pulse.samples)
    acf = CorrelationSeries(lags=np.arange(-(m - 1), m), values=values)
    return pmepr(pulse), pslr(acf, spec), islr(acf, spec)


def assert_same_sidelobes(got_db, want_db):
    """Sidelobe-to-peak ratios agree to 1e-9 relative (dB values can sit at 0)."""
    assert np.allclose(10 ** (got_db / 20), 10 ** (want_db / 20), rtol=1e-9, atol=0.0)


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

        evaluator = PhaseEvaluator(spec, weights, mask)
        got = evaluator.objectives(phases)
        want = np.array([direct_objectives(spec, p, weights, mask) for p in phases])
        assert got.shape == (len(phases), 3)
        # PMEPR is bit-identical to pmepr(synthesize(...)), on both paths
        assert np.array_equal(got[:, 0], want[:, 0])
        assert np.array_equal(evaluator.pmepr(phases), want[:, 0])
        assert_same_sidelobes(got[:, 1:], want[:, 1:])

    @pytest.mark.parametrize("n, k", [(2, 1), (5, 1), (1, 2), (3, 3)])
    def test_unit_oversampling_mainlobe_edge(self, n, k):
        # L = 1: the mainlobe exclusion is just lag 0, and lag 1 is a sidelobe
        rng = np.random.default_rng(n * 10 + k)
        spec = PulseSpec(n, k, 1e5, 1)
        weights = WeightVector(rng.uniform(0.1, 1.0, n))
        phases = rng.uniform(0, TWO_PI, (9, n, k))
        got = PhaseEvaluator(spec, weights).objectives(phases)
        want = np.array([direct_objectives(spec, p, weights, None) for p in phases])
        assert np.array_equal(got[:, 0], want[:, 0])
        assert_same_sidelobes(got[:, 1:], want[:, 1:])

    def test_multisymbol_odd_symbol_length(self):
        # K > 1 takes the even-bin transform per block; N*L = 15 is odd
        rng = np.random.default_rng(15)
        spec = PulseSpec(5, 2, 1e5, 3)
        mask = SparsityMask(np.array([True, True, False, True, True]))
        weights = WeightVector(rng.uniform(0.1, 1.0, 5))
        phases = rng.uniform(0, TWO_PI, (11, 5, 2))
        got = PhaseEvaluator(spec, weights, mask).objectives(phases)
        want = np.array([direct_objectives(spec, p, weights, mask) for p in phases])
        assert np.array_equal(got[:, 0], want[:, 0])
        assert_same_sidelobes(got[:, 1:], want[:, 1:])

    @pytest.mark.parametrize("n, oversampling, count, sparse", [
        (2, 5, 3, False),  # one carrier pair
        (9, 1, 8, False),  # L = 1, so M = N
        (7, 3, 9, False),  # odd N*L
        (24, 4, 10, True),  # sparse mask, non-uniform weights
        (100, 20, 11, False),
        (500, 20, 9, False),
    ])
    def test_single_symbol_closed_form(self, n, oversampling, count, sparse):
        # K = 1 scores the sidelobes from the codes; batch sizes cross _BLOCK
        rng = np.random.default_rng(n * oversampling)
        spec = PulseSpec(n, 1, 1e5, oversampling)
        mask = random_mask(n, 0.5, rng) if sparse else None
        weights = WeightVector(rng.uniform(0.05, 2.0, n) if sparse else np.ones(n))
        phases = rng.uniform(0, TWO_PI, (count, n, 1))
        got = PhaseEvaluator(spec, weights, mask).objectives(phases)
        want = np.array([direct_objectives(spec, p, weights, mask) for p in phases])
        assert np.array_equal(got[:, 0], want[:, 0])
        assert_same_sidelobes(got[:, 1:], want[:, 1:])

    def test_single_symbol_runs_no_m_point_fft_beyond_synthesis(self, monkeypatch):
        spec = PulseSpec(16, 1, 1e5, 4)
        m = spec.n_samples
        evaluator = PhaseEvaluator(spec, WeightVector(np.ones(16)))
        lengths = {"fft": [], "ifft": []}
        for name in lengths:
            def counted(a, *args, _fn=getattr(np.fft, name), _seen=lengths[name], **kwargs):
                out = _fn(a, *args, **kwargs)
                _seen.append(out.shape[-1])
                return out
            monkeypatch.setattr(np.fft, name, counted)
        evaluator.objectives(np.zeros((11, 16, 1)))
        # synthesis is the only M-point complex transform: one IFFT per block
        assert lengths["ifft"].count(m) == 2
        assert m not in lengths["fft"]

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
        assert np.array_equal(evaluator.pmepr(phases), [pmepr(pulse)] * 3)

    def test_degenerate_weights_as_per_pulse(self):
        spec = PulseSpec(4, 1, 1e5, 2)
        weights = WeightVector(np.array([0.0, 1.0, 1.0, 0.0]))
        mask = SparsityMask(np.array([True, False, False, True]))
        with pytest.raises(DegeneratePulseError):
            synthesize(spec, PhaseCodeMatrix(np.zeros((4, 1))), weights, mask)
        with pytest.raises(DegeneratePulseError):
            PhaseEvaluator(spec, weights, mask)

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
        assert evaluator.objectives(np.zeros((0, 4, 2))).shape == (0, 3)


@pytest.mark.parametrize("m", [1, 2, 7, 2000, 2001])
def test_real_idft_matches_complex_ifft(m):
    y = np.random.default_rng(m).uniform(0.0, 3.0, (4, m))
    want = np.fft.ifft(y.astype(complex), axis=-1)
    assert np.allclose(_real_idft(y) / m, want, rtol=0.0, atol=1e-12 * np.abs(want).max())
