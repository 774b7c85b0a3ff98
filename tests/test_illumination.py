import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ofdmforge import (
    GAConfig,
    PhaseCodeMatrix,
    PulseSpec,
    ReflectivitySpectrum,
    TargetModel,
    WeightVector,
    normalize_reflectivity,
    optimize_weights,
    reflectivity_spectrum,
    snr_gain_db,
    synthesize,
    two_step_pipeline,
)
from ofdmforge.design import SPEED_OF_LIGHT
from ofdmforge.errors import ContractViolationError, DegenerateTargetError
from ofdmforge.metrics import pmepr
from ofdmforge.waveform import SparsityMask

from conftest import max_weight_gain

CASE_SPEC = PulseSpec(100, 1, 2e7, 20)  # 2 GHz band, 20 MHz spacing
CASE_CARRIER = 9e9


def flat_weights(n):
    return WeightVector(np.full(n, 1.0 / np.sqrt(n)))


class TestTargetModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            TargetModel(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            TargetModel(np.array([-1.0]), np.array([10.0]))
        with pytest.raises(ValueError):
            TargetModel(np.array([1.0]), np.array([0.0]))

    def test_random_box_spread(self):
        rng = np.random.default_rng(0)
        t = TargetModel.random_box(50, 10_000.0, 10.0, rng)
        assert t.ranges_m.shape == t.reflectivities.shape == (50,)
        assert np.all(np.abs(t.ranges_m - 10_000.0) <= 5.0)
        assert np.all(t.reflectivities == 1.0)


class TestReflectivitySpectrum:
    def test_single_sphere_flat_magnitude(self):
        target = TargetModel(np.array([1.0]), np.array([123.0]))
        spec = reflectivity_spectrum(target, CASE_SPEC, CASE_CARRIER)
        assert np.allclose(np.abs(spec.values), 1.0, atol=1e-12)

    def test_two_scatterer_interference_period_two(self):
        # spacing c/(4 df) makes the two returns alternate between
        # constructive and destructive interference bin by bin
        df = CASE_SPEC.subcarrier_spacing_hz
        r1 = 10_000.0
        r2 = r1 + SPEED_OF_LIGHT / (4 * df)
        target = TargetModel(np.array([1.0, 1.0]), np.array([r1, r2]))
        carrier = 450 * df  # integer number of spacings
        spec = reflectivity_spectrum(target, CASE_SPEC, carrier)
        mags = np.abs(spec.values)
        # |1 + exp(-j pi (n + m))| is 2 for n+m even, 0 for n+m odd
        even = mags[::2]
        odd = mags[1::2]
        lo, hi = (even, odd) if even.mean() < odd.mean() else (odd, even)
        assert np.allclose(hi, 2.0, atol=1e-6)
        assert np.allclose(lo, 0.0, atol=1e-6)

    def test_fifty_scatterer_box_has_deep_fades(self):
        rng = np.random.default_rng(99)
        target = TargetModel.random_box(50, 10_000.0, 10.0, rng)
        norm = normalize_reflectivity(reflectivity_spectrum(target, CASE_SPEC, CASE_CARRIER))
        mags = np.abs(norm.values)
        assert mags.min() < 0.3 * mags.mean()
        assert mags.max() > 1.5 * mags.mean()

    def test_linearity_in_scatterers(self):
        rng = np.random.default_rng(1)
        a = TargetModel.random_box(5, 5_000.0, 4.0, rng)
        b = TargetModel.random_box(7, 5_010.0, 4.0, rng)
        both = TargetModel(
            np.concatenate([a.reflectivities, b.reflectivities]),
            np.concatenate([a.ranges_m, b.ranges_m]),
        )
        sa = reflectivity_spectrum(a, CASE_SPEC, CASE_CARRIER).values
        sb = reflectivity_spectrum(b, CASE_SPEC, CASE_CARRIER).values
        sboth = reflectivity_spectrum(both, CASE_SPEC, CASE_CARRIER).values
        assert np.allclose(sboth, sa + sb, atol=1e-12 * np.abs(sboth).max())


class TestNormalization:
    def test_single_sphere_norm_is_sqrt_n(self):
        target = TargetModel(np.array([1.0]), np.array([50.0]))
        norm = normalize_reflectivity(reflectivity_spectrum(target, CASE_SPEC, CASE_CARRIER))
        assert np.allclose(np.abs(norm.values), 10.0, atol=1e-9)

    def test_flat_weight_average_power_is_one(self):
        rng = np.random.default_rng(2)
        target = TargetModel.random_box(20, 8_000.0, 6.0, rng)
        norm = normalize_reflectivity(reflectivity_spectrum(target, CASE_SPEC, CASE_CARRIER))
        n = len(norm)
        avg = np.mean((1.0 / n) * np.abs(norm.values) ** 2)
        assert avg == pytest.approx(1.0, abs=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        target = TargetModel.random_box(10, 9_000.0, 5.0, rng)
        once = normalize_reflectivity(reflectivity_spectrum(target, CASE_SPEC, CASE_CARRIER))
        twice = normalize_reflectivity(once)
        assert np.allclose(once.values, twice.values, rtol=1e-12)

    def test_reflectivity_scale_cancels(self):
        rng = np.random.default_rng(4)
        ranges = 7_000.0 + rng.uniform(-3, 3, 8)
        t1 = TargetModel(np.ones(8), ranges)
        t2 = TargetModel(np.full(8, 4.2), ranges)
        n1 = normalize_reflectivity(reflectivity_spectrum(t1, CASE_SPEC, CASE_CARRIER))
        n2 = normalize_reflectivity(reflectivity_spectrum(t2, CASE_SPEC, CASE_CARRIER))
        assert np.allclose(n1.values, n2.values, rtol=1e-12)

    @pytest.mark.parametrize("reflectivity, carrier_hz, message", [
        (0.0, CASE_CARRIER, "identically zero"),
        # the phases 4*pi*f*R/c overflow, and the spectrum is NaN
        (1.0, 1e306, "not finite"),
        # the spectrum is finite, but its power overflows
        (1e308, CASE_CARRIER, "not finite"),
    ])
    def test_degenerate_target(self, reflectivity, carrier_hz, message):
        target = TargetModel(np.array([reflectivity]), np.array([1e4]))
        with np.errstate(all="ignore"):
            spectrum = reflectivity_spectrum(target, CASE_SPEC, carrier_hz)
        with pytest.raises(DegenerateTargetError, match=message):
            normalize_reflectivity(spectrum)


class TestSnrGain:
    def _norm_spectrum(self, seed=5, n_scatter=30):
        rng = np.random.default_rng(seed)
        target = TargetModel.random_box(n_scatter, 10_000.0, 10.0, rng)
        return normalize_reflectivity(reflectivity_spectrum(target, CASE_SPEC, CASE_CARRIER))

    def test_flat_weights_zero_db(self):
        norm = self._norm_spectrum()
        assert snr_gain_db(flat_weights(100), norm) == pytest.approx(0.0, abs=1e-9)

    def test_single_bin_upper_bound(self):
        norm = self._norm_spectrum()
        mags2 = np.abs(norm.values) ** 2
        best = int(np.argmax(mags2))
        w = np.zeros(100)
        w[best] = 1.0
        gain = snr_gain_db(WeightVector(w), norm)
        assert gain == pytest.approx(10 * np.log10(mags2[best] / 100.0), abs=1e-9)

    def test_contract_violations(self):
        norm = self._norm_spectrum()
        unnormalized = ReflectivitySpectrum(norm.values, normalized=False)
        with pytest.raises(ContractViolationError):
            snr_gain_db(flat_weights(100), unnormalized)
        with pytest.raises(ContractViolationError):
            snr_gain_db(WeightVector(np.full(100, 0.2)), norm)  # energy 4
        with pytest.raises(ContractViolationError):
            snr_gain_db(flat_weights(50), norm)

    def test_invariant_to_phase_codes(self):
        # the decoupling fact: gain never references phases at all, so any
        # unit-modulus code set leaves it untouched
        norm = self._norm_spectrum()
        w = flat_weights(100)
        g0 = snr_gain_db(w, norm)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            _ = PhaseCodeMatrix(rng.uniform(0, 2 * np.pi, (100, 1)))
            assert snr_gain_db(w, norm) == g0


class TestOptimizeWeights:
    def test_concentrates_on_dominant_bin(self):
        values = np.full(20, 0.5, dtype=complex)
        values[7] = 12.0
        norm = normalize_reflectivity(ReflectivitySpectrum(values))
        cfg = GAConfig(population_size=10, generations=300)
        w = optimize_weights(norm, 0.01, 10.0, cfg, rng=np.random.default_rng(0))
        assert np.argmax(w.weights) == 7
        assert w.weights[7] > 2 * np.max(np.delete(w.weights, 7))

    def test_uniform_spectrum_gain_zero(self):
        target = TargetModel(np.array([1.0]), np.array([100.0]))
        norm = normalize_reflectivity(reflectivity_spectrum(target, CASE_SPEC, 0.0))
        cfg = GAConfig(population_size=10, generations=100)
        w = optimize_weights(norm, 0.01, 10.0, cfg, rng=np.random.default_rng(1))
        assert snr_gain_db(w, norm) == pytest.approx(0.0, abs=1e-6)

    def test_result_unit_energy_and_at_least_seed(self):
        rng = np.random.default_rng(6)
        target = TargetModel.random_box(25, 10_000.0, 10.0, rng)
        norm = normalize_reflectivity(reflectivity_spectrum(target, CASE_SPEC, CASE_CARRIER))
        cfg = GAConfig(population_size=10, generations=200)
        w = optimize_weights(norm, 0.01, 10.0, cfg, rng=rng)
        assert np.sum(w.weights**2) == pytest.approx(1.0, abs=1e-9)
        seed_raw = np.clip(np.abs(norm.values), 0.01, 10.0)
        seed_w = WeightVector(seed_raw / np.sqrt(np.sum(seed_raw**2)))
        assert snr_gain_db(w, norm) >= snr_gain_db(seed_w, norm) - 1e-12

    def test_invalid_bounds(self):
        norm = normalize_reflectivity(ReflectivitySpectrum(np.ones(4, dtype=complex)))
        cfg = GAConfig(population_size=10, generations=5)
        with pytest.raises(ValueError):
            optimize_weights(norm, 0.0, 10.0, cfg, np.random.default_rng(0))
        with pytest.raises(ValueError):
            optimize_weights(norm, 2.0, 1.0, cfg, np.random.default_rng(0))


def brute_force_max_weight_gain(gains, v_l, v_u):
    """max sum s*g / sum s over all 2**N vertices of [v_l^2, v_u^2]^N."""
    gains = np.asarray(gains, dtype=float)
    return max(
        float(s @ gains / s.sum())
        for s in map(np.array, itertools.product((v_l * v_l, v_u * v_u), repeat=len(gains)))
    )


class TestWeightGainBound:
    """``max_weight_gain``, the exact optimum of the weight step, bounds what
    ``optimize_weights`` reaches."""

    @settings(deadline=None, max_examples=60)
    @given(
        gains=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=10),
        v_l=st.floats(0.01, 1.0),
        ratio=st.floats(1.01, 100.0),
    )
    def test_scan_matches_vertex_enumeration(self, gains, v_l, ratio):
        v_u = v_l * ratio
        assert max_weight_gain(gains, v_l, v_u) == pytest.approx(
            brute_force_max_weight_gain(gains, v_l, v_u), rel=1e-12, abs=1e-300)

    def test_known_optimum(self):
        # v_u^2 = 4 on the dominant gain alone: (4*9 + 1 + 1) / (4 + 1 + 1)
        # beats 11/3 (k = 0 or 3) and (4*9 + 4 + 1) / (4 + 4 + 1) (k = 2)
        assert max_weight_gain([1.0, 9.0, 1.0], 1.0, 2.0) == pytest.approx(38 / 6, rel=1e-15)

    @settings(deadline=None, max_examples=25)
    @given(
        scatterers=st.lists(st.tuples(st.floats(0.01, 10.0), st.floats(100.0, 1e4)),
                            min_size=1, max_size=6),
        n=st.integers(2, 12),
        v_l=st.floats(0.01, 1.0),
        ratio=st.floats(1.01, 20.0),
        rate=st.sampled_from([0.0, 0.2, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_optimize_weights_never_beats_the_bound(self, scatterers, n, v_l, ratio, rate,
                                                     seed):
        refl, ranges = np.array(scatterers).T
        spectrum = normalize_reflectivity(reflectivity_spectrum(
            TargetModel(refl, ranges), PulseSpec(n, 1, 2e7, 1), CASE_CARRIER))
        gains = np.abs(spectrum.values) ** 2
        v_u = v_l * ratio
        cfg = GAConfig(population_size=10, generations=60, mutation_rate=rate)
        w = optimize_weights(spectrum, v_l, v_u, cfg, np.random.default_rng(seed)).weights
        assert np.sum(w**2 * gains) <= max_weight_gain(gains, v_l, v_u) * (1 + 1e-12)


class TestTwoStepPipeline:
    def _small_pipeline(self, target, seed=0):
        spec = PulseSpec(16, 1, 2e7, 8)
        wcfg = GAConfig(population_size=10, generations=120)
        pcfg = GAConfig(population_size=8, generations=80)
        rng = np.random.default_rng(seed)
        return spec, two_step_pipeline(target, spec, CASE_CARRIER, wcfg, pcfg, rng,
                                       bits_per_var=8)

    def test_gain_decoupled_from_phase_step(self):
        rng = np.random.default_rng(7)
        target = TargetModel.random_box(12, 10_000.0, 8.0, rng)
        spec, result = self._small_pipeline(target)
        norm = normalize_reflectivity(reflectivity_spectrum(target, spec, CASE_CARRIER))
        # identical gain whether or not the optimized codes are applied
        assert snr_gain_db(result.w_opt, norm) == result.gain_db
        assert abs(snr_gain_db(result.w_opt, norm) - result.gain_db) <= 1e-12

    def test_pmepr_trace_improves(self):
        rng = np.random.default_rng(8)
        target = TargetModel.random_box(12, 10_000.0, 8.0, rng)
        _, result = self._small_pipeline(target, seed=1)
        assert result.pmepr_final <= result.pmepr_initial
        assert np.sum(result.w_opt.weights**2) == pytest.approx(1.0, abs=1e-9)

    def test_spectrum_is_elementwise_product(self):
        rng = np.random.default_rng(9)
        target = TargetModel.random_box(6, 10_000.0, 8.0, rng)
        spec, result = self._small_pipeline(target, seed=2)
        assert result.a_opt.shape == (16, 1)
        x = synthesize(spec, PhaseCodeMatrix(result.a_opt), result.w_opt, SparsityMask.full(16))
        bins = np.abs(np.fft.fft(x))[:16]
        expected = result.w_opt.weights
        assert np.allclose(bins / np.linalg.norm(bins),
                           expected / np.linalg.norm(expected), atol=1e-9)
        assert pmepr(x) == pytest.approx(result.pmepr_final, rel=1e-9)

    def test_point_target_reduces_to_pmepr_only(self):
        target = TargetModel(np.array([1.0]), np.array([9_000.0]))
        _, result = self._small_pipeline(target, seed=3)
        assert result.gain_db == pytest.approx(0.0, abs=1e-9)

    def test_multi_symbol_rejected(self):
        target = TargetModel(np.array([1.0]), np.array([9_000.0]))
        spec = PulseSpec(8, 2, 2e7, 4)
        cfg = GAConfig(population_size=8, generations=5)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="single-symbol"):
            two_step_pipeline(target, spec, CASE_CARRIER, cfg, cfg, rng)
        assert rng.bit_generator.state == state  # rejected before the weight GA draws
