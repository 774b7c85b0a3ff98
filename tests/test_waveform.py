import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ofdmforge import (
    PhaseCodeMatrix,
    PulseSpec,
    SparsityMask,
    WeightVector,
    pmepr,
    random_mask,
    synthesize,
    uniform_weights,
)
from ofdmforge.errors import DegeneratePulseError
from ofdmforge.waveform import pulse_spectrum

TWO_PI = 2 * np.pi


def energy(x, spec):
    """Discrete energy sum |x|^2 * dt of pulse samples on ``spec``'s grid."""
    return float(np.sum(np.abs(x) ** 2) * spec.sample_period_s)


def full_pulse(n, k, oversampling, phases):
    spec = PulseSpec(n, k, 1e5, oversampling)
    if n == 1:  # a sparsity mask needs two extremes; single tones go bare
        return synthesize(spec, PhaseCodeMatrix(phases), WeightVector(np.ones(1)))
    mask = SparsityMask.full(n)
    return synthesize(spec, PhaseCodeMatrix(phases), uniform_weights(mask), mask)


class TestTypes:
    def test_pulse_spec_derived(self):
        spec = PulseSpec(100, 2, 1e5, 20)
        assert spec.symbol_duration_s == pytest.approx(1e-5)
        assert spec.bandwidth_hz == pytest.approx(1e7)
        assert spec.n_samples == 100 * 2 * 20
        assert spec.sample_period_s == pytest.approx(1e-5 / 2000)

    def test_pulse_spec_validation(self):
        with pytest.raises(ValueError):
            PulseSpec(0, 1)
        with pytest.raises(ValueError):
            PulseSpec(4, 0)
        with pytest.raises(ValueError):
            PulseSpec(4, 1, -1.0)
        with pytest.raises(ValueError):
            PulseSpec(4, 1, 1e5, 0)

    @pytest.mark.parametrize("spacing", [1e308, 5e-324])
    def test_pulse_spec_rejects_overflowing_spacing(self, spacing):
        # B = N * df overflows to inf; 1 / df overflows, so the sample period is inf
        with pytest.raises(ValueError, match="not finite and > 0"):
            PulseSpec(8, 1, spacing, 20)

    @pytest.mark.parametrize("args", [
        (3, 1, np.float64(1e308), 5),
        (np.int64(3), 1, 1e308, 5),
        (3, 1, np.float64(1e-320), 5),
    ])
    def test_pulse_spec_rejects_overflowing_numpy_scalars(self, args):
        # numpy scalars overflow with a RuntimeWarning where floats give inf
        with pytest.raises(ValueError, match="not finite and > 0"):
            PulseSpec(*args)

    def test_phase_matrix_wraps(self):
        m = PhaseCodeMatrix(np.array([[-np.pi, 3 * np.pi]]))
        assert np.all(m.phases >= 0) and np.all(m.phases < TWO_PI)
        assert np.allclose(m.phases, [[np.pi, np.pi]])

    def test_phase_matrix_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PhaseCodeMatrix(np.array([[np.nan]]))
        with pytest.raises(ValueError):
            PhaseCodeMatrix(np.zeros(3))

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([-0.1, 1.0]))
        with pytest.raises(ValueError):
            WeightVector(np.zeros(4))
        with pytest.raises(ValueError):
            WeightVector(np.array([np.inf, 1.0]))

    def test_mask_validation(self):
        with pytest.raises(ValueError):
            SparsityMask(np.array([False, True, True]))
        with pytest.raises(ValueError):
            SparsityMask(np.array([True, True, False]))
        with pytest.raises(ValueError):
            SparsityMask(np.array([True]))
        m = SparsityMask.full(5)
        assert m.n_active == 5


class TestSynthesize:
    def test_single_tone(self):
        x = full_pulse(1, 1, 1, np.array([[0.7]]))
        assert x.shape == (1,)
        assert energy(x, PulseSpec(1, 1, 1e5, 1)) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(x[0]) > 0

    def test_single_tone_constant_modulus(self):
        mags = np.abs(full_pulse(1, 3, 16, np.array([[0.1, 2.0, 4.0]])))
        assert np.allclose(mags, mags[0], rtol=1e-12)

    def test_decimation_consistency(self):
        # oversampled samples agree exactly with critical samples at the
        # shared instants, including the (identical) normalization
        rng = np.random.default_rng(0)
        phases = rng.uniform(0, TWO_PI, (3, 3))
        p1 = full_pulse(3, 3, 1, phases)
        p20 = full_pulse(3, 3, 20, phases)
        assert np.allclose(p20[::20], p1, rtol=1e-10, atol=1e-9)

    def test_coherent_sum_pmepr_four(self):
        x = full_pulse(4, 1, 20, np.zeros((4, 1)))
        assert int(np.argmax(np.abs(x) ** 2)) == 0
        assert pmepr(x) == pytest.approx(4.0, abs=1e-9)

    def test_matches_direct_subcarrier_sum(self):
        rng = np.random.default_rng(3)
        n, k, ell = 5, 2, 4
        phases = rng.uniform(0, TWO_PI, (n, k))
        w = rng.uniform(0.2, 1.0, n)
        spec = PulseSpec(n, k, 2e5, ell)
        x = synthesize(spec, PhaseCodeMatrix(phases), WeightVector(w))
        # direct evaluation of the subcarrier sum, then the same normalization
        m = n * ell
        t = np.arange(m) * spec.symbol_duration_s / m
        ref = []
        for kk in range(k):
            sym = sum(
                w[nn] * np.exp(1j * phases[nn, kk]) * np.exp(2j * np.pi * nn * spec.subcarrier_spacing_hz * t)
                for nn in range(n)
            )
            ref.append(sym)
        ref = np.concatenate(ref)
        ref = ref / np.sqrt(np.sum(np.abs(ref) ** 2) * spec.sample_period_s)
        assert np.allclose(x, ref, rtol=1e-9, atol=1e-9)

    def test_masked_weights_are_zeroed(self):
        spec = PulseSpec(4, 1, 1e5, 1)
        mask = SparsityMask(np.array([True, False, False, True]))
        x = synthesize(spec, PhaseCodeMatrix(np.zeros((4, 1))), WeightVector(np.ones(4)), mask)
        # only bins 0 and 3 occupied
        bins = np.abs(np.fft.fft(x))
        assert bins[1] == pytest.approx(0.0, abs=1e-9 * bins[0])
        assert bins[2] == pytest.approx(0.0, abs=1e-9 * bins[0])

    def test_degenerate_weights(self):
        spec = PulseSpec(4, 1, 1e5, 1)
        mask = SparsityMask(np.array([True, False, False, True]))
        weights = WeightVector(np.array([0.0, 1.0, 1.0, 0.0]))
        with pytest.raises(DegeneratePulseError):
            synthesize(spec, PhaseCodeMatrix(np.zeros((4, 1))), weights, mask)

    def test_shape_mismatches(self):
        spec = PulseSpec(4, 2, 1e5, 1)
        with pytest.raises(ValueError):
            synthesize(spec, PhaseCodeMatrix(np.zeros((3, 2))), WeightVector(np.ones(4)))
        with pytest.raises(ValueError):
            synthesize(spec, PhaseCodeMatrix(np.zeros((4, 2))), WeightVector(np.ones(3)))
        with pytest.raises(ValueError):
            synthesize(
                spec,
                PhaseCodeMatrix(np.zeros((4, 2))),
                WeightVector(np.ones(4)),
                SparsityMask.full(5),
            )


class TestUniformWeights:
    def test_full_mask(self):
        w = uniform_weights(SparsityMask.full(100))
        assert np.all(w.weights == w.weights[0])

    def test_half_mask(self):
        rng = np.random.default_rng(1)
        mask = random_mask(10, 0.5, rng)
        w = uniform_weights(mask)
        assert np.count_nonzero(w.weights) == 5
        assert np.all((w.weights > 0) == mask.active)

    def test_two_active(self):
        mask = SparsityMask(np.array([True, False, False, True]))
        w = uniform_weights(mask)
        assert np.count_nonzero(w.weights) == 2
        assert w.weights[0] == w.weights[-1]


class TestRandomMask:
    def test_seventy_percent(self):
        rng = np.random.default_rng(2)
        mask = random_mask(100, 0.7, rng)
        assert mask.n_active == 70
        assert mask.active[0] and mask.active[-1]

    def test_full_fraction(self):
        mask = random_mask(100, 1.0, np.random.default_rng(0))
        assert mask.n_active == 100

    def test_interior_frequency_matches_hypergeometric(self):
        # 5 actives out of 10 with forced extremes: 3 free slots over 8
        # interior positions -> each interior index active w.p. 3/8
        rng = np.random.default_rng(7)
        counts = np.zeros(10)
        draws = 10_000
        for _ in range(draws):
            counts += random_mask(10, 0.5, rng).active
        interior = counts[1:-1] / draws
        assert np.all(np.abs(interior - 3 / 8) < 0.05)

    def test_too_sparse(self):
        with pytest.raises(ValueError):
            random_mask(10, 0.1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            random_mask(10, 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            random_mask(10, 1.5, np.random.default_rng(0))


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_unit_energy_invariant(data):
    n = data.draw(st.integers(2, 16), label="n")
    k = data.draw(st.integers(1, 3), label="k")
    ell = data.draw(st.integers(1, 8), label="oversampling")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0, TWO_PI, (n, k))
    weights = WeightVector(rng.uniform(0.1, 2.0, n))
    spec = PulseSpec(n, k, 1e5, ell)
    x = synthesize(spec, PhaseCodeMatrix(phases), weights)
    assert x.shape == (spec.n_samples,)
    assert abs(energy(x, spec) - 1.0) < 1e-9


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), shift=st.floats(0.01, 6.0))
def test_global_phase_rotation(seed, shift):
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0, TWO_PI, (6, 2))
    base = full_pulse(6, 2, 4, phases)
    rotated = full_pulse(6, 2, 4, phases + shift)
    assert np.allclose(np.abs(rotated), np.abs(base), atol=1e-9)
    # samples agree up to one unit rotation
    ratio = rotated / base
    assert np.allclose(ratio, ratio[0], atol=1e-9)
    assert abs(abs(ratio[0]) - 1.0) < 1e-9


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 100.0))
def test_weight_scale_invariance(seed, scale):
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0, TWO_PI, (5, 1))
    w = rng.uniform(0.1, 1.0, 5)
    spec = PulseSpec(5, 1, 1e5, 4)
    a = synthesize(spec, PhaseCodeMatrix(phases), WeightVector(w))
    b = synthesize(spec, PhaseCodeMatrix(phases), WeightVector(w * scale))
    assert np.allclose(a, b, rtol=1e-9, atol=1e-9)


def test_dft_magnitude_recovers_weights():
    # critical sampling, one symbol: FFT bin magnitudes are proportional to
    # the weights on active bins
    rng = np.random.default_rng(5)
    n = 8
    w = rng.uniform(0.1, 1.0, n)
    spec = PulseSpec(n, 1, 1e5, 1)
    x = synthesize(spec, PhaseCodeMatrix(rng.uniform(0, TWO_PI, (n, 1))), WeightVector(w))
    mags = np.abs(np.fft.fft(x))
    assert np.allclose(mags / np.linalg.norm(mags), w / np.linalg.norm(w), atol=1e-9)


def test_pulse_spectrum_export_shape():
    x = full_pulse(4, 1, 4, np.zeros((4, 1)))
    freqs, mag = pulse_spectrum(x, PulseSpec(4, 1, 1e5, 4).sample_period_s)
    assert len(freqs) == len(mag) == len(x)
    assert np.all(np.diff(freqs) > 0)
    assert np.all(mag >= 0)
