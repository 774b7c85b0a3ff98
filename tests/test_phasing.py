import numpy as np
import pytest

from ofdmforge import (
    PulseSpec,
    SparsityMask,
    newman_phases,
    noncoded_phases,
    pmepr,
    random_mask,
    random_phases,
    synthesize,
    uniform_weights,
)
from ofdmforge.phasing import BASELINES, baseline_phases

TWO_PI = 2 * np.pi


def band_pmepr(codes, mask=None):
    n, k = codes.phases.shape
    spec = PulseSpec(n, k, 1e5, 20)
    mask = mask or SparsityMask.full(n)
    return pmepr(synthesize(spec, codes, uniform_weights(mask), mask))


class TestNewman:
    def test_single_carrier(self):
        assert np.allclose(newman_phases(1).phases, [[0.0]])

    def test_quadratic_form(self):
        codes = newman_phases(5)
        expected = np.mod(np.pi * np.arange(5) ** 2 / 5, TWO_PI)
        assert np.allclose(codes.phases[:, 0], expected)

    def test_full_band_pmepr(self):
        assert band_pmepr(newman_phases(100)) == pytest.approx(1.8, abs=0.15)

    def test_below_two_for_powers_of_two(self):
        for n in (8, 32, 128):
            assert band_pmepr(newman_phases(n)) < 2.0

    def test_sparse_degradation_mean(self):
        # masking the Newman sequence degrades it toward the reference means
        rng = np.random.default_rng(4)
        codes = newman_phases(100)
        for fraction, expected, tol in ((0.7, 4.3, 0.4), (0.5, 5.2, 0.5)):
            vals = [
                band_pmepr(codes, random_mask(100, fraction, rng))
                for _ in range(200)
            ]
            assert np.mean(vals) == pytest.approx(expected, abs=tol)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            newman_phases(0)


class TestNoncoded:
    def test_all_zero(self):
        codes = noncoded_phases(4, 3)
        assert codes.phases.shape == (4, 3)
        assert np.all(codes.phases == 0)

    @pytest.mark.parametrize("n", [2, 100, 500])
    def test_pmepr_equals_count(self, n):
        assert band_pmepr(noncoded_phases(n)) == pytest.approx(n, rel=1e-6)

    def test_pmepr_equals_active_count_under_mask(self):
        rng = np.random.default_rng(1)
        mask = random_mask(100, 0.5, rng)
        assert band_pmepr(noncoded_phases(100), mask) == pytest.approx(
            mask.n_active, rel=1e-6
        )


class TestRandom:
    def test_qpsk_alphabet(self):
        rng = np.random.default_rng(0)
        codes = random_phases(50, 2, rng, alphabet=4)
        lattice = {0.0, np.pi / 2, np.pi, 3 * np.pi / 2}
        assert set(np.round(codes.phases.reshape(-1), 12)) <= {
            round(v, 12) for v in lattice
        }

    def test_fine_lattice_resolution(self):
        rng = np.random.default_rng(0)
        codes = random_phases(100, 1, rng, alphabet=2**18)
        step = TWO_PI / 2**18
        ratios = codes.phases / step
        assert np.allclose(ratios, np.round(ratios), atol=1e-6)

    def test_continuous_range(self):
        rng = np.random.default_rng(0)
        codes = random_phases(200, 1, rng)
        assert np.all((codes.phases >= 0) & (codes.phases < TWO_PI))

    def test_seed_reproducibility(self):
        a = random_phases(10, 2, np.random.default_rng(42), alphabet=4)
        b = random_phases(10, 2, np.random.default_rng(42), alphabet=4)
        assert np.array_equal(a.phases, b.phases)

    def test_alphabet_too_small(self):
        with pytest.raises(ValueError):
            random_phases(4, 1, np.random.default_rng(0), alphabet=1)


class TestBaselineDispatch:
    def test_kinds(self):
        rng = np.random.default_rng(0)
        assert BASELINES == ("noncoded", "random", "newman")
        assert np.all(baseline_phases("noncoded", 4, 2).phases == 0)
        assert baseline_phases("newman", 4).phases.shape == (4, 1)
        assert baseline_phases("random", 4, 2, rng).phases.shape == (4, 2)

    @pytest.mark.parametrize("kind", ["golay", "Random", "", None])
    def test_unknown_kind_rejected(self, kind):
        # a kind outside BASELINES must not fall through to random phases
        with pytest.raises(ValueError, match="not one of"):
            baseline_phases(kind, 4, 1, np.random.default_rng(0))

    def test_random_needs_rng(self):
        with pytest.raises(ValueError):
            baseline_phases("random", 4, 1)

    def test_newman_single_symbol_only(self):
        with pytest.raises(ValueError):
            baseline_phases("newman", 4, k=2)
