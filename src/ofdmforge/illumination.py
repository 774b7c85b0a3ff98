"""Matched illumination: shape the transmit spectrum to an extended target.

The received-energy objective separates cleanly from envelope control: the
SNR-style gain depends only on the spectral weights (phase codes are unit
modulus), so the pipeline first finds weights matched to the target
reflectivity spectrum with a continuous GA, then fixes those weights and
optimizes phase codes for PMEPR with the binary GA.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .design import SPEED_OF_LIGHT
from .errors import ContractViolationError, DegenerateTargetError
from .evolve import ConvergenceTrace, GAConfig, GASchedule, continuous_minimize, sga_phases
from .metrics import PhaseEvaluator
from .waveform import PulseSpec, WeightVector


@dataclass(frozen=True)
class TargetModel:
    """Point-scatterer target: per-scatterer power reflectivity and range."""

    reflectivities: np.ndarray
    ranges_m: np.ndarray

    def __post_init__(self) -> None:
        s = np.atleast_1d(np.asarray(self.reflectivities, dtype=float))
        r = np.atleast_1d(np.asarray(self.ranges_m, dtype=float))
        if len(s) != len(r) or len(s) < 1:
            raise ValueError("need equal-length, nonempty reflectivity/range lists")
        if np.any(s < 0) or np.any(r <= 0):
            raise ValueError("reflectivities must be >= 0 and ranges positive")
        object.__setattr__(self, "reflectivities", s)
        object.__setattr__(self, "ranges_m", r)

    @classmethod
    def random_box(
        cls,
        n_scatterers: int,
        center_range_m: float,
        extent_m: float,
        rng: np.random.Generator,
        reflectivity: float = 1.0,
    ) -> "TargetModel":
        """Scatterers spread uniformly over a box of the given along-range
        extent; the cross-range coordinate never enters the spectrum, so only
        ranges are drawn."""
        half = extent_m / 2.0
        ranges = center_range_m + rng.uniform(-half, half, size=n_scatterers)
        return cls(np.full(n_scatterers, reflectivity), ranges)


@dataclass(frozen=True)
class ReflectivitySpectrum:
    """Target reflectivity sampled at the subcarrier frequencies f_c + n*df."""

    values: np.ndarray
    normalized: bool = False

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 1 or len(v) < 1:
            raise ValueError("values must be a nonempty 1-D complex vector")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class IlluminationResult:
    """Output bundle of the two-step pipeline: (N, 1) phases ``a_opt``, and
    ``reflectivity``, the normalized target spectrum w_opt was matched to."""

    w_opt: WeightVector
    a_opt: np.ndarray
    gain_db: float
    pmepr_trace: ConvergenceTrace = field(repr=False)
    reflectivity: ReflectivitySpectrum = field(repr=False)

    @property
    def pmepr_initial(self) -> float:
        return float(self.pmepr_trace.best[0])

    @property
    def pmepr_final(self) -> float:
        return float(self.pmepr_trace.best[-1])


def reflectivity_spectrum(
    target: TargetModel, spec: PulseSpec, carrier_hz: float
) -> ReflectivitySpectrum:
    """Compound reflectivity at bin n: sum_i sqrt(sigma_i) e^(-4j*pi*f_n*R_i/c)
    with f_n = n*df + f_c.  Linear in the scatterer list."""
    if carrier_hz < 0:
        raise ValueError("carrier_hz must be >= 0")
    n = spec.n_subcarriers
    freqs = np.arange(n) * spec.subcarrier_spacing_hz + carrier_hz
    amp = np.sqrt(target.reflectivities)
    phase = (-4.0j * np.pi / SPEED_OF_LIGHT) * np.outer(freqs, target.ranges_m)
    values = (np.exp(phase) * amp[None, :]).sum(axis=1)
    return ReflectivitySpectrum(values=values, normalized=False)


def normalize_reflectivity(spectrum: ReflectivitySpectrum) -> ReflectivitySpectrum:
    """Scale so a flat unit-energy pulse sees unit average reflected power.

    With N bins the factor is N / sqrt(sum |s[n]|^2); the normalized spectrum
    satisfies (1/N) sum (1/N) |s_norm[n]|^2 = 1.  Idempotent.
    """
    with np.errstate(over="ignore"):  # reported as not finite below
        power = float(np.sum(np.abs(spectrum.values) ** 2))
    if not np.isfinite(power):
        raise DegenerateTargetError(f"reflectivity spectrum is not finite (power {power})")
    if not power > 0:
        raise DegenerateTargetError("reflectivity spectrum is identically zero")
    n = len(spectrum)
    return ReflectivitySpectrum(
        values=spectrum.values * (n / np.sqrt(power)),
        normalized=True,
    )


def snr_gain_db(weights: WeightVector, spectrum: ReflectivitySpectrum) -> float:
    """Average reflected power of unit-energy weights against the flat
    reference, in dB: 10*log10((1/N) sum w_n^2 |s_norm[n]|^2).

    Flat weights 1/sqrt(N) give exactly 0 dB.  Requires unit-energy weights
    and a normalized spectrum.
    """
    if not spectrum.normalized:
        raise ContractViolationError("spectrum must be normalized first")
    w = weights.weights
    if len(w) != len(spectrum):
        raise ContractViolationError("weights and spectrum lengths differ")
    energy = float(np.sum(w**2))
    if abs(energy - 1.0) > 1e-6:
        raise ContractViolationError(f"weights must have unit energy, got {energy}")
    avg_power = float(np.mean(w**2 * np.abs(spectrum.values) ** 2))
    return float(10.0 * np.log10(avg_power))


def _unit_energy(w: np.ndarray) -> np.ndarray:
    """Scale each vector along the last axis to unit energy."""
    return w / np.sqrt(np.sum(w**2, axis=-1, keepdims=True))


def optimize_weights(
    spectrum: ReflectivitySpectrum,
    v_l: float,
    v_u: float,
    config: GAConfig,
    rng: np.random.Generator,
) -> WeightVector:
    """Maximize sum w_n^2 |s_norm[n]|^2 with the continuous GA.

    Raw genes live in [v_l, v_u]; every candidate is renormalized to unit
    energy for evaluation, which keeps the search on the feasible manifold.
    The initial population is seeded with the clamped reflectivity magnitude,
    a known good solution.
    """
    if not spectrum.normalized:
        raise ContractViolationError("optimize_weights expects a normalized spectrum")
    if not 0 < v_l < v_u:
        raise ValueError("need 0 < v_l < v_u")
    n = len(spectrum)
    neg_gains = -np.abs(spectrum.values) ** 2

    def neg_gain(raw: np.ndarray) -> np.ndarray:
        # -sum w^2 * g with w = raw / |raw|, without forming w; np.add.reduce
        # is np.sum's reduction, and negation is exact, so a sum of negated
        # terms and (-a) / b have the bits of -sum and -(a / b)
        sq = raw * raw
        energy = np.add.reduce(sq, axis=1)
        gain = np.add.reduce(np.multiply(sq, neg_gains, out=sq), axis=1)
        gain /= energy
        return gain

    seed = np.clip(np.abs(spectrum.values), v_l, v_u)
    best, _ = continuous_minimize(
        neg_gain,
        np.full(n, v_l),
        np.full(n, v_u),
        config,
        rng=rng,
        seeds=[seed],
    )
    return WeightVector(_unit_energy(best))


def two_step_pipeline(
    target: TargetModel,
    spec: PulseSpec,
    carrier_hz: float,
    weight_config: GAConfig,
    phase_config: GASchedule,
    rng: np.random.Generator,
    v_l: float = 0.01,
    v_u: float = 10.0,
    bits_per_var: int = 18,
) -> IlluminationResult:
    """Weights first (detection gain), then phase codes (PMEPR).

    Step 2 cannot disturb step 1: the gain depends only on |w|, and phase
    codes are unit modulus.  The optimal pulse spectrum is the elementwise
    product of the returned weights and codes.
    """
    if spec.n_symbols != 1:
        raise ValueError("the illumination pipeline designs single-symbol pulses")
    norm = normalize_reflectivity(reflectivity_spectrum(target, spec, carrier_hz))
    w_opt = optimize_weights(norm, v_l, v_u, weight_config, rng=rng)
    gain = snr_gain_db(w_opt, norm)

    phases, trace = sga_phases(PhaseEvaluator(spec, w_opt), bits_per_var, phase_config, rng)
    return IlluminationResult(
        w_opt=w_opt,
        a_opt=phases,
        gain_db=gain,
        pmepr_trace=trace,
        reflectivity=norm,
    )
