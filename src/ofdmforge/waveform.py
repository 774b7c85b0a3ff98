"""OFDM pulse synthesis.

A pulse is a concatenation of K symbols; each symbol is a weighted sum of N
complex subcarriers with per-symbol unit-modulus phase codes.  Samples are
produced on an oversampled grid (factor L, default 20) via a zero-padded
inverse DFT per symbol, which reproduces direct evaluation of the subcarrier
sum exactly, and the whole pulse is normalized to unit discrete energy.

The subcarrier at index n occupies baseband bin n, so the spectrum spreads
from 0 to B = N * df.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePulseError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PulseSpec:
    """Static pulse dimensions.

    n_subcarriers: N, subcarriers per symbol.
    n_symbols: K, symbols concatenated into the pulse.
    subcarrier_spacing_hz: df; the symbol duration is t_b = 1/df.
    oversampling: L, samples per critical sample period.
    """

    n_subcarriers: int
    n_symbols: int = 1
    subcarrier_spacing_hz: float = 1.0e5
    oversampling: int = 20

    def __post_init__(self) -> None:
        if self.n_subcarriers < 1 or self.n_symbols < 1:
            raise ValueError("n_subcarriers and n_symbols must be >= 1")
        if not self.subcarrier_spacing_hz > 0:
            raise ValueError("subcarrier_spacing_hz must be > 0")
        if self.oversampling < 1:
            raise ValueError("oversampling must be >= 1")

    @property
    def symbol_duration_s(self) -> float:
        return 1.0 / self.subcarrier_spacing_hz

    @property
    def bandwidth_hz(self) -> float:
        return self.n_subcarriers * self.subcarrier_spacing_hz

    @property
    def samples_per_symbol(self) -> int:
        return self.n_subcarriers * self.oversampling

    @property
    def n_samples(self) -> int:
        return self.samples_per_symbol * self.n_symbols

    @property
    def sample_period_s(self) -> float:
        return self.symbol_duration_s / self.samples_per_symbol


def wrap_phases(phases: np.ndarray) -> np.ndarray:
    """Finite phase arguments wrapped into [0, 2*pi)."""
    if not np.all(np.isfinite(phases)):
        raise ValueError("phases must be finite")
    return np.mod(phases, TWO_PI)


@dataclass(frozen=True)
class PhaseCodeMatrix:
    """N x K matrix of phase arguments; code (n, k) is exp(1j * phases[n, k]).

    Phases are wrapped into [0, 2*pi) on construction.
    """

    phases: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.phases, dtype=float)
        if p.ndim != 2:
            raise ValueError("phases must be a 2-D (N, K) array")
        object.__setattr__(self, "phases", wrap_phases(p))

    @property
    def n_subcarriers(self) -> int:
        return self.phases.shape[0]

    @property
    def n_symbols(self) -> int:
        return self.phases.shape[1]

    def codes(self) -> np.ndarray:
        """Unit-modulus complex codes exp(1j*phi)."""
        return np.exp(1j * self.phases)


@dataclass(frozen=True)
class WeightVector:
    """Non-negative spectral amplitudes, one per subcarrier."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("weights must be 1-D")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and >= 0")
        if not np.any(w > 0):
            raise ValueError("at least one weight must be positive")
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class SparsityMask:
    """On/off subcarrier pattern.  Both extreme subcarriers stay ON so the
    occupied bandwidth is not silently reduced."""

    active: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.active, dtype=bool)
        if a.ndim != 1 or len(a) < 2:
            raise ValueError("mask must be 1-D with at least 2 entries")
        if not (a[0] and a[-1]):
            raise ValueError("extreme subcarriers must stay active")
        object.__setattr__(self, "active", a)

    @classmethod
    def full(cls, n: int) -> "SparsityMask":
        return cls(np.ones(n, dtype=bool))

    @property
    def n_active(self) -> int:
        return int(self.active.sum())

    def __len__(self) -> int:
        return len(self.active)


@dataclass(frozen=True)
class SampledPulse:
    """Oversampled complex baseband pulse with unit discrete energy.

    energy = sum(|x[p]|^2) * sample_period_s == 1 after synthesis.
    """

    samples: np.ndarray
    sample_period_s: float
    spec: PulseSpec = field(repr=False)

    @property
    def energy(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2) * self.sample_period_s)

    @property
    def times_s(self) -> np.ndarray:
        return np.arange(len(self.samples)) * self.sample_period_s


def effective_weights(
    spec: PulseSpec,
    weights: WeightVector,
    mask: SparsityMask | None = None,
) -> np.ndarray:
    """Per-subcarrier amplitudes with masked-off subcarriers forced to zero."""
    n = spec.n_subcarriers
    if len(weights) != n:
        raise ValueError(f"weight vector length {len(weights)} != {n}")
    w = weights.weights
    if mask is not None:
        if len(mask) != n:
            raise ValueError(f"mask length {len(mask)} != {n}")
        w = np.where(mask.active, w, 0.0)
    if not np.any(w > 0):
        raise DegeneratePulseError("all effective weights are zero")
    return w


def synthesize_rows(
    spec: PulseSpec,
    w: np.ndarray,
    phases: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Unit-energy samples (P, M) of P pulses, one per row.

    ``w`` holds the effective weights (see ``effective_weights``) and
    ``phases`` the wrapped phase matrices, shape (P, N, K).  Each symbol is
    a zero-padded length-N*L inverse DFT, symbols follow each other along a
    row.  ``out`` is an optional zero-filled (>= P, K, N*L) complex buffer
    for the spectra; only its first N bins per symbol are written, so it
    can be reused across calls.
    """
    n, k = spec.n_subcarriers, spec.n_symbols
    if phases.ndim != 3 or phases.shape[1:] != (n, k):
        raise ValueError(f"phase block shape {phases.shape} != (P, {n}, {k})")
    count = len(phases)
    m = spec.samples_per_symbol
    if out is None:
        out = np.zeros((count, k, m), dtype=complex)
    spectra = out[:count]
    spectra[:, :, :n] = w * np.exp(1j * phases).transpose(0, 2, 1)
    x = np.fft.ifft(spectra, axis=-1).reshape(count, -1)
    # in place: blocks this large, allocated and freed on every call, come
    # back from the allocator as fresh pages
    x *= m
    power = np.abs(x)
    power **= 2
    # times the reciprocal on the float view: the same bits as x /= root,
    # which numpy runs as a complex division
    x.view(float)[...] *= (1.0 / np.sqrt(power.sum(axis=1) * spec.sample_period_s))[:, None]
    return x


def synthesize(
    spec: PulseSpec,
    codes: PhaseCodeMatrix,
    weights: WeightVector,
    mask: SparsityMask | None = None,
) -> SampledPulse:
    """Sample the pulse on the oversampled grid and normalize to unit energy.

    Within symbol k, sample p sits at t = p * t_b / (N*L) and equals
    A * sum_n w_n exp(1j*phi[n,k]) exp(2j*pi*n*df*t).  Masked-off subcarriers
    contribute nothing (their weight is forced to zero).  Evaluation uses a
    zero-padded length-N*L inverse DFT per symbol, which is exact for integer
    subcarrier indices.
    """
    n, k = spec.n_subcarriers, spec.n_symbols
    if codes.phases.shape != (n, k):
        raise ValueError(
            f"phase matrix shape {codes.phases.shape} != ({n}, {k})"
        )
    w = effective_weights(spec, weights, mask)
    samples = synthesize_rows(spec, w, codes.phases[None])[0]
    return SampledPulse(samples=samples, sample_period_s=spec.sample_period_s, spec=spec)


def uniform_weights(mask: SparsityMask) -> WeightVector:
    """Equal amplitude on every active subcarrier, zero elsewhere.

    The absolute level is immaterial: synthesis renormalizes to unit energy.
    """
    return WeightVector(mask.active.astype(float))


def random_mask(n: int, fraction: float, rng: np.random.Generator) -> SparsityMask:
    """Random sparsity pattern with round(n*fraction) active subcarriers.

    Both extreme subcarriers are always kept ON; the rest are drawn uniformly
    without replacement from the interior.
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    n_on = int(round(n * fraction))
    if n_on < 2:
        raise ValueError(
            f"fraction {fraction} keeps {n_on} < 2 subcarriers; cannot retain both extremes"
        )
    active = np.zeros(n, dtype=bool)
    active[0] = active[-1] = True
    if n_on > 2:
        interior = rng.choice(np.arange(1, n - 1), size=n_on - 2, replace=False)
        active[interior] = True
    return SparsityMask(active)


def pulse_spectrum(pulse: SampledPulse) -> tuple[np.ndarray, np.ndarray]:
    """Magnitude spectrum of the whole sampled pulse.

    Returns (frequencies_hz, magnitude) over [0, 1/dt), unshifted, for plot
    export; the occupied band sits in [0, B].
    """
    x = pulse.samples
    mag = np.abs(np.fft.fft(x)) * pulse.sample_period_s
    freqs = np.fft.fftfreq(len(x), d=pulse.sample_period_s) % (1.0 / pulse.sample_period_s)
    order = np.argsort(freqs, kind="stable")
    return freqs[order], mag[order]
