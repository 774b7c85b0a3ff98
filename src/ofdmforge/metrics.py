"""Objective functions on sampled pulses: PMEPR, PSLR and ISLR.

PMEPR is the peak-to-mean envelope power ratio of the complex baseband
samples (reported linear).  PSLR and ISLR are sidelobe measures of the
autocorrelation magnitude, reported as 20*log10 ratios against the zero-lag
peak.  Lags closer to zero than the Rayleigh resolution 1/B on either side
belong to the mainlobe and are excluded from both sidelobe metrics.

A single-symbol pulse x[p] = sum_n c_n omega^(n*p), omega = exp(2j*pi/M),
has the aperiodic autocorrelation (a double sum over carrier pairs, cf.
Levanon & Mozeson, *Radar Signals*, 2004, multicarrier phase-coded signals)

    r[m] = (M - m) * sum_n |c_n|^2 omega^(n*m) + 1j * sum_n y_n omega^(n*m),
    y_n = 2 * Im(c_n * sum_{k != n} conj(c_k) / (1 - omega^(n-k))),

for lags m = 0..M-1, so ``PhaseEvaluator`` scores single-symbol sidelobes
from the codes c_n without an ACF of the samples.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePulseError, UndefinedSidelobesError
from .waveform import (
    PulseSpec,
    SampledPulse,
    SparsityMask,
    WeightVector,
    effective_weights,
    synthesize_rows,
    wrap_phases,
)


@dataclass(frozen=True)
class ObjectiveReport:
    """The three pulse objectives; PMEPR linear, sidelobe ratios in dB."""

    pmepr_linear: float
    pslr_db: float
    islr_db: float

    def as_dict(self, oversampling: int) -> dict:
        return {
            "pmepr": self.pmepr_linear,
            "pslr_db": self.pslr_db,
            "islr_db": self.islr_db,
            "oversampling": oversampling,
        }


@dataclass(frozen=True)
class CorrelationSeries:
    """Autocorrelation R[m] on the oversampled lag grid m = -(M-1)..(M-1)."""

    lags: np.ndarray
    values: np.ndarray

    @property
    def zero_lag(self) -> float:
        return float(np.abs(self.values[len(self.values) // 2]))


def _pmepr_rows(x: np.ndarray) -> np.ndarray:
    """max |x|^2 / mean |x|^2 along each row of x (B, M)."""
    power = np.abs(x)
    power **= 2
    mean = power.mean(axis=1)
    if not np.all(mean > 0):
        raise DegeneratePulseError("zero-energy pulse has no PMEPR")
    return power.max(axis=1) / mean


def pmepr(pulse: SampledPulse) -> float:
    """max |x|^2 / mean |x|^2 over all samples of the pulse."""
    return float(_pmepr_rows(pulse.samples[None, :])[0])


def _power(z: np.ndarray) -> np.ndarray:
    return z.real**2 + z.imag**2


def _twiddle(m: int) -> np.ndarray:
    """exp(-1j*pi*p/m), p = 0..m-1: shifts an m-point DFT by half a bin."""
    return np.exp(-1j * np.pi * np.arange(m) / m)


def _real_idft(y: np.ndarray) -> np.ndarray:
    """sum_k y[k] exp(2j*pi*k*m/M) along the last axis of real y, i.e.
    M * IFFT_M(y), from the half spectrum rfft(y).

    numpy takes a slow path for a real array passed to ``ifft``.  For real y,
    M * IFFT_M(y)[m] = conj(FFT_M(y)[m]), and FFT_M(y)[m] = conj(FFT_M(y)[M-m]),
    so the bins above M/2 mirror the half spectrum.
    """
    m = y.shape[-1]
    half = np.fft.rfft(y, axis=-1)
    h = half.shape[-1]
    out = np.empty(y.shape, dtype=complex)
    np.conjugate(half, out=out[..., :h])
    out[..., h:] = half[..., m - h:0:-1]
    return out


def _acf_half(x: np.ndarray, twiddle: np.ndarray) -> np.ndarray:
    """Lags 0..M-1 of the aperiodic autocorrelation of every row of x (B, M).

    The ACF is the inverse 2M-point DFT of |X|^2, X the spectrum of x
    zero-padded to 2M.  Its even bins are E = FFT_M(x) and its odd bins
    O = FFT_M(x * twiddle), so
    r[m] = (IFFT_M(|E|^2)[m] + conj(twiddle[m]) * IFFT_M(|O|^2)[m]) / 2.
    Negative lags follow from r[-m] = conj(r[m]).
    """
    r = _real_idft(_power(np.fft.fft(x * twiddle, axis=-1)))
    r *= twiddle.conj()
    r += _real_idft(_power(np.fft.fft(x, axis=-1)))
    r *= 0.5 / x.shape[-1]
    return r


def autocorrelation(pulse: SampledPulse) -> CorrelationSeries:
    """Aperiodic autocorrelation R[m] = sum_p x[p] conj(x[p-m]).

    Out-of-range samples count as zero.  Computed from the 2M-point spectrum
    of the zero-padded samples, split into its even and odd bins (M-point
    FFTs); the direct O(M^2) sum is kept as a test oracle only.
    """
    x = pulse.samples
    m = len(x)
    if m == 0:
        raise DegeneratePulseError("empty pulse")
    r = _acf_half(x[None, :], _twiddle(m))[0]
    values = np.concatenate([r[:0:-1].conj(), r])
    lags = np.arange(-(m - 1), m)
    return CorrelationSeries(lags=lags, values=values)


def _mainlobe_lags(spec: PulseSpec) -> int:
    """Lags closer to zero than this belong to the mainlobe.

    The mainlobe exclusion covers |tau| < 1/B on each side of zero lag, i.e.
    twice the Rayleigh resolution in total; with dt = 1/(B*L) that is every
    lag with |m| < L.
    """
    return int(np.ceil((1.0 / spec.bandwidth_hz) / spec.sample_period_s - 1e-9))


def _split_sidelobes(mag: np.ndarray, min_lag: int) -> tuple[np.ndarray, np.ndarray]:
    """Split ACF magnitudes at lags 0, 1, 2, ... along the last axis into
    (sidelobe magnitudes, zero-lag peak)."""
    peak = mag[..., 0]
    if not np.all(peak > 0):
        raise DegeneratePulseError("zero-energy autocorrelation")
    if min_lag >= mag.shape[-1]:
        raise UndefinedSidelobesError(
            "no autocorrelation lag falls outside the mainlobe exclusion zone"
        )
    return mag[..., min_lag:], peak


def _sidelobe_magnitudes(acf: CorrelationSeries, spec: PulseSpec) -> tuple[np.ndarray, float]:
    """Split the ACF into (sidelobe magnitudes of both wings, peak magnitude)."""
    mag = np.abs(acf.values)
    right, peak = _split_sidelobes(mag[len(mag) // 2:], _mainlobe_lags(spec))
    return np.concatenate([mag[:len(right)], right]), peak


def _pslr_db(side: np.ndarray, peak) -> np.ndarray:
    return 20.0 * np.log10(side.max(axis=-1) / peak)


def _islr_db(side: np.ndarray, peak, wings: int = 1) -> np.ndarray:
    """``wings`` is 2 when ``side`` holds one wing of a Hermitian ACF."""
    return 20.0 * np.log10(wings * side.sum(axis=-1) / peak)


def pslr(acf: CorrelationSeries, spec: PulseSpec) -> float:
    """Peak sidelobe over mainlobe peak, in dB (20*log10)."""
    return float(_pslr_db(*_sidelobe_magnitudes(acf, spec)))


def islr(acf: CorrelationSeries, spec: PulseSpec) -> float:
    """Summed sidelobe magnitude over mainlobe peak, in dB (20*log10).

    The sum runs over both sidelobe wings on the oversampled lag grid, so the
    value depends on the oversampling factor; report L next to it.
    """
    return float(_islr_db(*_sidelobe_magnitudes(acf, spec)))


def evaluate_objectives(pulse: SampledPulse) -> ObjectiveReport:
    """PMEPR, PSLR and ISLR of one pulse (single ACF pass)."""
    acf = autocorrelation(pulse)
    return ObjectiveReport(
        pmepr_linear=pmepr(pulse),
        pslr_db=pslr(acf, pulse.spec),
        islr_db=islr(acf, pulse.spec),
    )


# Genomes per batched transform.  A block of a few pulses already amortizes
# numpy's per-call overhead; larger blocks only grow peak memory.
_BLOCK = 8


class PhaseEvaluator:
    """Scores blocks of phase genomes on one pulse spec, weights and mask.

    Phases come as a (P, N, K) array, genome p holding the phase matrix of
    ``PhaseCodeMatrix`` (wrapped into [0, 2*pi) the same way).  Each block
    of ``_BLOCK`` genomes takes one batched synthesis IFFT.  ``pmepr``
    returns exactly the values of ``pmepr(synthesize(...))``; ``objectives``
    adds PSLR and ISLR, which agree with ``pslr``/``islr`` of
    ``autocorrelation`` to rounding.

    With K > 1 symbols the sidelobes come from the batched sample-domain ACF
    (``_acf_half``).  With one symbol they come from the codes
    c_n = w_n * exp(1j*phi_n) alone.  With omega = exp(2j*pi/M),
    g_d = 1/(1 - omega^d) for 0 < |d| < N and u_n = sum_{k != n} conj(c_k) g_{n-k},
    the unnormalized ACF at lags m = 0..M-1 is

        r[m] = (M - m) * sum_n w_n^2 omega^(n*m) + 1j * sum_n y_n omega^(n*m),
        y_n = 2 * Im(c_n * u_n),

    the diagonal (n = k) and cross terms of the double sum over carrier pairs
    (y is real because the two cross sums are conjugates of each other).  The
    first term and the peak r[0] = M * sum(w^2) depend on the weights only.
    Per genome this costs a 2N-point FFT convolution for u and one real
    ``rfft`` of y: no M-point complex transform beyond synthesis.
    """

    def __init__(
        self,
        spec: PulseSpec,
        weights: WeightVector,
        mask: SparsityMask | None = None,
    ) -> None:
        w = effective_weights(spec, weights, mask)
        self.spec = spec
        self._w = w
        self._min_lag = _mainlobe_lags(spec)
        # zero-padded spectra, reused by every block
        self._spectra = np.zeros((_BLOCK, spec.n_symbols, spec.samples_per_symbol), dtype=complex)
        m = spec.n_samples
        if spec.n_symbols > 1:
            self._twiddle = _twiddle(m)
            return
        n = spec.n_subcarriers
        half = m // 2 + 1
        # 2 * g_d at index d mod 2N, so a 2N-point circular convolution with
        # conj(c) is the linear one over 0 < |n - k| < N
        d = np.arange(1, n)
        g = np.zeros(2 * n, dtype=complex)
        g[d] = 2.0 / (1.0 - np.exp(2j * np.pi * d / m))
        g[-d] = g[d].conj()
        self._g_spectrum = np.fft.fft(g)
        # weights-only term D[m] = (M - m) * sum_n w_n^2 omega^(n*m); with
        # R = rfft(y, M), |r[m]| = |R[m] + 1j*conj(D[m])| for m < half and
        # |r[m]| = |R[M-m] - 1j*D[m]| above
        diagonal = (m - np.arange(m)) * np.fft.ifft(w**2, n=m) * m
        self._lower = -1j * diagonal[:half].conj()
        self._upper = 1j * diagonal[half:]
        # block buffers the transforms write into (numpy >= 2.0 ``out=``):
        # fresh temporaries of this size come back as new pages every block
        self._conj_codes = np.zeros((_BLOCK, 2 * n), dtype=complex)
        self._conv = np.empty((_BLOCK, 2 * n), dtype=complex)
        self._y = np.zeros((_BLOCK, m))
        self._half = np.empty((_BLOCK, half), dtype=complex)
        self._diff = np.empty((_BLOCK, half), dtype=complex)
        self._mag = np.empty((_BLOCK, m))

    def _blocks(self, phases: np.ndarray):
        """Unit-energy samples (B, M) of each block of at most _BLOCK genomes."""
        phases = np.asarray(phases, dtype=float)
        for start in range(0, len(phases), _BLOCK):
            block = wrap_phases(phases[start:start + _BLOCK])
            yield synthesize_rows(self.spec, self._w, block, self._spectra)

    def _code_acf_magnitudes(self, count: int) -> np.ndarray:
        """|r[m]|, m = 0..M-1, of the first ``count`` single-symbol pulses whose
        codes synthesis left in ``_spectra``; unnormalized (peak M * sum(w^2))."""
        n, m = self.spec.n_subcarriers, self.spec.n_samples
        half = self._lower.shape[-1]
        codes = self._spectra[:count, 0, :n]
        padded = self._conj_codes[:count]
        np.conjugate(codes, out=padded[:, :n])
        spectrum = np.fft.fft(padded, axis=-1, out=self._conv[:count])
        spectrum *= self._g_spectrum
        u = np.fft.ifft(spectrum, axis=-1, out=spectrum)[:, :n]
        u *= codes
        y = self._y[:count]
        y[:, :n] = u.imag
        r = np.fft.rfft(y, axis=-1, out=self._half[:count])
        diff = self._diff[:count]
        mag = self._mag[:count]
        np.subtract(r, self._lower, out=diff)
        np.abs(diff, out=mag[:, :half])
        diff = diff[:, :m - half]
        np.subtract(r[:, m - half:0:-1], self._upper, out=diff)
        np.abs(diff, out=mag[:, half:])
        return mag

    def pmepr(self, phases: np.ndarray) -> np.ndarray:
        """PMEPR of every genome, shape (P,)."""
        return np.concatenate([np.empty(0)] + [_pmepr_rows(x) for x in self._blocks(phases)])

    def objectives(self, phases: np.ndarray) -> np.ndarray:
        """Columns (PMEPR, PSLR dB, ISLR dB) of every genome, shape (P, 3)."""
        rows = [np.empty((0, 3))]
        for x in self._blocks(phases):
            if self.spec.n_symbols == 1:
                mag = self._code_acf_magnitudes(len(x))
            else:
                mag = np.abs(_acf_half(x, self._twiddle))
            side, peak = _split_sidelobes(mag, self._min_lag)
            rows.append(np.column_stack([
                _pmepr_rows(x), _pslr_db(side, peak), _islr_db(side, peak, wings=2),
            ]))
        return np.concatenate(rows)
