"""Objective functions of OFDM pulses: PMEPR, PSLR and ISLR.

PMEPR is the peak-to-mean envelope power ratio of the complex baseband
samples (reported linear).  PSLR and ISLR are sidelobe measures of the
autocorrelation magnitude, reported as 20*log10 ratios against the zero-lag
peak.  Lags closer to zero than the Rayleigh resolution 1/B on either side
belong to the mainlobe and are excluded from both sidelobe metrics; on the
L-times oversampled grid, dt = 1/(B*L), those are the lags |m| < L.

A pulse of K symbols of S = N*L samples, symbol j being
x_j[t] = sum_n c_{n,j} omega^(n*t) with omega = exp(2j*pi/S), has the
aperiodic autocorrelation (a double sum over carrier pairs, cf. Levanon &
Mozeson, *Radar Signals*, 2004, multicarrier phase-coded signals)

    r[d*S + tau] = S * T(A_d) - tau * T(A_d - A_{d+1}) + T(Z_d - Z_{d+1})

at the lags d*S + tau, 0 <= d < K, 0 <= tau < S, where
T(v)[tau] = sum_n v_n omega^(n*tau) is the S-point transform of an N-sparse
row and A_d and Z_d are the symbol-pair sums, elementwise in n,

    A_d = sum_j c_{j+d} conj(c_j),
    Z_d = sum_j (c_{j+d} U(c_j) - conj(c_j U(c_{j+d}))),
    U_n(b) = sum_{k != n} conj(b_k) / (1 - omega^(n-k)),

over j = 0..K-1-d, with A_K = Z_K = 0.  Symbols d apart overlap in their
partial cross-correlation at tau, symbols d + 1 apart in the rest of their
periodic one, which is S * T(.) of the diagonal (n = k) terms alone because
the subcarriers are orthogonal over a symbol.  With one symbol M = S,
A_0 = |c|^2 and Z_0 = 2j * Im(c U(c)), so

    r[m] = (M - m) * sum_n |c_n|^2 omega^(n*m) + 1j * sum_n y_n omega^(n*m),
    y_n = 2 * Im(c_n U_n(c)),

for lags m = 0..M-1.  ``PhaseEvaluator`` scores sidelobes from the codes
c_{n,j} by these identities, without an ACF of the samples.

PMEPR needs no synthesis either.  With S = N*L samples per symbol, sample
t = p*L + q (p < N, q < L) of a symbol is

    x[t] = sum_n c_n exp(2j*pi*n*q/S) exp(2j*pi*n*p/N),

bin p of an N-point DFT of the twiddled codes c_n exp(2j*pi*n*q/S): the
polyphase (Cooley-Tukey) split of the zero-padded S-point DFT.
``PhaseEvaluator`` runs it with the conjugate twiddle and a forward FFT,
which visits the same samples in the order t -> -t mod S; a maximum does not
depend on the order.  By Parseval every symbol has mean power
sum_n |c_n|^2 = sum_n w_n^2, known before any genome is scored, and PMEPR
does not depend on scale, so PMEPR = max |FFT|^2 / sum(w^2), with no
unit-energy pass.

``PhaseEvaluator`` is the one path from phases to objectives: the
optimizers and every CLI kind score through it.  ``pmepr`` and
``autocorrelation`` take the (M,) samples that ``synthesize`` returns, and
``pslr`` and ``islr`` an ``autocorrelation`` array: the sample-domain oracle.
"""
from __future__ import annotations

import functools
import os
import threading

import numpy as np

from .errors import DegeneratePulseError, UndefinedSidelobesError
from .waveform import (
    PulseSpec,
    SparsityMask,
    WeightVector,
    effective_weights,
    subcarrier_codes,
)


def pmepr(x: np.ndarray) -> float:
    """max |x|^2 / mean |x|^2 over the pulse samples ``x``."""
    power = x.real**2 + x.imag**2
    mean = power.mean()
    if not mean > 0:
        raise DegeneratePulseError("zero-energy pulse has no PMEPR")
    return float(power.max() / mean)


def _real_idft(y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sum_k y[k] exp(2j*pi*k*m/M) along the last axis of real y, i.e.
    M * IFFT_M(y), from the half spectrum rfft(y); written into ``out``
    (complex, y's shape) and returned.

    numpy takes a slow path for a real array passed to ``ifft``.  For real y,
    M * IFFT_M(y)[m] = conj(FFT_M(y)[m]), and FFT_M(y)[m] = conj(FFT_M(y)[M-m]),
    so the bins above M/2 mirror the half spectrum.
    """
    m = y.shape[-1]
    half = np.fft.rfft(y, axis=-1)
    h = half.shape[-1]
    np.conjugate(half, out=out[..., :h])
    out[..., h:] = half[..., m - h:0:-1]
    return out


def autocorrelation(x: np.ndarray) -> np.ndarray:
    """Aperiodic autocorrelation R[m] = sum_p x[p] conj(x[p-m]) of the M
    samples x, a (2M-1,) array at lags m = -(M-1)..M-1: zero lag is index M-1.

    Out-of-range samples count as zero.  Computed the textbook way, as the
    inverse DFT of |X|^2 with X the 2M-point DFT of the zero-padded samples,
    so it shares no kernel with ``PhaseEvaluator``; the direct O(M^2) sum is
    kept as a test oracle only.
    """
    m = len(x)
    if m == 0:
        raise DegeneratePulseError("empty pulse")
    r = np.fft.ifft(np.abs(np.fft.fft(x, 2 * m)) ** 2)
    # bins m+1..2m-1 of the circular ACF are lags -(m-1)..-1
    return np.concatenate([r[m + 1:], r[:m]])


def _split_sidelobes(mag: np.ndarray, spec: PulseSpec) -> tuple[np.ndarray, np.ndarray]:
    """Split ACF magnitudes at lags 0, 1, 2, ... along the last axis into
    (sidelobe magnitudes, zero-lag peak); the mainlobe is the lags |m| < L."""
    peak = mag[..., 0]
    if not np.all(peak > 0):
        raise DegeneratePulseError("zero-energy autocorrelation")
    if spec.oversampling >= mag.shape[-1]:
        raise UndefinedSidelobesError(
            "no autocorrelation lag falls outside the mainlobe exclusion zone"
        )
    return mag[..., spec.oversampling:], peak


def _sidelobe_magnitudes(acf: np.ndarray, spec: PulseSpec) -> tuple[np.ndarray, float]:
    """(Sidelobe magnitudes of both wings, peak magnitude) of an ACF array."""
    mag = np.abs(acf)
    right, peak = _split_sidelobes(mag[len(mag) // 2:], spec)
    return np.concatenate([mag[:len(right)], right]), peak


def _pslr_db(side: np.ndarray, peak) -> np.ndarray:
    return 20.0 * np.log10(side.max(axis=-1) / peak)


def _islr_db(side: np.ndarray, peak, wings: int = 1) -> np.ndarray:
    """``wings`` is 2 when ``side`` holds one wing of a Hermitian ACF."""
    return 20.0 * np.log10(wings * side.sum(axis=-1) / peak)


def pslr(acf: np.ndarray, spec: PulseSpec) -> float:
    """Peak sidelobe over mainlobe peak of an ``autocorrelation`` array, in dB."""
    return float(_pslr_db(*_sidelobe_magnitudes(acf, spec)))


def islr(acf: np.ndarray, spec: PulseSpec) -> float:
    """Summed sidelobe magnitude over mainlobe peak of an ``autocorrelation``
    array, in dB.

    The sum runs over both sidelobe wings on the oversampled lag grid, so the
    value depends on the oversampling factor; report L next to it.
    """
    return float(_islr_db(*_sidelobe_magnitudes(acf, spec)))


# Bytes of one block's ``_bins`` buffer, K*L*N complex values a genome; a
# block holds as many genomes as fit, and at least one.  That is 40 genomes at
# N = 100, K = 1, L = 20, a whole NSGA-II generation of that shape in one
# pass, and 8 at N = 125, K = 4, L = 20.  Single-symbol blocks get cheaper per
# genome the more they hold.  With K > 1 the sidelobe kernel's padded rows
# and their transforms take twice ``_bins``'s bytes each, and at N = 125,
# K = 4, L = 20 blocks of 16 and 40 genomes were about 5% and 10% slower
# than blocks of 8.
_BLOCK_BYTES = 5 * 2**18

# The worker thread that scores the upper half of a large block (see
# ``PhaseEvaluator``): (pid, its jobs queue).  One per process, shared by
# every evaluator, since a thread of its own would outlive each one; the pid
# is checked because a forked child inherits the queue but not the thread.
_worker: tuple | None = None


def _serve(jobs) -> None:
    while True:
        job, reply = jobs.get()
        try:
            outcome = job(), None
        except BaseException as error:  # handed to the caller, which re-raises it
            outcome = None, error
        # the job is released before its outcome is handed over, and neither
        # is held while the worker waits: either would keep its evaluator alive
        del job
        reply.put(outcome)
        del outcome, reply


def _on_both_threads(low, high) -> tuple:
    """(low(), high()), with high() on the worker thread; high's exception
    is raised only once low has returned, and low's once high is done."""
    global _worker
    import queue  # here: a process that never splits a block never needs it

    if _worker is None or _worker[0] != os.getpid():
        _worker = os.getpid(), queue.SimpleQueue()
        threading.Thread(target=_serve, args=(_worker[1],), daemon=True).start()
    reply = queue.SimpleQueue()
    _worker[1].put((high, reply))
    try:
        first = low()
    finally:
        second, error = reply.get()
    if error is not None:
        try:
            raise error
        finally:
            del error  # a frame that holds its own exception is a reference cycle
    return first, second


def _cpus() -> int:
    """The CPUs this process may run on (all of them where the platform
    has no affinity mask)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class PhaseEvaluator:
    """Scores blocks of phase genomes on one pulse spec, weights and mask.

    Phases come as a (P, N, K) array, genome p holding the phase matrix of
    ``PhaseCodeMatrix``.  They may be any finite values: exp(1j*phi) is
    2*pi-periodic, so no block is wrapped.  A block is as many genomes as
    fit in ``_BLOCK_BYTES`` at K*L*N complex values each (at least one), and
    each block's codes are formed once.  A call that fits one block, an
    empty one included, is scored as that block and returns its kernel's
    result as is; a larger call concatenates its blocks' results.  Every
    genome of a block has one complex row in ``_bins`` (PMEPR's polyphase
    bins), one float row of K*S values in ``_envelope`` (the power, then
    |r|) and one complex row of 2KN points in ``_conv`` (the sidelobe
    kernel's convolution).  With one symbol the sidelobe kernel reuses
    ``_bins`` once PMEPR is taken, for M * IFFT_M(y); with K > 1 it has two
    complex rows of 2KS points, the zero-padded pair sums and their
    transforms.

    PMEPR comes from the codes c = w * exp(1j*phi) by the polyphase identity
    of the module docstring: per block one multiply by a precomputed (L, N)
    twiddle table, one batched N-point FFT over (B, K, L, N), re^2 + im^2,
    a row maximum and a division by the precomputed sum(w^2).  No pulse is
    synthesized and none is scaled to unit energy.  ``pmepr`` agrees with
    ``pmepr(synthesize(...))`` and with the direct subcarrier sum to 1e-12
    relative (a different summation order, so not bit for bit).
    ``objectives`` takes PMEPR from the same kernel for every K, so its
    column is ``pmepr``'s bit for bit, and adds PSLR and ISLR, which agree
    with ``pslr``/``islr`` of ``autocorrelation`` to rounding.

    The sidelobes come from the codes alone, by the pair-sum identity of the
    module docstring, for every K.  Each block starts with one batched
    2N-point FFT convolution of every symbol's conjugate codes with
    2 * g_d, g_d = 1/(1 - omega^d) for 0 < |d| < N, which gives 2 * U(c_j).
    With one symbol, y_n = 2 * Im(c_n U_n) is real (the two cross sums are
    conjugates of each other), and the first term of r and the peak
    r[0] = M * sum(w^2) depend on the weights only, so a genome costs the
    convolution and one real ``rfft`` of y, and no complex transform of
    length M.  With K > 1 the block forms the sparse rows
    2 * (S*A_d + Z_d - Z_{d+1}) and 2 * (A_d - A_{d+1}) of every d (the 2 of
    Z comes with 2 * U, and the constants 2S and 2*tau carry the 2 of A,
    which is exact) in the first N points of zero-padded rows and runs
    their 2K S-point transforms (norm="forward"), so
    2r = first - 2*tau * second.  A scale common to every genome of a spec
    changes no sidelobe ratio.  Every transform but one writes into a buffer
    the evaluator allocated once: with one symbol, ``_real_idft``'s ``rfft``
    allocates y's (B, M/2 + 1) half spectrum every block.

    A block whose ``_bins`` rows hold at least half of ``_BLOCK_BYTES`` is
    scored on two threads when the process may run on more than one CPU:
    the caller scores its lower half of the rows and one worker thread,
    started on the first such block and shared by every evaluator of the
    process, the upper half, each in its own rows of the block buffers.
    Each split hands its upper half to the worker with a reply queue of its
    own and waits on that reply once its lower half is done, so concurrent
    callers queue on the one worker and read only their own outcomes.
    numpy releases the interpreter lock inside its transforms and array
    loops, so the halves overlap; every row is scored by the same kernel
    either way, so the scores are the serial ones bit for bit.  Smaller
    blocks (a 12-genome generation at N = 100, L = 20) stay on the caller's
    thread, where a split cost more than it saved.
    """

    def __init__(
        self,
        spec: PulseSpec,
        weights: WeightVector,
        mask: SparsityMask | None = None,
    ) -> None:
        w = effective_weights(spec, weights, mask)
        # mean power of every pulse (Parseval); w^2 can underflow to 0 or
        # overflow to inf, and either is rejected below
        with np.errstate(over="ignore"):
            energy = float(np.sum(w * w))
        if not 0 < energy < np.inf:
            raise DegeneratePulseError(f"effective weights have energy {energy}")
        self.spec = spec
        self._w = w
        self._active = w != 0
        self._active.flags.writeable = False
        self._energy = energy
        n, k, ell = spec.n_subcarriers, spec.n_symbols, spec.oversampling
        s = spec.samples_per_symbol
        # exp(-2j*pi*n*q/S), the exponent reduced mod S in integers
        self._polyphase = np.exp(-2j * np.pi * (np.outer(np.arange(ell), np.arange(n)) % s) / s)
        # block buffers the kernels write into (numpy >= 2.0 ``out=``):
        # fresh temporaries of this size come back as new pages every block
        rows = max(1, _BLOCK_BYTES // (16 * k * s))
        self._bins = np.empty((rows, k, ell, n), dtype=complex)
        self._envelope = np.empty((rows, k * s))
        # 2 * g_d at index d mod 2N, so a 2N-point circular convolution with
        # conj(c) is the linear one over 0 < |n - k| < N
        d = np.arange(1, n)
        g = np.zeros(2 * n, dtype=complex)
        g[d] = 2.0 / (1.0 - np.exp(2j * np.pi * d / s))
        g[-d] = g[d].conj()
        self._g_spectrum = np.fft.fft(g)
        self._conv = np.empty((rows, k, 2 * n), dtype=complex)
        if k > 1:
            # the sparse rows of the pair sums (their zero tails padded once:
            # numpy's own padding through ``n=`` was about 40% slower), their
            # S-point transforms, and 2 * tau
            self._pair_sums = np.zeros((rows, 2, k, s), dtype=complex)
            self._transforms = np.empty((rows, 2, k, s), dtype=complex)
            self._lags = 2.0 * np.arange(s)
            return
        m = spec.n_samples
        # 1j * D[m], D[m] = (M - m) * sum_n w_n^2 omega^(n*m) the weights-only
        # term: at every lag |r[m]| = |M * IFFT_M(y)[m] - 1j * D[m]|
        self._diagonal = 1j * ((m - np.arange(m)) * np.fft.ifft(w**2, n=m) * m)

    @property
    def active(self) -> np.ndarray:
        """Read-only (N,) bool array, True where the effective weight is
        nonzero.  A subcarrier that is not active has code +-0 whatever its
        phase, so its phases never change a score, bit for bit."""
        return self._active

    def _pmepr_codes(self, codes: np.ndarray, start: int) -> np.ndarray:
        """PMEPR of the pulses with codes (B, K, N), by the polyphase split:
        each row's max |bins|^2 over sum(w^2) (Parseval).  The bins' re/im
        lanes are squared in place and summed into ``_envelope``, since fresh
        temporaries of a block's size come back as new pages every block.
        Uses the buffer rows ``start`` to ``start + B``."""
        count = len(codes)
        rows = slice(start, start + count)
        bins = self._bins[rows]
        np.multiply(codes[:, :, None, :], self._polyphase, out=bins)
        np.fft.fft(bins, axis=-1, out=bins)
        # K*S bins a row, spelled out: an empty block cannot infer it
        lanes = bins.reshape(count, self._envelope.shape[1]).view(float)
        np.multiply(lanes, lanes, out=lanes)
        power = np.add(lanes[:, 0::2], lanes[:, 1::2], out=self._envelope[rows])
        return power.max(axis=1) / self._energy

    def _code_acf_magnitudes(self, codes: np.ndarray, start: int) -> np.ndarray:
        """|r[m]|, m = 0..M-1, of the pulses with codes (B, K, N), up to a
        scale common to the spec.  Overwrites the buffer rows ``start`` to
        ``start + B`` of ``_envelope``, and returns a (B, M) view of them;
        with one symbol it overwrites those of ``_bins`` too."""
        count, k, n = codes.shape
        s, m = self.spec.samples_per_symbol, self.spec.n_samples
        rows = slice(start, start + count)
        spectrum = np.fft.fft(np.conjugate(codes), n=2 * n, axis=-1, out=self._conv[rows])
        spectrum *= self._g_spectrum
        u = np.fft.ifft(spectrum, axis=-1, out=spectrum)[..., :n]  # 2 * U(c_j)
        y = self._envelope[rows]
        if k == 1:
            u *= codes
            y[:, :n] = u[:, 0].imag
            y[:, n:] = 0.0
            r = _real_idft(y, out=self._bins[rows].reshape(count, m))
            r -= self._diagonal
            return np.abs(r, out=y)  # the transform has read y
        # rows 2*(S*A_d + Z_d - Z_{d+1}) and 2*(A_d - A_{d+1}); u carries the
        # 2 of Z, and the constants 2S and 2*tau carry the 2 of A
        pairs = self._pair_sums[rows]
        sums, slopes = pairs[:, 0, :, :n], pairs[:, 1, :, :n]
        for d in range(k):
            lead, lag = codes[:, d:], codes[:, :k - d]  # c_{j+d}, c_j
            np.sum(lead * lag.conj(), axis=1, out=slopes[:, d])
            np.sum(lead * u[:, :k - d], axis=1, out=sums[:, d])
            sums[:, d] -= np.sum(lag * u[:, d:], axis=1).conj()
        sums[:, :-1] -= sums[:, 1:]
        sums += 2 * s * slopes
        slopes[:, :-1] -= slopes[:, 1:]
        t = np.fft.ifft(pairs, axis=-1, norm="forward", out=self._transforms[rows])
        t[:, 1] *= self._lags
        t[:, 0] -= t[:, 1]
        return np.abs(t[:, 0], out=y.reshape(count, k, s)).reshape(count, m)

    def _objective_rows(self, codes: np.ndarray, start: int) -> np.ndarray:
        """(PMEPR, PSLR dB, ISLR dB) rows of the pulses with codes (B, K, N),
        in the buffer rows ``start`` to ``start + B``."""
        pmeprs = self._pmepr_codes(codes, start)
        side, peak = _split_sidelobes(self._code_acf_magnitudes(codes, start), self.spec)
        return np.column_stack([pmeprs, _pslr_db(side, peak), _islr_db(side, peak, wings=2)])

    def _split(self, kernel, phases: np.ndarray) -> np.ndarray:
        """kernel(codes, 0) of one block's phases (B, N, K); the lower and
        upper half of a large block's rows on two threads when more than one
        CPU is available, each half forming its own codes."""
        count = len(phases)
        if count < 2 or count * self._bins.strides[0] < _BLOCK_BYTES / 2 or _cpus() < 2:
            return kernel(subcarrier_codes(self.spec, self._w, phases), 0)

        def rows(start: int, stop: int) -> np.ndarray:
            return kernel(subcarrier_codes(self.spec, self._w, phases[start:stop]), start)

        half = count // 2
        return np.concatenate(_on_both_threads(
            functools.partial(rows, 0, half), functools.partial(rows, half, count),
        ))

    def _score(self, kernel, phases: np.ndarray) -> np.ndarray:
        """kernel's rows for every genome of ``phases`` (P, N, K), a block of
        at most len(_bins) genomes at a time; a call that fits one block,
        P = 0 included, is scored as that block."""
        phases = np.asarray(phases, dtype=float)
        if not np.isfinite(phases).all():
            raise ValueError("phases must be finite")
        rows = len(self._bins)
        if len(phases) <= rows:
            return self._split(kernel, phases)
        return np.concatenate([
            self._split(kernel, phases[start:start + rows]) for start in range(0, len(phases), rows)
        ])

    def pmepr(self, phases: np.ndarray) -> np.ndarray:
        """PMEPR of every genome, shape (P,)."""
        return self._score(self._pmepr_codes, phases)

    def objectives(self, phases: np.ndarray) -> np.ndarray:
        """Columns (PMEPR, PSLR dB, ISLR dB) of every genome, shape (P, 3)."""
        return self._score(self._objective_rows, phases)
