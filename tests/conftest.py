"""Shared test helpers: independent oracles and small pulse builders."""
from __future__ import annotations

import itertools

import numpy as np

from ofdmforge import (
    PhaseCodeMatrix,
    PulseSpec,
    SparsityMask,
    pmepr,
    synthesize,
    uniform_weights,
)


def direct_acf(x: np.ndarray) -> np.ndarray:
    """O(M^2) brute-force aperiodic autocorrelation, lags -(M-1)..(M-1).

    Independent oracle for the FFT path: plain shifted dot products.
    """
    m = len(x)
    out = np.zeros(2 * m - 1, dtype=complex)
    for lag in range(-(m - 1), m):
        # sum over p of x[p] * conj(x[p - lag]) for 0 <= p, p - lag < m
        lo, hi = max(lag, 0), min(m, m + lag)
        out[lag + m - 1] = np.dot(x[lo:hi], np.conj(x[lo - lag:hi - lag]))
    return out


def encode_phases(phases: np.ndarray, bits_per_var: int) -> np.ndarray:
    """Inverse of ``decode_phases`` on the quantized phase lattice: an (n, k)
    phase array in, its (n*k*bits_per_var,) bit string out.

    Phases are snapped to the nearest lattice point 2*pi*v/2**b before
    encoding, so encode(decode(g)) == g for every genome g.
    """
    b = bits_per_var
    levels = 1 << b
    values = np.rint(np.reshape(phases, -1) * levels / (2 * np.pi)).astype(np.int64) % levels
    shifts = np.arange(b - 1, -1, -1, dtype=np.int64)
    bits = (values[:, None] >> shifts[None, :]) & 1
    return bits.reshape(-1).astype(bool)


def brute_force_fronts(objectives: np.ndarray) -> list[list[int]]:
    """Non-domination fronts by repeated O(n^2) scans; oracle for the sort."""
    objectives = np.asarray(objectives, dtype=float)
    remaining = list(range(len(objectives)))
    fronts = []
    while remaining:
        front = []
        for i in remaining:
            dominated = False
            for j in remaining:
                if j == i:
                    continue
                a, b = objectives[j], objectives[i]
                if np.all(a <= b) and np.any(a < b):
                    dominated = True
                    break
            if not dominated:
                front.append(i)
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


def brute_force_rank(objectives: np.ndarray) -> np.ndarray:
    """Each row's front index under ``brute_force_fronts``, 0 for the first."""
    rank = np.empty(len(objectives), dtype=int)
    for r, front in enumerate(brute_force_fronts(objectives)):
        rank[front] = r
    return rank


def max_weight_gain(gains: np.ndarray, v_l: float, v_u: float) -> float:
    """The exact maximum of sum s*g / sum s over s in [v_l^2, v_u^2]^N: the
    largest gain sum w^2*g any raw weights in [v_l, v_u] reach once scaled
    to unit energy (s = raw^2).

    A linear-fractional objective on a box peaks at a vertex, and raising
    s_n pulls the ratio toward g_n, so the best vertex puts v_u^2 on the k
    largest gains and v_l^2 on the rest (Charnes & Cooper 1962).  One scan
    over the gains in descending order tries every k = 0..N.
    """
    g = np.sort(np.asarray(gains, dtype=float))[::-1]
    lo, hi = v_l * v_l, v_u * v_u
    k = np.arange(len(g) + 1)
    top = np.concatenate([[0.0], np.cumsum(g)])  # the sum of the k largest gains
    rest = np.concatenate([np.cumsum(g[::-1])[::-1], [0.0]])  # the others' sum
    return float(np.max((hi * top + lo * rest) / (hi * k + lo * (len(g) - k))))


def random_pulse(rng: np.random.Generator, n=None, k=None, oversampling=None):
    """(spec, samples) of a random full-band pulse with small random dimensions."""
    n = n or int(rng.integers(2, 12))
    k = k or int(rng.integers(1, 4))
    oversampling = oversampling or int(rng.integers(1, 8))
    spec = PulseSpec(n, k, 1e5, oversampling)
    codes = PhaseCodeMatrix(rng.uniform(0, 2 * np.pi, (n, k)))
    mask = SparsityMask.full(n)
    return spec, synthesize(spec, codes, uniform_weights(mask), mask)


def lattice_pmeprs(n: int, bits: int, oversampling: int = 20) -> tuple[np.ndarray, np.ndarray]:
    """Every code of the 2**bits-PSK lattice with phi_0 = 0 as (P, n, 1)
    phases, and the PMEPR of each full-band, single-symbol pulse of ``n``
    equally weighted subcarriers, from ``pmepr(synthesize(...))``.

    PMEPR does not change under a global phase rotation, and the lattice is
    closed under rotation by its own steps, so phi_0 = 0 loses no PMEPR:
    P = (2**bits)**(n - 1) pulses.
    """
    spec = PulseSpec(n, 1, 1e5, oversampling)
    mask = SparsityMask.full(n)
    weights = uniform_weights(mask)
    words = np.array(list(itertools.product(range(2**bits), repeat=n - 1)))
    phases = np.column_stack([np.zeros(len(words)), words])[:, :, None] * (2 * np.pi / 2**bits)
    values = np.array([pmepr(synthesize(spec, PhaseCodeMatrix(p), weights, mask)) for p in phases])
    return phases, values


def lattice_optimum(n: int, bits: int, oversampling: int = 20) -> float:
    """The exact least PMEPR over ``lattice_pmeprs``: a yardstick no search
    on that lattice may beat."""
    return float(lattice_pmeprs(n, bits, oversampling)[1].min())


# Binary Golay complementary seed pairs of lengths 2, 10 and 26 (Golay 1961, 1962)
GOLAY_SEEDS = (
    ([1, 1], [1, -1]),
    ([1, 1, -1, 1, -1, 1, -1, -1, 1, 1], [1, 1, -1, 1, 1, 1, 1, 1, -1, -1]),
    (
        [1, 1, 1, 1, -1, 1, 1, -1, -1, 1, -1, 1, -1, 1, -1, -1, 1, -1, 1, 1, 1, -1, -1, 1, 1, 1],
        [1, 1, 1, 1, -1, 1, 1, -1, -1, 1, -1, 1, 1, 1, 1, 1, -1, 1, -1, -1, -1, 1, 1, -1, -1, -1],
    ),
)


def golay_pair(seed: int, doublings: int) -> tuple[np.ndarray, np.ndarray]:
    """A binary (+-1) Golay complementary pair: ``GOLAY_SEEDS[seed]`` grown
    ``doublings`` times by (a, b) -> (a|b, a|-b), which keeps the pair
    complementary, so its length is len(seed) * 2**doublings.

    The aperiodic autocorrelations of a and b sum to 2N at lag 0 and to 0
    elsewhere, so |A(t)|^2 + |B(t)|^2 = 2N for the two multitone pulses
    and neither has a PMEPR above 2 at any sampling (Popovic 1991).
    """
    a, b = (np.array(x, dtype=float) for x in GOLAY_SEEDS[seed])
    for _ in range(doublings):
        a, b = np.concatenate([a, b]), np.concatenate([a, -b])
    return a, b


def turyn_pair(a, b, c, d) -> tuple[np.ndarray, np.ndarray]:
    """Turyn's product (J. Comb. Theory A 16, 1974) of the binary Golay pairs
    (a, b) of length m and (c, d) of length n: with s = (c + d)/2 and
    t = (c - d)/2, a +-1 complementary pair of length m*n,

        e = a (x) s + rev(b) (x) t,    f = b (x) s - rev(a) (x) t,

    (x) the Kronecker product.  It reaches lengths doubling cannot, such as
    100 = 10 * 10.
    """
    s, t = (c + d) / 2, (c - d) / 2
    return np.kron(a, s) + np.kron(b[::-1], t), np.kron(b, s) - np.kron(a[::-1], t)
