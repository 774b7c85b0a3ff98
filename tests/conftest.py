"""Shared test helpers: independent oracles and small pulse builders."""
from __future__ import annotations

import numpy as np

from ofdmforge import (
    PhaseCodeMatrix,
    PulseSpec,
    SparsityMask,
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


def random_pulse(rng: np.random.Generator, n=None, k=None, oversampling=None):
    """A random full-band pulse with small random dimensions."""
    n = n or int(rng.integers(2, 12))
    k = k or int(rng.integers(1, 4))
    oversampling = oversampling or int(rng.integers(1, 8))
    spec = PulseSpec(n, k, 1e5, oversampling)
    codes = PhaseCodeMatrix(rng.uniform(0, 2 * np.pi, (n, k)))
    mask = SparsityMask.full(n)
    return synthesize(spec, codes, uniform_weights(mask), mask)
