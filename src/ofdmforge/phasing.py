"""Deterministic baseline phase-code generators used for comparison."""
from __future__ import annotations

import numpy as np

from .waveform import TWO_PI, PhaseCodeMatrix

BASELINES = ("noncoded", "random", "newman")


def newman_phases(n: int) -> PhaseCodeMatrix:
    """Newman quadratic phasing for a single symbol: phi_n = pi*(n-1)^2/N.

    Gives PMEPR close to 1.8 on a full contiguous band for essentially any N.
    Under a sparsity mask the same full-band sequence is kept and the masked
    weights are zeroed, which is exactly how the baseline degrades.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = np.arange(n, dtype=float)
    phases = np.mod(np.pi * idx**2 / n, TWO_PI)
    return PhaseCodeMatrix(phases[:, None])


def noncoded_phases(n: int, k: int = 1) -> PhaseCodeMatrix:
    """All-equal (zero) phases; PMEPR equals the active subcarrier count."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    return PhaseCodeMatrix(np.zeros((n, k)))


def random_phases(
    n: int,
    k: int,
    rng: np.random.Generator,
    alphabet: int | None = None,
) -> PhaseCodeMatrix:
    """I.i.d. uniform phases, continuous or from an M-ary PSK lattice.

    alphabet=None draws from [0, 2*pi); alphabet=M >= 2 draws from
    {2*pi*i/M}.  QPSK is alphabet=4; an 18-bit quantizer is alphabet=2**18.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    if alphabet is None:
        phases = rng.uniform(0.0, TWO_PI, size=(n, k))
    else:
        if alphabet < 2:
            raise ValueError("alphabet must be >= 2")
        phases = rng.integers(0, alphabet, size=(n, k)) * (TWO_PI / alphabet)
    return PhaseCodeMatrix(phases)


def baseline_phases(
    kind: str,
    n: int,
    k: int = 1,
    rng: np.random.Generator | None = None,
    alphabet: int | None = None,
) -> PhaseCodeMatrix:
    """Dispatch for the CLI --baseline flag: ``kind`` is one of ``BASELINES``."""
    if kind not in BASELINES:
        raise ValueError(f"baseline {kind!r} is not one of {list(BASELINES)}")
    if kind == "noncoded":
        return noncoded_phases(n, k)
    if kind == "newman":
        if k != 1:
            raise ValueError("newman baseline is defined for single-symbol pulses")
        return newman_phases(n)
    if rng is None:
        raise ValueError("random baseline needs an RNG")
    return random_phases(n, k, rng, alphabet=alphabet)
