"""Machine-speed probe, served from a process of its own.

    python3 bench/speed.py    # one line in, one probe time (seconds) out

On a shared 2-core host the speed of the same code drifts by a third over
minutes, as other tenants come and go.  The probe is a fixed mix of the
kinds of work the program does (small inverse FFTs and envelope reductions
driven from Python, then 4096- and 32768-point FFTs) that uses numpy only,
never ``ofdmforge``.  It runs in its own process, so it shares no allocator
or FFT state with the program, and a change to the program cannot move it;
the benchmark asks for one pass before and after every timed step and
scales the step's wall time by ``REFERENCE_S / probe``, turning it into
seconds on a machine where the probe takes ``REFERENCE_S``.
"""
from __future__ import annotations

import sys
from time import perf_counter

import numpy as np

REFERENCE_S = 0.1

_PHASES = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, 100)
_LONG = np.exp(1j * np.random.default_rng(1).uniform(0.0, 2.0 * np.pi, 10000))


def probe_s() -> float:
    """Wall seconds of one pass of the fixed probe work."""
    start = perf_counter()
    for _ in range(200):
        x = np.fft.ifft(np.exp(1j * _PHASES), n=2000)
        power = np.abs(x) ** 2
        float(power.max() / power.mean())
        np.fft.ifft(np.abs(np.fft.fft(x, 4096)) ** 2)
    for _ in range(16):
        np.fft.ifft(np.abs(np.fft.fft(_LONG, 32768)) ** 2)
    return perf_counter() - start


def serve() -> None:
    """Answer every line of standard input with one probe time, until EOF."""
    probe_s()  # the first pass pays for FFT set-up and page faults
    for _ in sys.stdin:
        print(probe_s(), flush=True)


if __name__ == "__main__":
    serve()
