"""Evaluator cost per genome, several source trees interleaved in one process.

    python3 tools/evaluator_speed.py SRC [SRC ...] [--rounds 30]

Each SRC is a checkout's ``src`` directory; its ``ofdmforge`` is imported
under its own module namespace, so two revisions can be timed side by side.
For every shape (N, K, L) and method (``pmepr``, ``objectives``) a round
times ``REPS`` calls on a block of ``GENOMES`` random uniform-weight genomes
per tree, trees in turn, so drifting machine load hits every tree alike.
Prints one JSON object: median and quartiles of microseconds per genome.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

SHAPES = [(100, 1, 20), (125, 4, 20)]
GENOMES = 40
REPS = 10


def load(src: str):
    """Import ``ofdmforge`` from ``src``, leaving no trace in sys.modules."""
    sys.path.insert(0, src)
    try:
        import ofdmforge
    finally:
        sys.path.remove(src)
        for name in [m for m in sys.modules if m.split(".")[0] == "ofdmforge"]:
            del sys.modules[name]
    return ofdmforge


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="+")
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be >= 2: the quartiles need two data points")
    trees = [load(src) for src in args.src]
    report = {}
    for n, k, ell in SHAPES:
        phases = np.random.default_rng(0).uniform(0, 2 * np.pi, (GENOMES, n, k))
        for method in ("pmepr", "objectives"):
            calls = []
            for forge in trees:
                spec = forge.PulseSpec(n, k, 1e5, ell)
                mask = forge.SparsityMask.full(n)
                evaluator = forge.PhaseEvaluator(spec, forge.uniform_weights(mask), mask)
                calls.append(getattr(evaluator, method))
                calls[-1](phases)  # warm-up
            times = [[] for _ in trees]
            for _ in range(args.rounds):
                for call, seen in zip(calls, times):
                    start = time.perf_counter()
                    for _ in range(REPS):
                        call(phases)
                    seen.append((time.perf_counter() - start) / (REPS * GENOMES) * 1e6)
            for src, seen in zip(args.src, times):
                q1, median, q3 = statistics.quantiles(seen, n=4)
                report.setdefault(src, {})[f"{method} N={n} K={k} L={ell}"] = {
                    "median_us": round(median, 2), "q1_us": round(q1, 2), "q3_us": round(q3, 2),
                }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
