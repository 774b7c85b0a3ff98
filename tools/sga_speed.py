"""Binary PMEPR phase search cost per generation, trees interleaved.

    python3 tools/sga_speed.py SRC [SRC ...] [--rounds 20]

Each SRC is a checkout's ``src`` directory, imported under its own module
namespace as in ``evaluator_speed.py``.  The search is ``sga_phases`` on the
``pmepr-sga`` benchmark shape: N = 100 subcarriers, one symbol, L = 20,
18-bit words, a seeded half mask, P = 12 and the workload's 200
generations (the share of offspring that repeat a scored pulse grows as
the population converges, so a shorter search would understate it).
A round runs one search per tree, trees in turn.  Prints one JSON object:
median and quartiles of microseconds per generation, and
``rows_per_generation``, the offspring rows that reached
``PhaseEvaluator.pmepr`` per generation (counted on the untimed warm-up).
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

from evaluator_speed import load

N, K, L = 100, 1, 20
BITS = 18
SPARSITY = 0.5
POPULATION = 12
GENERATIONS = 200


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="+")
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be >= 2: the quartiles need two data points")
    runs, rows = [], []
    for src in args.src:
        forge = load(src)
        mask = forge.random_mask(N, SPARSITY, np.random.default_rng(1))
        spec = forge.PulseSpec(N, K, 1e5, L)
        config = forge.GAConfig(population_size=POPULATION, generations=GENERATIONS)
        evaluator = forge.PhaseEvaluator(spec, forge.uniform_weights(mask), mask)

        def run(forge=forge, evaluator=evaluator, config=config):
            forge.sga_phases(evaluator, BITS, config, np.random.default_rng(1))

        scored = []
        pmepr = evaluator.pmepr

        def counting(phases):
            scored.append(len(phases))
            return pmepr(phases)

        evaluator.pmepr = counting
        run()  # warm-up
        del evaluator.pmepr
        # the first call scores the initial population
        rows.append(sum(scored[1:]) / GENERATIONS)
        runs.append(run)
    times = [[] for _ in runs]
    for _ in range(args.rounds):
        for run, seen in zip(runs, times):
            start = time.perf_counter()
            run()
            seen.append((time.perf_counter() - start) / GENERATIONS * 1e6)
    report = {}
    for src, seen, per_generation in zip(args.src, times, rows):
        q1, median, q3 = statistics.quantiles(seen, n=4)
        report[src] = {
            "median_us": round(median, 1), "q1_us": round(q1, 1), "q3_us": round(q3, 1),
            "rows_per_generation": round(per_generation, 2),
        }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
