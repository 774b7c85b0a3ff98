"""NSGA-II cost per generation with a trivial objective, trees interleaved.

    python3 tools/nsga2_speed.py SRC [SRC ...] [--rounds 20]

Each SRC is a checkout's ``src`` directory, imported under its own module
namespace as in ``evaluator_speed.py``.  The objective costs next to
nothing (means of cos and sin of the phases, and a PMEPR-like third column
capped at 3), so the time is the optimizer's own: ranking, crowding,
variation and survivor selection.  A round runs one capped ``nsga2`` of
``GENERATIONS`` generations (P = 40, n = 100) per tree, trees in turn.
Prints one JSON object: median and quartiles of microseconds per generation.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

from evaluator_speed import load

POPULATION = 40
N_VARS = 100
GENERATIONS = 50
CAP = 3.0


def objective(g: np.ndarray) -> np.ndarray:
    # the third column averages 3 over uniform phases, so about half violate
    return np.column_stack([
        np.cos(g).mean(axis=1), np.sin(g).mean(axis=1), 1.0 + 2.0 * g.mean(axis=1) / np.pi,
    ])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="+")
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be >= 2: the quartiles need two data points")
    runs = []
    for src in args.src:
        forge = load(src)
        config = forge.GAConfig(population_size=POPULATION, generations=GENERATIONS)
        constraint = forge.ConstraintSpec(CAP)

        def run(forge=forge, config=config, constraint=constraint):
            forge.nsga2(objective, N_VARS, config, np.random.default_rng(1), constraint=constraint)

        run()  # warm-up
        runs.append(run)
    times = [[] for _ in runs]
    for _ in range(args.rounds):
        for run, seen in zip(runs, times):
            start = time.perf_counter()
            run()
            seen.append((time.perf_counter() - start) / GENERATIONS * 1e6)
    report = {}
    for src, seen in zip(args.src, times):
        q1, median, q3 = statistics.quantiles(seen, n=4)
        report[src] = {"median_us": round(median, 1), "q1_us": round(q1, 1), "q3_us": round(q3, 1)}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
