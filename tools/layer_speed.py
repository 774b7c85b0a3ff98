"""Layer costs of one or more source trees, interleaved in one process.

    python3 tools/layer_speed.py SRC [SRC ...] [--rounds 20]

Each SRC is a checkout's ``src`` directory; its ``ofdmforge`` is imported
under its own module namespace, so two revisions can be timed side by side.
The probes:

* ``pmepr``/``objectives N= K= L=``: ``PhaseEvaluator`` on a full-band,
  uniform-weight pulse, ``REPS`` calls on a batch of ``GENOMES`` random
  genomes; microseconds per genome.  ``block_rows`` is the genomes the
  evaluator scores per block.
* ``objectives N=25 K=4 L=20`` has criterion 06's shape (NSGA-II on
  PMEPR/PSLR of four-symbol pulses).
* ``pmepr N=100 K=1 L=20 P=1000``: the same on one batch of 1000 genomes,
  the random-code sample a derived PMEPR cap is drawn from.
* ``pmepr N=100 K=1 L=20 P=6``: a batch of 6, the offspring of one
  ``pmepr-sga`` generation.  Blocks this small stay on the caller's
  thread, so this probe reads the serial path; the 40-genome and
  1000-genome probes and the K = 4 ones are scored on two threads
  wherever the process may use two CPUs.
* ``nsga2``: one capped NSGA-II (P = 40, n = 100) on an objective that costs
  next to nothing, so the time is the optimizer's own: ranking, crowding,
  variation and survivor selection; microseconds per generation.
* ``rank_and_crowd``: NSGA-II's front ranking and crowding
  (``pareto._rank_and_crowd``) under a PMEPR cap of 3, alone, on one fixed
  population of P = 80 rows: two seeded normal objective columns, which
  fall into 15 fronts, and a uniform PMEPR column on [1, 5];
  microseconds per call.
* ``sga_phases``: the binary PMEPR search on the ``pmepr-sga`` benchmark
  shape (N = 100, K = 1, L = 20, 18-bit words, a seeded half mask, P = 12,
  200 generations); microseconds per generation.  ``rows_per_generation``
  is the offspring rows that reached ``PhaseEvaluator.pmepr`` per
  generation, counted on an untimed run.
* ``sga_phases full band``: the same search on the ``illuminate``
  benchmark's phase-GA shape: N = 100, K = 1, L = 20, subcarrier spacing
  20 MHz, full band, the non-uniform weights ``optimize_weights`` designs
  for that benchmark's target (the ``continuous_minimize`` probe's run),
  18-bit words, P = 12, 60 generations; no memo, so every offspring row is
  scored.  Microseconds per generation.
* ``continuous_minimize``: the real-coded weight GA of the ``illuminate``
  benchmark shape (N = 100, P = 20, 500 generations) through
  ``optimize_weights`` on one fixed normalized target spectrum; its fitness
  is cheap, so the time is the loop's and the variation step's;
  microseconds per generation.

Every round runs each probe once per tree, trees in order on even rounds and
in reverse on odd ones, so drifting machine load and going first hit every
tree alike.  Prints one JSON object ``{src: {probe: {median_us, q1_us,
q3_us, minor_faults}}}``: median and quartiles over the rounds, and the
median over the rounds of the minor page faults (``ru_minflt``) each timed
call took per unit, which counts the fresh pages its temporaries cost.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import numpy as np

GENOMES, REPS = 40, 10
GENERATIONS = 50  # nsga2
RANK_CALLS = 200  # rank_and_crowd
# the share of offspring that repeat a scored pulse grows as the population
# converges, so a search shorter than the workload's would understate it
SGA_GENERATIONS = 200
ILLUMINATE_SGA_GENERATIONS = 60  # sga_phases full band
WEIGHT_GENERATIONS = 500  # continuous_minimize


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


def evaluator_probe(method: str, n: int, k: int, ell: int, genomes: int = GENOMES):
    reps = max(1, REPS * GENOMES // genomes)

    def build(forge):
        mask = forge.SparsityMask.full(n)
        spec = forge.PulseSpec(n, k, 1e5, ell)
        evaluator = forge.PhaseEvaluator(spec, forge.uniform_weights(mask), mask)
        call = getattr(evaluator, method)
        phases = np.random.default_rng(0).uniform(0, 2 * np.pi, (genomes, n, k))

        def run():
            for _ in range(reps):
                call(phases)

        # genomes per block: the rows of the evaluator's block buffer
        return run, reps * genomes, {"block_rows": len(evaluator._bins)}

    name = f"{method} N={n} K={k} L={ell}"
    return (name if genomes == GENOMES else f"{name} P={genomes}"), build


def cheap_objective(g: np.ndarray) -> np.ndarray:
    # the third column averages 3 over uniform phases, so about half violate the cap
    return np.column_stack([
        np.cos(g).mean(axis=1), np.sin(g).mean(axis=1), 1.0 + 2.0 * g.mean(axis=1) / np.pi,
    ])


def nsga2_probe(forge):
    config = forge.GAConfig(population_size=40, generations=GENERATIONS)
    constraint = forge.ConstraintSpec(3.0)

    def run():
        forge.nsga2(cheap_objective, 100, config, np.random.default_rng(1), constraint=constraint)

    return run, GENERATIONS, {}


def rank_probe(forge):
    rng = np.random.default_rng(10)
    values = np.column_stack([rng.normal(size=(80, 2)), rng.uniform(1.0, 5.0, 80)])
    constraint = forge.ConstraintSpec(3.0)
    rank_and_crowd = forge.pareto._rank_and_crowd

    def run():
        for _ in range(RANK_CALLS):
            rank_and_crowd(values, constraint)

    return run, RANK_CALLS, {}


def sga_probe(forge):
    mask = forge.random_mask(100, 0.5, np.random.default_rng(1))
    spec = forge.PulseSpec(100, 1, 1e5, 20)
    evaluator = forge.PhaseEvaluator(spec, forge.uniform_weights(mask), mask)
    config = forge.GAConfig(population_size=12, generations=SGA_GENERATIONS)

    def run():
        forge.sga_phases(evaluator, 18, config, np.random.default_rng(1))

    scored, pmepr = [], evaluator.pmepr
    evaluator.pmepr = lambda phases: scored.append(len(phases)) or pmepr(phases)
    run()  # untimed, counting the rows each call scores
    del evaluator.pmepr
    # the first call scores the initial population
    rows = round(sum(scored[1:]) / SGA_GENERATIONS, 2)
    return run, SGA_GENERATIONS, {"rows_per_generation": rows}


def illuminate_target(forge):
    """The illuminate workload's pulse and normalized target spectrum: a
    50-scatterer box at 10 km."""
    spec = forge.PulseSpec(100, 1, 2e7, 20)
    target = forge.TargetModel.random_box(50, 10_000.0, 10.0, np.random.default_rng(77))
    return spec, forge.normalize_reflectivity(forge.reflectivity_spectrum(target, spec, 9e9))


def design_weights(forge, spectrum):
    config = forge.GAConfig(population_size=20, generations=WEIGHT_GENERATIONS)
    return forge.optimize_weights(spectrum, 0.01, 10.0, config, np.random.default_rng(1))


def full_band_sga_probe(forge):
    spec, spectrum = illuminate_target(forge)
    evaluator = forge.PhaseEvaluator(spec, design_weights(forge, spectrum))
    config = forge.GAConfig(population_size=12, generations=ILLUMINATE_SGA_GENERATIONS)

    def run():
        forge.sga_phases(evaluator, 18, config, np.random.default_rng(1))

    return run, ILLUMINATE_SGA_GENERATIONS, {}


def weight_ga_probe(forge):
    _, spectrum = illuminate_target(forge)

    def run():
        design_weights(forge, spectrum)

    return run, WEIGHT_GENERATIONS, {}


PROBES = [
    evaluator_probe("pmepr", 100, 1, 20),
    evaluator_probe("objectives", 100, 1, 20),
    evaluator_probe("pmepr", 100, 1, 20, genomes=1000),
    evaluator_probe("pmepr", 100, 1, 20, genomes=6),
    evaluator_probe("pmepr", 125, 4, 20),
    evaluator_probe("objectives", 125, 4, 20),
    evaluator_probe("objectives", 25, 4, 20),
    ("nsga2", nsga2_probe),
    ("rank_and_crowd", rank_probe),
    ("sga_phases", sga_probe),
    ("sga_phases full band", full_band_sga_probe),
    ("continuous_minimize", weight_ga_probe),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="+")
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be >= 2: the quartiles need two data points")
    trees = [load(src) for src in args.src]
    # built[p][t]: probe p's (call, units, extra) on tree t
    built = [[build(forge) for forge in trees] for _, build in PROBES]
    for row in built:
        for run, _, _ in row:
            run()  # warm-up
    times = [[[] for _ in trees] for _ in PROBES]
    faults = [[[] for _ in trees] for _ in PROBES]
    for r in range(args.rounds):
        order = list(range(len(trees)))[:: 1 if r % 2 == 0 else -1]
        for row, seen, faulted in zip(built, times, faults):
            for t in order:
                run, units, _ = row[t]
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                start = time.perf_counter()
                run()
                seen[t].append((time.perf_counter() - start) / units * 1e6)
                after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                faulted[t].append((after - before) / units)
    report = {src: {} for src in args.src}
    for (name, _), row, seen, faulted in zip(PROBES, built, times, faults):
        for src, (_, _, extra), samples, minflt in zip(args.src, row, seen, faulted):
            q1, median, q3 = statistics.quantiles(samples, n=4)
            report[src][name] = {
                "median_us": round(median, 2), "q1_us": round(q1, 2), "q3_us": round(q3, 2),
                "minor_faults": round(statistics.median(minflt), 2), **extra,
            }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
