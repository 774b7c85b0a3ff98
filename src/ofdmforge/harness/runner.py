"""Monte-Carlo experiment runner.

Each experiment executes ``runs`` independent replicas.  Replica r uses the
RNG seeded with ``mix64(master_seed, r)`` so results are reproducible and
independent of worker scheduling; replicas may run in parallel processes.

Per-run artifacts land in <out>/<kind>/<run_id>/, the run's objectives file
last; the cross-run aggregate and plot CSVs in <out>/<kind>/.
"""
from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from ..design import dimension_pulse
from ..evolve import sga_phases
from ..errors import ConfigError
from ..illumination import (
    TargetModel, normalize_reflectivity, reflectivity_spectrum, snr_gain_db, two_step_pipeline,
)
from ..metrics import PhaseEvaluator
from ..pareto import (
    ConstraintSpec,
    nsga2,
    pmepr_threshold_from_distribution,
)
from ..phasing import baseline_phases
from ..waveform import (
    TWO_PI,
    SparsityMask,
    pulse_spectrum,
    random_mask,
    synthesize,
    uniform_weights,
)
from .config import ExperimentConfig
from .plotdata import TRACE_HEADER, atomic_open, emit_plot_data, write_csv, write_trace

_MASK64 = (1 << 64) - 1

FRONT_HEADER = ("pmepr", "pslr_db", "islr_db", "run_id", "generation")
SPECTRUM_HEADER = ("f_hz", "magnitude")
SPECTRA_HEADER = ("n", "reflectivity_norm_abs", "w_opt")


def mix64(seed: int, run_id: int) -> int:
    """splitmix64 finalizer over (seed, run_id); replica seed derivation."""
    z = (seed + (run_id + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass
class RunResult:
    """Outcome of one replica."""

    run_id: int
    seed: int
    final_objectives: dict
    wall_time_s: float


def _write_json(path: Path, payload: dict) -> None:
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_band(config: ExperimentConfig, rng: np.random.Generator):
    """(mask, evaluator) of one replica: the mask is drawn unless the band is
    full, and the evaluator weights its active subcarriers uniformly."""
    n = config.pulse.n_subcarriers
    mask = SparsityMask.full(n) if config.sparsity >= 1.0 else random_mask(n, config.sparsity, rng)
    return mask, PhaseEvaluator(config.pulse, uniform_weights(mask))


def _baseline_design(config: ExperimentConfig, rng: np.random.Generator):
    """(codes, mask, evaluator) of one replica's baseline pulse: the mask is
    drawn first, then the codes."""
    spec = config.pulse
    mask, evaluator = _run_band(config, rng)
    codes = baseline_phases(
        config.baseline,
        spec.n_subcarriers,
        spec.n_symbols,
        rng=rng,
        alphabet=config.alphabet,
    )
    return codes, mask, evaluator


# --- per-kind replicas ----------------------------------------------------
# Each writes its run's files except the objectives file and returns
# (objectives, {aggregate file: this run's rows}), with the run's
# ConvergenceTrace for convergence.csv.  A file that shows one run (a pulse
# or a spectrum) gets rows from run 0 only.


def _run_dimension(config, run_id, run_dir, rng):
    return asdict(dimension_pulse(config.scenario)), {}


def _run_synthesize(config, run_id, run_dir, rng):
    codes, mask, evaluator = _baseline_design(config, rng)
    spec = config.pulse
    x = synthesize(spec, codes, uniform_weights(mask))
    t = (np.arange(len(x)) * spec.sample_period_s).tolist()
    write_csv(run_dir / "pulse.csv", ("t_s", "re", "im"), zip(t, x.real.tolist(), x.imag.tolist()))
    freqs, mag = pulse_spectrum(x, spec.sample_period_s)
    spectrum = list(zip(freqs.tolist(), mag.tolist()))
    write_csv(run_dir / "spectrum.csv", SPECTRUM_HEADER, spectrum)
    objectives = {"pmepr": float(evaluator.pmepr(codes.phases[None])[0])}
    if run_id != 0:
        return objectives, {}
    return objectives, {
        "envelope.csv": list(zip(t, np.abs(x).tolist())),
        "spectrum.csv": spectrum,
    }


def _run_evaluate(config, run_id, run_dir, rng):
    codes, _, evaluator = _baseline_design(config, rng)
    pm, ps, il = evaluator.objectives(codes.phases[None])[0].tolist()
    objectives = {
        "pmepr": pm,
        "pslr_db": ps,
        "islr_db": il,
        "oversampling": config.pulse.oversampling,
    }
    return objectives, {}


def _run_baseline(config, run_id, run_dir, rng):
    codes, mask, evaluator = _baseline_design(config, rng)
    objectives = {
        "pmepr": float(evaluator.pmepr(codes.phases[None])[0]),
        "n_active": mask.n_active,
    }
    return objectives, {}


def _run_optimize_pmepr(config, run_id, run_dir, rng):
    mask, evaluator = _run_band(config, rng)
    phases, trace = sga_phases(evaluator, config.bits_per_var, config.ga, rng)

    write_trace(run_dir / "trace.csv", trace)
    _write_json(
        run_dir / "genome.json",
        {
            "bits_per_var": config.bits_per_var,
            "phases": phases.tolist(),
            "mask": mask.active.astype(int).tolist(),
        },
    )
    return {"pmepr": float(trace.best[-1])}, {"convergence.csv": trace}


def _flat_scores(config: ExperimentConfig, rng: np.random.Generator):
    """(P, N*K) flat phase genomes -> (P, 3) rows (pmepr, pslr_db, islr_db),
    scored by the replica's ``_run_band`` evaluator: full band for the
    NSGA-II kinds, which take no ``sparsity``."""
    spec = config.pulse
    _, evaluator = _run_band(config, rng)
    return lambda genomes: evaluator.objectives(
        genomes.reshape(len(genomes), spec.n_subcarriers, spec.n_symbols)
    )


def _run_optimize_moo(config, run_id, run_dir, rng):
    spec = config.pulse
    n_vars = spec.n_subcarriers * spec.n_symbols
    scores = _flat_scores(config, rng)

    # the rank-0 front of every snapshot_every-th generation, and of the last
    front_rows = []

    def snapshot(gen, genomes, values, rank):
        if gen == config.ga.generations or (gen and gen % config.snapshot_every == 0):
            front_rows.extend((*row, run_id, gen) for row in values[rank == 0].tolist())

    # objectives (pmepr, pslr_db), then islr_db carried into the fronts
    genomes, values, rank = nsga2(scores, n_vars, config.ga, rng=rng, generation_hook=snapshot)
    front = rank == 0
    final_objs = values[front]
    write_csv(run_dir / "front.csv", FRONT_HEADER, front_rows)
    # the last generation's front closes front.csv
    first = len(front_rows) - len(final_objs)
    genome_map = [
        {"row": first + i, "phases": phases}
        for i, phases in enumerate(genomes[front].tolist())
    ]
    _write_json(run_dir / "genome.json", {"rows": genome_map})

    n_random = config.ga.population_size if config.n_random is None else config.n_random
    random_pts = scores(_random_phase_block(config, n_random, rng).reshape(n_random, -1))

    objectives = {
        "front_size": len(final_objs),
        "best_pmepr": float(final_objs[:, 0].min()),
        "best_pslr_db": float(final_objs[:, 1].min()),
        "random_mean_pmepr": float(np.mean(random_pts[:, 0])),
        "random_mean_pslr_db": float(np.mean(random_pts[:, 1])),
    }
    points = [(pm, ps, "optimized") for pm, ps, *_ in final_objs.tolist()]
    points += [(pm, ps, "random") for pm, ps, *_ in random_pts.tolist()]
    return objectives, {"pareto.csv": points}


def _random_phase_block(config: ExperimentConfig, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, N, K) uniform phases in one draw: the same values, and the same
    generator state after, as ``count`` calls of ``random_phases``."""
    spec = config.pulse
    return rng.uniform(0.0, TWO_PI, size=(count, spec.n_subcarriers, spec.n_symbols))


def _derived_pmepr_max(config: ExperimentConfig) -> float:
    """Threshold from the random-code PMEPR distribution (master-seeded)."""
    rng = np.random.default_rng(mix64(config.seed, 0x7E5D))
    _, evaluator = _run_band(config, rng)
    samples = evaluator.pmepr(_random_phase_block(config, config.threshold_samples, rng))
    pmepr_max = pmepr_threshold_from_distribution(samples)
    try:
        ConstraintSpec(pmepr_max)
    except ValueError as exc:
        raise ConfigError(
            f"derived pmepr_max {pmepr_max} is invalid ({exc}); set pmepr_max explicitly"
        ) from None
    return pmepr_max


def _run_optimize_constrained(config, run_id, run_dir, rng):
    spec = config.pulse
    pmepr_max = config.pmepr_max
    n_vars = spec.n_subcarriers * spec.n_symbols
    scores = _flat_scores(config, rng)

    # compliance is judged on the whole population, not just the front
    initial_pmeprs = []

    def observe(gen, genomes, values, rank):
        if gen == 0:
            initial_pmeprs.append(values[:, 2])

    _, values, rank = nsga2(
        # objectives (pslr_db, islr_db), then the constrained PMEPR
        lambda genomes: scores(genomes)[:, [1, 2, 0]],
        n_vars,
        config.ga,
        rng=rng,
        constraint=ConstraintSpec(pmepr_max=pmepr_max),
        generation_hook=observe,
    )

    front_arr = values[rank == 0][:, [2, 0, 1]]  # (pmepr, pslr_db, islr_db)
    front = front_arr.tolist()
    write_csv(
        run_dir / "front.csv",
        FRONT_HEADER,
        ((pm, ps, il, run_id, config.ga.generations) for pm, ps, il in front),
    )

    final_over = values[:, 2] > pmepr_max
    violators = int(np.sum(final_over))
    objectives = {
        "pmepr_max": float(pmepr_max),
        "front_size": len(front),
        "population_violators": violators,
        "compliant": bool(violators == 0),
        "initial_violator_fraction": float(np.mean(initial_pmeprs[0] > pmepr_max)),
        "final_violator_fraction": float(np.mean(final_over)),
        "islr_min_db": float(front_arr[:, 2].min()),
        "islr_max_db": float(front_arr[:, 2].max()),
    }
    flag = int(objectives["compliant"])
    return objectives, {"constrained.csv": [(run_id, *row, flag) for row in front]}


def _run_illuminate(config, run_id, run_dir, rng):
    spec = config.pulse
    t = config.target
    if t.scatterers is not None:
        target = TargetModel(
            np.array([s for s, _ in t.scatterers]),
            np.array([r for _, r in t.scatterers]),
        )
    else:
        target_rng = (
            np.random.default_rng(t.seed) if t.seed is not None else rng
        )
        target = TargetModel.random_box(
            t.n_scatterers, t.center_range_m, t.extent_m, target_rng, t.reflectivity
        )
    norm = normalize_reflectivity(reflectivity_spectrum(target, spec, config.carrier_hz))
    v_l, v_u = config.weight_bounds
    w_opt, phases, trace = two_step_pipeline(
        norm, spec, config.weight_ga, config.phase_ga, rng, v_l, v_u, config.bits_per_var
    )

    spectra = list(zip(
        range(spec.n_subcarriers),
        np.abs(norm.values).tolist(),
        w_opt.weights.tolist(),
    ))
    write_csv(run_dir / "spectra.csv", SPECTRA_HEADER, spectra)
    write_trace(run_dir / "trace.csv", trace)
    genome = {"bits_per_var": config.bits_per_var, "phases": phases.tolist()}
    _write_json(run_dir / "genome.json", genome)
    objectives = {
        "gain_db": snr_gain_db(w_opt, norm),
        "pmepr_initial": float(trace.best[0]),
        "pmepr_final": float(trace.best[-1]),
    }
    rows = {"convergence.csv": trace}
    if run_id == 0:
        rows["illumination.csv"] = spectra
    return objectives, rows


# --- orchestration ----------------------------------------------------------


# kind -> (replica, per-run objectives file or None, {aggregate file: header})
_RUNNERS = {
    "dimension": (_run_dimension, "dimensions.json", {}),
    "synthesize": (
        _run_synthesize, None, {"envelope.csv": ("t_s", "abs"), "spectrum.csv": SPECTRUM_HEADER},
    ),
    "evaluate": (_run_evaluate, "report.json", {}),
    "baseline": (_run_baseline, "summary.json", {}),
    "optimize-pmepr": (_run_optimize_pmepr, "summary.json", {"convergence.csv": TRACE_HEADER}),
    "optimize-moo": (
        _run_optimize_moo, "summary.json", {"pareto.csv": ("pmepr", "pslr_db", "source")},
    ),
    "optimize-constrained": (
        _run_optimize_constrained,
        "summary.json",
        {"constrained.csv": ("run_id", "pmepr", "pslr_db", "islr_db", "compliant")},
    ),
    "illuminate": (
        _run_illuminate,
        "illumination.json",
        {"convergence.csv": TRACE_HEADER, "illumination.csv": SPECTRA_HEADER},
    ),
}


def _execute_run(config: ExperimentConfig, run_id: int) -> tuple[RunResult, dict]:
    """One replica: its result and its rows for the aggregate files."""
    run_dir = config.out_path() / str(run_id)
    run_dir.mkdir(parents=True, exist_ok=True)
    seed = mix64(config.seed, run_id)
    rng = np.random.default_rng(seed)
    replica, objectives_file, _ = _RUNNERS[config.kind]
    started = time.perf_counter()
    objectives, rows = replica(config, run_id, run_dir, rng)
    if objectives_file is not None:
        _write_json(run_dir / objectives_file, objectives)
    wall = time.perf_counter() - started
    return RunResult(run_id, seed, objectives, wall), rows


def run_experiment(config: ExperimentConfig) -> list[RunResult]:
    """Execute all replicas of one experiment and write the aggregate."""
    # a derived cap no pulse can meet is a config error, raised before any output
    if config.kind == "optimize-constrained" and config.pmepr_max is None:
        config = replace(config, pmepr_max=_derived_pmepr_max(config))
    out = config.out_path()
    out.mkdir(parents=True, exist_ok=True)

    if config.workers > 1 and config.runs > 1:
        # imported here: the pool pulls in multiprocessing, which a serial
        # run never needs
        from concurrent.futures import ProcessPoolExecutor

        # a pool forks all its workers at the first submit: no more than runs
        with ProcessPoolExecutor(max_workers=min(config.workers, config.runs)) as pool:
            outcomes = list(
                pool.map(functools.partial(_execute_run, config), range(config.runs))
            )
    else:
        outcomes = [_execute_run(config, r) for r in range(config.runs)]

    results = [res for res, _ in outcomes]
    _write_aggregate(config, results, [rows for _, rows in outcomes], out)
    return results


def _summaries(results: list[RunResult]) -> dict:
    """mean/median/min/max per numeric objective across runs."""
    keys = sorted(
        {
            k
            for r in results
            for k, v in r.final_objectives.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }
    )
    stats = {}
    for k in keys:
        vals = np.array(
            [r.final_objectives[k] for r in results if k in r.final_objectives],
            dtype=float,
        )
        stats[k] = {
            "mean": float(vals.mean()),
            "median": float(np.median(vals)),
            "min": float(vals.min()),
            "max": float(vals.max()),
        }
    return stats


def _write_aggregate(config, results, handed: list[dict], out: Path) -> None:
    summary = {
        "kind": config.kind,
        "seed": config.seed,
        "runs": config.runs,
        "objectives": _summaries(results),
        "wall_time_s": {str(r.run_id): r.wall_time_s for r in results},
    }
    if config.pmepr_max is not None:  # only optimize-constrained reads it
        summary["pmepr_max"] = config.pmepr_max
    # a boolean objective counts the runs in which it holds
    for key in {k for r in results for k, v in r.final_objectives.items() if isinstance(v, bool)}:
        summary[f"{key}_runs"] = sum(r.final_objectives[key] for r in results)
    _write_json(out / "summary.json", summary)

    _, _, files = _RUNNERS[config.kind]
    for name, header in files.items():
        emit_plot_data([rows[name] for rows in handed if name in rows], name, header, out)
