"""Monte-Carlo experiment runner.

Each experiment executes ``runs`` independent replicas.  Replica r uses the
RNG seeded with ``mix64(master_seed, r)`` so results are reproducible and
independent of worker scheduling; replicas may run in parallel processes.

Per-run artifacts land in <out>/<kind>/<run_id>/, the cross-run aggregate and
plot CSVs in <out>/<kind>/.
"""
from __future__ import annotations

import functools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..design import dimension_pulse
from ..evolve import (
    BitEncoding,
    ConvergenceTrace,
    decode_phase_block,
    decode_phases,
    sga_minimize,
)
from ..illumination import (
    TargetModel,
    normalize_reflectivity,
    reflectivity_spectrum,
    two_step_pipeline,
)
from ..metrics import PhaseEvaluator, evaluate_objectives, pmepr
from ..pareto import (
    ConstraintSpec,
    nsga2,
    pmepr_threshold_from_distribution,
)
from ..phasing import BaselineKind, baseline_phases
from ..waveform import (
    TWO_PI,
    SparsityMask,
    pulse_spectrum,
    random_mask,
    synthesize,
    uniform_weights,
)
from .config import ExperimentConfig
from .plotdata import atomic_open, emit_plot_data, write_csv

_MASK64 = (1 << 64) - 1


def mix64(seed: int, run_id: int) -> int:
    """splitmix64 finalizer over (seed, run_id); replica seed derivation."""
    z = (seed + (run_id + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass
class RunResult:
    """Outcome of one replica; all referenced artifact files exist."""

    run_id: int
    seed: int
    final_objectives: dict
    wall_time_s: float
    artifacts: dict[str, str] = field(default_factory=dict)


def aggregate(traces: list[ConvergenceTrace]) -> ConvergenceTrace:
    """Pointwise mean of per-run traces (best and mean curves)."""
    if not traces:
        raise ValueError("no traces to aggregate")
    lengths = {len(t) for t in traces}
    if len(lengths) != 1:
        raise ValueError(f"ragged traces: lengths {sorted(lengths)}")
    return ConvergenceTrace(
        best=np.mean([t.best for t in traces], axis=0),
        mean=np.mean([t.mean for t in traces], axis=0),
    )


def _write_json(path: Path, payload: dict) -> None:
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_trace(path: Path, trace: ConvergenceTrace) -> None:
    write_csv(
        path,
        ("generation", "best", "mean"),
        zip(range(len(trace)), trace.best.tolist(), trace.mean.tolist()),
    )


def _run_mask(config: ExperimentConfig, rng: np.random.Generator) -> SparsityMask:
    n = config.pulse.n_subcarriers
    if config.sparsity >= 1.0:
        return SparsityMask.full(n)
    return random_mask(n, config.sparsity, rng)


def _build_baseline_pulse(config: ExperimentConfig, rng: np.random.Generator):
    spec = config.pulse
    mask = _run_mask(config, rng)
    codes = baseline_phases(
        BaselineKind(config.baseline),
        spec.n_subcarriers,
        spec.n_symbols,
        rng=rng,
        alphabet=config.alphabet,
    )
    pulse = synthesize(spec, codes, uniform_weights(mask), mask)
    return pulse, codes, mask


# --- per-kind replicas ----------------------------------------------------


def _run_dimension(config, run_id, run_dir, rng):
    dims = dimension_pulse(config.scenario)
    path = run_dir / "dimensions.json"
    _write_json(path, dims.as_dict())
    return dims.as_dict(), {"dimensions": str(path)}, {}


def _run_synthesize(config, run_id, run_dir, rng):
    pulse, codes, mask = _build_baseline_pulse(config, rng)
    t = pulse.times_s
    pulse_path = run_dir / "pulse.csv"
    write_csv(
        pulse_path,
        ("t_s", "re", "im"),
        zip(t.tolist(), pulse.samples.real.tolist(), pulse.samples.imag.tolist()),
    )
    freqs, mag = pulse_spectrum(pulse)
    spec_path = run_dir / "spectrum.csv"
    write_csv(spec_path, ("f_hz", "magnitude"), zip(freqs.tolist(), mag.tolist()))
    objectives = {"pmepr": pmepr(pulse)}
    payload = {
        "envelope": np.abs(pulse.samples),
        "times_s": t,
        "freqs_hz": freqs,
        "spectrum": mag,
    }
    return objectives, {"pulse": str(pulse_path), "spectrum": str(spec_path)}, payload


def _run_evaluate(config, run_id, run_dir, rng):
    pulse, _, _ = _build_baseline_pulse(config, rng)
    report = evaluate_objectives(pulse)
    payload = report.as_dict(config.pulse.oversampling)
    path = run_dir / "report.json"
    _write_json(path, payload)
    return payload, {"report": str(path)}, {}


def _run_baseline(config, run_id, run_dir, rng):
    pulse, _, mask = _build_baseline_pulse(config, rng)
    objectives = {"pmepr": pmepr(pulse), "n_active": mask.n_active}
    path = run_dir / "summary.json"
    _write_json(path, objectives)
    return objectives, {"summary": str(path)}, {}


def _run_optimize_pmepr(config, run_id, run_dir, rng):
    spec = config.pulse
    n, k, b = spec.n_subcarriers, spec.n_symbols, config.bits_per_var
    mask = _run_mask(config, rng)
    evaluator = PhaseEvaluator(spec, uniform_weights(mask), mask)
    best, trace = sga_minimize(
        lambda bits: evaluator.pmepr(decode_phase_block(bits, b, n, k)),
        BitEncoding(b, n * k),
        config.ga,
        rng=rng,
    )
    phases = decode_phases(best, n, k)

    trace_path = run_dir / "trace.csv"
    _write_trace(trace_path, trace)
    genome_path = run_dir / "genome.json"
    _write_json(
        genome_path,
        {
            "bits_per_var": config.bits_per_var,
            "phases": phases.phases.tolist(),
            "mask": mask.active.astype(int).tolist(),
        },
    )
    objectives = {"pmepr": float(trace.best[-1])}
    _write_json(run_dir / "summary.json", objectives)
    artifacts = {
        "trace": str(trace_path),
        "genome": str(genome_path),
        "summary": str(run_dir / "summary.json"),
    }
    return objectives, artifacts, {"trace": trace}


def _full_band_scores(config: ExperimentConfig):
    """(P, n*k) flat phase genomes -> (P, 3) rows (pmepr, pslr_db, islr_db)
    of full-band, uniformly weighted pulses."""
    spec = config.pulse
    mask = SparsityMask.full(spec.n_subcarriers)
    evaluator = PhaseEvaluator(spec, uniform_weights(mask), mask)

    def scores(genomes: np.ndarray) -> np.ndarray:
        return evaluator.objectives(
            genomes.reshape(len(genomes), spec.n_subcarriers, spec.n_symbols)
        )

    return scores


def _run_optimize_moo(config, run_id, run_dir, rng):
    spec = config.pulse
    n_vars = spec.n_subcarriers * spec.n_symbols
    scores = _full_band_scores(config)

    archive, snapshots = nsga2(
        lambda genomes: scores(genomes)[:, :2],
        n_vars,
        config.ga,
        rng=rng,
        snapshot_every=config.snapshot_every,
    )

    front_rows = []
    genome_map = []
    for gen, snap in snapshots:
        genomes = snap.genomes
        for genome, (pm, ps, il) in zip(genomes, scores(genomes).tolist()):
            front_rows.append((pm, ps, il, run_id, gen))
            if gen == config.ga.generations:
                genome_map.append(
                    {"row": len(front_rows) - 1, "phases": genome.tolist()}
                )
    front_path = run_dir / "front.csv"
    write_csv(front_path, ("pmepr", "pslr_db", "islr_db", "run_id", "generation"), front_rows)
    genome_path = run_dir / "genome.json"
    _write_json(genome_path, {"rows": genome_map})

    n_random = config.n_random or config.ga.population_size
    random_pts = scores(_random_phase_block(config, n_random, rng).reshape(n_random, -1))

    final_objs = archive.objectives
    objectives = {
        "front_size": len(archive),
        "best_pmepr": float(final_objs[:, 0].min()),
        "best_pslr_db": float(final_objs[:, 1].min()),
        "random_mean_pmepr": float(np.mean(random_pts[:, 0])),
        "random_mean_pslr_db": float(np.mean(random_pts[:, 1])),
    }
    _write_json(run_dir / "summary.json", objectives)
    payload = {
        "front": final_objs,
        "random": random_pts,
    }
    artifacts = {
        "front": str(front_path),
        "genome": str(genome_path),
        "summary": str(run_dir / "summary.json"),
    }
    return objectives, artifacts, payload


def _random_phase_block(config: ExperimentConfig, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, N, K) uniform phases in one draw: the same values, and the same
    generator state after, as ``count`` calls of ``random_phases``."""
    spec = config.pulse
    return rng.uniform(0.0, TWO_PI, size=(count, spec.n_subcarriers, spec.n_symbols))


def _derived_pmepr_max(config: ExperimentConfig) -> float:
    """Threshold from the random-code PMEPR distribution (master-seeded)."""
    spec = config.pulse
    rng = np.random.default_rng(mix64(config.seed, 0x7E5D))
    mask = SparsityMask.full(spec.n_subcarriers)
    phases = _random_phase_block(config, config.threshold_samples, rng)
    samples = PhaseEvaluator(spec, uniform_weights(mask), mask).pmepr(phases)
    return pmepr_threshold_from_distribution(samples)


def _run_optimize_constrained(config, run_id, run_dir, rng, *, pmepr_max):
    spec = config.pulse
    n_vars = spec.n_subcarriers * spec.n_symbols
    scores = _full_band_scores(config)

    # compliance is judged on the whole final population, not just the front
    pop_pmeprs = {}

    def observe(gen, genomes, objs, pmeprs):
        pop_pmeprs[gen] = pmeprs.copy()

    archive, _ = nsga2(
        # objectives (pslr_db, islr_db), then the constrained PMEPR
        lambda genomes: scores(genomes)[:, [1, 2, 0]],
        n_vars,
        config.ga,
        rng=rng,
        constraint=ConstraintSpec(pmepr_max=pmepr_max),
        snapshot_every=config.snapshot_every,
        generation_hook=observe,
    )

    front_arr = np.column_stack([archive.pmeprs, archive.objectives])
    front_rows = [
        (pm, ps, il, run_id, config.ga.generations) for pm, ps, il in front_arr.tolist()
    ]
    front_path = run_dir / "front.csv"
    write_csv(front_path, ("pmepr", "pslr_db", "islr_db", "run_id", "generation"), front_rows)

    final_pmeprs = pop_pmeprs[config.ga.generations]
    violators = int(np.sum(final_pmeprs > pmepr_max))
    objectives = {
        "pmepr_max": float(pmepr_max),
        "front_size": len(archive),
        "population_violators": violators,
        "compliant": bool(violators == 0),
        "initial_violator_fraction": float(np.mean(pop_pmeprs[0] > pmepr_max)),
        "final_violator_fraction": float(np.mean(final_pmeprs > pmepr_max)),
        "islr_min_db": float(front_arr[:, 2].min()) if len(front_arr) else float("nan"),
        "islr_max_db": float(front_arr[:, 2].max()) if len(front_arr) else float("nan"),
    }
    _write_json(run_dir / "summary.json", objectives)
    payload = {"front": front_arr, "final_pmeprs": final_pmeprs}
    artifacts = {"front": str(front_path), "summary": str(run_dir / "summary.json")}
    return objectives, artifacts, payload


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
    v_l, v_u = config.weight_bounds
    result = two_step_pipeline(
        target,
        spec,
        config.carrier_hz,
        config.weight_ga,
        config.phase_ga,
        rng,
        v_l=v_l,
        v_u=v_u,
        bits_per_var=config.bits_per_var,
    )

    norm = normalize_reflectivity(
        reflectivity_spectrum(target, spec, config.carrier_hz)
    )
    spectra_path = run_dir / "spectra.csv"
    write_csv(
        spectra_path,
        ("n", "reflectivity_norm_abs", "w_opt"),
        zip(
            range(spec.n_subcarriers),
            np.abs(norm.values).tolist(),
            result.w_opt.weights.tolist(),
        ),
    )
    trace_path = run_dir / "trace.csv"
    _write_trace(trace_path, result.pmepr_trace)
    objectives = {
        "gain_db": result.gain_db,
        "pmepr_initial": result.pmepr_initial,
        "pmepr_final": result.pmepr_final,
    }
    path = run_dir / "illumination.json"
    _write_json(path, objectives)
    payload = {
        "trace": result.pmepr_trace,
        "reflectivity": np.abs(norm.values),
        "w_opt": result.w_opt.weights,
    }
    artifacts = {
        "illumination": str(path),
        "spectra": str(spectra_path),
        "trace": str(trace_path),
    }
    return objectives, artifacts, payload


# --- orchestration ----------------------------------------------------------


_RUNNERS = {
    "dimension": _run_dimension,
    "synthesize": _run_synthesize,
    "evaluate": _run_evaluate,
    "baseline": _run_baseline,
    "optimize-pmepr": _run_optimize_pmepr,
    "optimize-moo": _run_optimize_moo,
    "optimize-constrained": _run_optimize_constrained,
    "illuminate": _run_illuminate,
}


def _execute_run(config: ExperimentConfig, run_id: int, extra: dict) -> tuple[RunResult, dict]:
    """One replica; ``extra`` holds the kind's experiment-wide keyword arguments."""
    run_dir = config.out_path() / str(run_id)
    run_dir.mkdir(parents=True, exist_ok=True)
    seed = mix64(config.seed, run_id)
    rng = np.random.default_rng(seed)
    started = time.perf_counter()
    objectives, artifacts, payload = _RUNNERS[config.kind](config, run_id, run_dir, rng, **extra)
    wall = time.perf_counter() - started
    return RunResult(run_id, seed, objectives, wall, artifacts), payload


def run_experiment(config: ExperimentConfig) -> list[RunResult]:
    """Execute all replicas of one experiment and write the aggregate."""
    out = config.out_path()
    out.mkdir(parents=True, exist_ok=True)

    extra = {}
    if config.kind == "optimize-constrained":
        extra["pmepr_max"] = (
            config.pmepr_max if config.pmepr_max is not None else _derived_pmepr_max(config)
        )

    if config.workers > 1 and config.runs > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            outcomes = list(
                pool.map(
                    functools.partial(_execute_run, config, extra=extra),
                    range(config.runs),
                )
            )
    else:
        outcomes = [_execute_run(config, r, extra) for r in range(config.runs)]

    results = [res for res, _ in outcomes]
    payloads = [pay for _, pay in outcomes]

    _write_aggregate(config, results, payloads, out)
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


def _write_aggregate(config, results, payloads, out: Path) -> None:
    summary = {
        "kind": config.kind,
        "seed": config.seed,
        "runs": config.runs,
        "objectives": _summaries(results),
        "wall_time_s": {str(r.run_id): r.wall_time_s for r in results},
    }
    if config.kind == "optimize-constrained" and results:
        compliant = [r.final_objectives.get("compliant", False) for r in results]
        summary["compliant_runs"] = int(sum(compliant))
        summary["pmepr_max"] = results[0].final_objectives.get("pmepr_max")
    _write_json(out / "summary.json", summary)

    trace_payloads = [p for p in payloads if "trace" in p]
    if trace_payloads:
        emit_plot_data(trace_payloads, "convergence", out)

    if config.kind == "optimize-moo":
        emit_plot_data(payloads, "pareto", out)
    elif config.kind == "optimize-constrained":
        emit_plot_data(
            [
                {**p, "run_id": r.run_id, "compliant": r.final_objectives["compliant"]}
                for p, r in zip(payloads, results)
            ],
            "constrained",
            out,
        )
    elif config.kind == "synthesize":
        emit_plot_data(payloads, "envelope", out)
        emit_plot_data(payloads, "spectrum", out)
    elif config.kind == "illuminate":
        emit_plot_data(payloads, "illumination", out)
