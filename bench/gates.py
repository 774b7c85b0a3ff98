"""Correctness gates: re-derive every replica's results from its artifacts.

Each gate reads what the runner wrote, recomputes it through the public
``ofdmforge`` API and returns the problems it found together with the design
quality the benchmark reports.  The dominance check is an independent
pairwise oracle rather than the package's own sort.

Each gate also holds the design to a floor that needs no tuned constant, so
that a faster program cannot pass by designing worse pulses unnoticed: the
GAs must improve on their initial population, the illumination weights must
beat flat weights, and a sidelobe design must beat the mean of random codes.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import json
from pathlib import Path

import numpy as np

import ofdmforge as forge

TOL = 1e-9


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read_columns(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[i]) for r in body]) for i, name in enumerate(header)}


def _dominated_rows(objs: np.ndarray) -> int:
    """Number of rows that some other row Pareto-dominates (minimization)."""
    le = (objs[:, None, :] <= objs[None, :, :]).all(axis=2)
    lt = (objs[:, None, :] < objs[None, :, :]).any(axis=2)
    return int((le & lt).any(axis=0).sum())


def _trace_problems(path: Path) -> list[str]:
    best = _read_columns(path)["best"]
    problems = []
    if np.any(np.diff(best) > 0):
        problems.append(f"{path.name}: best fitness increases")
    if not best[-1] < best[0]:
        problems.append(f"{path.name}: no improvement on the initial population")
    return problems


def _sidelobe_objectives(spec, phases: np.ndarray) -> tuple[float, float, float]:
    """(pmepr, pslr_db, islr_db) of a full-band, uniformly weighted pulse."""
    mask = forge.SparsityMask.full(spec.n_subcarriers)
    pulse = forge.synthesize(
        spec,
        forge.PhaseCodeMatrix(phases.reshape(spec.n_subcarriers, spec.n_symbols)),
        forge.uniform_weights(mask),
        mask,
    )
    acf = forge.autocorrelation(pulse)
    return forge.pmepr(pulse), forge.pslr(acf, spec), forge.islr(acf, spec)


@functools.lru_cache(maxsize=None)
def _random_code_means(spec) -> tuple[float, float]:
    """Mean (pmepr, pslr_db) of 64 random full-band codes with a fixed seed."""
    rng = np.random.default_rng(0)
    scores = [
        _sidelobe_objectives(spec, forge.random_phases(spec.n_subcarriers, spec.n_symbols, rng).phases)
        for _ in range(64)
    ]
    pm, ps, _ = np.mean(scores, axis=0)
    return float(pm), float(ps)


def _gate_optimize_pmepr(config, run_dir: Path):
    genome = _read_json(run_dir / "genome.json")
    claimed = _read_json(run_dir / "summary.json")["pmepr"]
    mask = forge.SparsityMask(np.array(genome["mask"], dtype=bool))
    pulse = forge.synthesize(
        config.pulse,
        forge.PhaseCodeMatrix(np.array(genome["phases"])),
        forge.uniform_weights(mask),
        mask,
    )
    recomputed = forge.pmepr(pulse)
    problems = _trace_problems(run_dir / "trace.csv")
    if abs(recomputed - claimed) > TOL:
        problems.append(f"PMEPR of genome.json is {recomputed!r}, summary says {claimed!r}")
    return problems, {"best_pmepr": claimed}


def _front_problems(front: dict[str, np.ndarray], objective_names: tuple[str, ...]) -> list[str]:
    problems = []
    for gen in np.unique(front["generation"]):
        rows = front["generation"] == gen
        objs = np.column_stack([front[name][rows] for name in objective_names])
        dominated = _dominated_rows(objs)
        if dominated:
            problems.append(f"front.csv generation {int(gen)}: {dominated} dominated rows")
    return problems


def _front_quality(front: dict[str, np.ndarray], generation: int) -> dict:
    final = front["generation"] == generation
    return {
        "best_pmepr": float(front["pmepr"][final].min()),
        "best_pslr_db": float(front["pslr_db"][final].min()),
    }


def _gate_optimize_constrained(config, run_dir: Path):
    front = _read_columns(run_dir / "front.csv")
    problems = _front_problems(front, ("pslr_db", "islr_db"))
    quality = _front_quality(front, config.ga.generations)
    random_pslr = _random_code_means(config.pulse)[1]
    if not quality["best_pslr_db"] < random_pslr:
        problems.append(f"best PSLR {quality['best_pslr_db']:.3f} dB does not beat "
                        f"random codes ({random_pslr:.3f} dB)")
    return problems, quality


def _gate_optimize_moo(config, run_dir: Path):
    front = _read_columns(run_dir / "front.csv")
    problems = _front_problems(front, ("pmepr", "pslr_db"))
    names = ("pmepr", "pslr_db", "islr_db")
    rows = _read_json(run_dir / "genome.json")["rows"]
    final = np.flatnonzero(front["generation"] == config.ga.generations)
    if sorted(r["row"] for r in rows) != final.tolist():
        problems.append("genome.json rows do not match the final generation of front.csv")
    for entry in rows:
        got = _sidelobe_objectives(config.pulse, np.array(entry["phases"]))
        want = tuple(front[name][entry["row"]] for name in names)
        if not np.allclose(got, want, rtol=0.0, atol=TOL):
            problems.append(f"front.csv row {entry['row']} re-scores to {got}, file has {want}")
    quality = _front_quality(front, config.ga.generations)
    for key, random_mean in zip(("best_pmepr", "best_pslr_db"), _random_code_means(config.pulse)):
        if not quality[key] < random_mean:
            problems.append(f"{key} {quality[key]:.3f} does not beat random codes ({random_mean:.3f})")
    return problems, quality


def _gate_illuminate(config, run_dir: Path):
    t = config.target
    if t.seed is None or t.scatterers is not None:
        return ["gate needs a seeded random-box target"], {}
    target = forge.TargetModel.random_box(
        t.n_scatterers, t.center_range_m, t.extent_m, np.random.default_rng(t.seed), t.reflectivity
    )
    norm = forge.normalize_reflectivity(
        forge.reflectivity_spectrum(target, config.pulse, config.carrier_hz)
    )
    summary = _read_json(run_dir / "illumination.json")
    w = _read_columns(run_dir / "spectra.csv")["w_opt"]
    # trace.csv is the phase GA's PMEPR trace, whose first and last best are
    # pmepr_initial and pmepr_final, so this also checks that they improve.
    problems = _trace_problems(run_dir / "trace.csv")
    energy = float(np.sum(w**2))
    if abs(energy - 1.0) > TOL:
        problems.append(f"w_opt energy is {energy!r}, not 1")
    else:
        gain = forge.snr_gain_db(forge.WeightVector(w), norm)
        if abs(gain - summary["gain_db"]) > TOL:
            problems.append(f"gain of w_opt is {gain!r}, summary says {summary['gain_db']!r}")
    if not summary["gain_db"] > 0:
        problems.append(f"gain {summary['gain_db']!r} dB does not beat flat weights (0 dB)")
    return problems, {"best_pmepr": summary["pmepr_final"], "gain_db": summary["gain_db"]}


GATES = {
    "optimize-pmepr": _gate_optimize_pmepr,
    "optimize-constrained": _gate_optimize_constrained,
    "optimize-moo": _gate_optimize_moo,
    "illuminate": _gate_illuminate,
}


def check_replicas(config) -> tuple[dict[int, list[str]], list[dict]]:
    """Gate every replica of one finished experiment.

    Returns the problems of each failing replica (keyed by run id) and the
    quality values of the replicas that passed.
    """
    gate = GATES[config.kind]
    failures: dict[int, list[str]] = {}
    quality = []
    for run_id in range(config.runs):
        try:
            problems, values = gate(config, config.out_path() / str(run_id))
        except Exception as exc:  # a missing or unreadable artifact fails the replica
            problems, values = [f"{type(exc).__name__}: {exc}"], {}
        if problems:
            failures[run_id] = problems
        else:
            quality.append(values)
    return failures, quality


def csv_digest(root: Path) -> str:
    """SHA-256 over every CSV under ``root``, keyed by relative path."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.csv")):
        h.update(str(path.relative_to(root)).encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()
