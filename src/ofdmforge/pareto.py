"""NSGA-II over real-coded phase vectors, plus a PMEPR-constrained variant.

The optimizer is the standard elitist loop: binary tournament on
(rank, crowding distance), simulated binary crossover and polynomial
mutation, then environmental selection of the combined parent+offspring
population front by front, truncating the last front by crowding distance.

Phases are circular, so both variation operators wrap results mod 2*pi
instead of clamping to box edges.

The constrained variant implements the envelope-power cap by forcing the
crowding distance of every individual whose PMEPR exceeds the threshold to
exactly zero - strictly below any feasible interior value - right after
crowding assignment, so violators lose tournaments and truncations against
feasible individuals of equal rank.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InsufficientDataError
from .evolve import GAConfig, score_batch
from .waveform import TWO_PI

# (P, n_vars) phase block -> (P, m) objectives, plus a last PMEPR column
# when a constraint is set
ObjectiveFn = Callable[[np.ndarray], np.ndarray]
GenerationHook = Callable[[int, np.ndarray, np.ndarray, "np.ndarray | None"], None]

SBX_ETA = 15.0
MUTATION_ETA = 20.0
CROSSOVER_PROB = 0.9


@dataclass(frozen=True)
class ConstraintSpec:
    """Upper bound on PMEPR enforced through crowding suppression."""

    pmepr_max: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.pmepr_max) or self.pmepr_max <= 1:
            raise ValueError("pmepr_max must be finite and > 1")


@dataclass(frozen=True)
class MultiObjectiveRecord:
    """One evaluated genome with its NSGA-II bookkeeping."""

    genome: np.ndarray
    objectives: np.ndarray
    rank: int
    crowding: float


@dataclass
class ParetoArchive:
    """Mutually non-dominated records (the rank-0 front of a population)."""

    records: list[MultiObjectiveRecord] = field(default_factory=list)

    def objectives_array(self) -> np.ndarray:
        return np.array([r.objectives for r in self.records])

    def genomes_array(self) -> np.ndarray:
        return np.array([r.genome for r in self.records])

    def __len__(self) -> int:
        return len(self.records)


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """Minimization-sense Pareto dominance."""
    return bool(np.all(a <= b) and np.any(a < b))


def nondominated_sort(objectives: np.ndarray | Sequence[Sequence[float]]) -> list[list[int]]:
    """Partition a population into non-domination fronts (front 0 first).

    Uses the vectorized pairwise dominance matrix; fine for the population
    sizes used here (tens of individuals).
    """
    f = np.asarray(objectives, dtype=float)
    if f.ndim != 2 or f.shape[1] < 2:
        raise ValueError("objectives must be (P, m) with m >= 2")
    if not np.all(np.isfinite(f)):
        raise ValueError("objectives must be finite")
    dom = (f[:, None, :] <= f[None, :, :]).all(axis=2) & (
        f[:, None, :] < f[None, :, :]
    ).any(axis=2)
    counts = dom.sum(axis=0)
    remaining = np.ones(len(f), dtype=bool)
    fronts: list[list[int]] = []
    while remaining.any():
        front = np.where(remaining & (counts == 0))[0]
        fronts.append(front.tolist())
        remaining[front] = False
        counts = counts - dom[front].sum(axis=0)
        counts[~remaining] = -1
    return fronts


def crowding_distance(front_objectives: np.ndarray) -> np.ndarray:
    """Crowding distance of each member of one front.

    Boundary members of every objective get the infinity sentinel; interior
    members accumulate the normalized neighbour gap per objective.  An
    objective whose range within the front is zero contributes nothing.
    """
    f = np.asarray(front_objectives, dtype=float)
    if f.ndim != 2 or len(f) == 0:
        raise ValueError("front must be a nonempty (n, m) array")
    n = len(f)
    if n <= 2:
        return np.full(n, np.inf)
    dist = np.zeros(n)
    for j in range(f.shape[1]):
        order = np.argsort(f[:, j], kind="stable")
        vals = f[order, j]
        span = vals[-1] - vals[0]
        dist[order[0]] = dist[order[-1]] = np.inf
        if span > 0:
            dist[order[1:-1]] += (vals[2:] - vals[:-2]) / span
    return dist


def _rank_and_crowd(objectives: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[list[int]]]:
    fronts = nondominated_sort(objectives)
    rank = np.empty(len(objectives), dtype=int)
    crowd = np.empty(len(objectives))
    for r, front in enumerate(fronts):
        idx = np.array(front)
        rank[idx] = r
        crowd[idx] = crowding_distance(objectives[idx])
    return rank, crowd, fronts


def _sbx_pair(
    p1: np.ndarray, p2: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    c1, c2 = p1.copy(), p2.copy()
    if rng.random() < CROSSOVER_PROB:
        n = len(p1)
        do = rng.random(n) < 0.5
        u = rng.random(n)
        beta = np.where(
            u <= 0.5,
            (2.0 * u) ** (1.0 / (SBX_ETA + 1.0)),
            (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (SBX_ETA + 1.0)),
        )
        a = 0.5 * ((1 + beta) * p1 + (1 - beta) * p2)
        b = 0.5 * ((1 - beta) * p1 + (1 + beta) * p2)
        c1[do], c2[do] = a[do], b[do]
    return np.mod(c1, TWO_PI), np.mod(c2, TWO_PI)


def _polynomial_mutation(
    genome: np.ndarray, rng: np.random.Generator, rate: float
) -> np.ndarray:
    n = len(genome)
    do = rng.random(n) < rate
    if not do.any():
        return genome
    u = rng.random(n)
    delta = np.where(
        u < 0.5,
        (2.0 * u) ** (1.0 / (MUTATION_ETA + 1.0)) - 1.0,
        1.0 - (2.0 * (1.0 - u)) ** (1.0 / (MUTATION_ETA + 1.0)),
    )
    out = genome.copy()
    out[do] = np.mod(out[do] + delta[do] * TWO_PI, TWO_PI)
    return out


def _archive_from(
    genomes: np.ndarray, objectives: np.ndarray, rank: np.ndarray, crowd: np.ndarray
) -> ParetoArchive:
    records = [
        MultiObjectiveRecord(
            genome=genomes[i].copy(),
            objectives=objectives[i].copy(),
            rank=0,
            crowding=float(crowd[i]),
        )
        for i in np.where(rank == 0)[0]
    ]
    return ParetoArchive(records=records)


def nsga2(
    objective_fn: ObjectiveFn,
    n_vars: int,
    config: GAConfig,
    rng: np.random.Generator | None = None,
    constraint: ConstraintSpec | None = None,
    snapshot_every: int = 100,
    generation_hook: GenerationHook | None = None,
) -> tuple[ParetoArchive, list[tuple[int, ParetoArchive]]]:
    """Run NSGA-II and return (final archive, periodic archive snapshots).

    ``objective_fn`` is called once per generation with the (P, n_vars)
    block of phase vectors in [0, 2*pi)^n_vars to be scored and returns a
    (P, m) matrix of objectives (minimized, m >= 2).  With a ``constraint``
    it returns one more column, the last, holding each genome's PMEPR, which
    is not an objective but marks violators for suppression.

    ``generation_hook(gen, genomes, objectives, pmeprs)`` observes the whole
    population after every environmental selection (gen 0 = initial
    population; pmeprs is None without a constraint), e.g. for compliance
    accounting.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    pop = config.population_size

    def evaluate(batch: np.ndarray, generation: int):
        values = score_batch(objective_fn, batch, generation, ndim=2)
        if constraint is None:
            return values, None
        if values.shape[1] < 3:
            raise ValueError("a PMEPR constraint needs a last PMEPR column after the objectives")
        return values[:, :-1], values[:, -1]

    genomes = rng.uniform(0.0, TWO_PI, size=(pop, n_vars))
    objs, pmeprs = evaluate(genomes, 0)
    rank, crowd, _ = _rank_and_crowd(objs)
    if constraint is not None:
        crowd = np.where(pmeprs > constraint.pmepr_max, 0.0, crowd)
    if generation_hook is not None:
        generation_hook(0, genomes, objs, pmeprs)

    def tournament_winner(a: int, b: int) -> int:
        if rank[a] != rank[b]:
            return a if rank[a] < rank[b] else b
        return a if crowd[a] >= crowd[b] else b

    snapshots: list[tuple[int, ParetoArchive]] = []
    mut_rate = 1.0 / n_vars
    for gen in range(config.generations):
        kids: list[np.ndarray] = []
        while len(kids) < pop:
            cand = rng.integers(pop, size=4)
            pa = tournament_winner(int(cand[0]), int(cand[1]))
            pb = tournament_winner(int(cand[2]), int(cand[3]))
            c1, c2 = _sbx_pair(genomes[pa], genomes[pb], rng)
            kids.append(_polynomial_mutation(c1, rng, mut_rate))
            if len(kids) < pop:
                kids.append(_polynomial_mutation(c2, rng, mut_rate))
        kid_genomes = np.array(kids)
        kid_objs, kid_pmeprs = evaluate(kid_genomes, gen + 1)

        all_genomes = np.concatenate([genomes, kid_genomes])
        all_objs = np.concatenate([objs, kid_objs])
        all_rank, all_crowd, fronts = _rank_and_crowd(all_objs)
        if constraint is not None:
            all_pmeprs = np.concatenate([pmeprs, kid_pmeprs])
            all_crowd = np.where(all_pmeprs > constraint.pmepr_max, 0.0, all_crowd)

        chosen: list[int] = []
        for front in fronts:
            if len(chosen) + len(front) <= pop:
                chosen.extend(front)
            else:
                need = pop - len(chosen)
                idx = np.array(front)
                order = np.argsort(-all_crowd[idx], kind="stable")
                chosen.extend(idx[order[:need]].tolist())
                break
        sel = np.array(chosen)
        genomes, objs = all_genomes[sel], all_objs[sel]
        rank, crowd = all_rank[sel], all_crowd[sel]
        if constraint is not None:
            pmeprs = all_pmeprs[sel]
        if generation_hook is not None:
            generation_hook(gen + 1, genomes, objs, pmeprs)

        if (gen + 1) % snapshot_every == 0 and gen + 1 < config.generations:
            snapshots.append((gen + 1, _archive_from(genomes, objs, rank, crowd)))

    final = _archive_from(genomes, objs, rank, crowd)
    snapshots.append((config.generations, final))
    return final, snapshots


def pmepr_threshold_from_distribution(samples: Sequence[float]) -> float:
    """Pick a PMEPR cap from a random-code sample: one bin under the mode.

    Samples are histogrammed with bin width 0.5 anchored at 0; the returned
    threshold is the left edge of the bin immediately below the modal bin.
    """
    vals = np.asarray(samples, dtype=float)
    if len(vals) < 100:
        raise InsufficientDataError(
            f"need at least 100 PMEPR samples, got {len(vals)}"
        )
    width = 0.5
    edges = np.arange(0.0, vals.max() + 2 * width, width)
    hist, _ = np.histogram(vals, bins=edges)
    modal = int(np.argmax(hist))
    return float(edges[max(modal - 1, 0)])
