"""NSGA-II over real-coded phase vectors, plus a PMEPR-constrained variant.

The optimizer is the standard elitist loop: binary tournament on
(rank, crowding distance), simulated binary crossover and polynomial
mutation, then environmental selection of the combined parent+offspring
population front by front, truncating the last front by crowding distance.
Phases are circular, so both variation operators wrap results mod 2*pi.

``nsga2`` ranks its two objective columns in one sweep over their sorted
rows and crowds every front at once (``_rank_and_crowd``, O(P log P)).
``nondominated_sort`` and ``crowding_distance`` are the general-m
definitions, kept as the reference that sweep must reproduce exactly.

Each genome is scored once, into two ranked objectives followed by carried
columns that travel with it, unranked, into the hook and the final
population ``nsga2`` returns as (genomes, values, rank).  The constrained
variant caps column 2, the first carried one, which holds the PMEPR: every
individual over the cap gets a crowding distance of exactly zero - strictly
below any feasible interior value - so violators lose tournaments and
truncations against feasible individuals of equal rank.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InsufficientDataError
from .evolve import GASchedule, score_batch
from .waveform import TWO_PI

# (P, n_vars) phase block -> (P, 2 + c) rows: two objectives, then c carried
# columns, the first of which is the PMEPR under a constraint
ObjectiveFn = Callable[[np.ndarray], np.ndarray]
# (generation, genomes, (P, 2 + c) rows as scored, (P,) front index)
GenerationHook = Callable[[int, np.ndarray, np.ndarray, np.ndarray], None]

SBX_ETA = 15.0
MUTATION_ETA = 20.0
CROSSOVER_PROB = 0.9


@dataclass(frozen=True)
class ConstraintSpec:
    """Upper bound on the PMEPR column enforced through crowding suppression."""

    pmepr_max: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.pmepr_max) or self.pmepr_max <= 1:
            raise ValueError("pmepr_max must be finite and > 1")


def nondominated_sort(objectives: np.ndarray | Sequence[Sequence[float]]) -> list[list[int]]:
    """Partition a population into non-domination fronts (front 0 first).

    The general reference for any m >= 2 objectives, from the vectorized
    pairwise dominance matrix (O(m P^2) memory and time).  ``nsga2`` does
    not call it: its two columns go through the sorted sweep of
    ``_rank_and_crowd``, which must give the same fronts.
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


def _rank_and_crowd(
    values: np.ndarray, constraint: ConstraintSpec | None
) -> tuple[np.ndarray, np.ndarray]:
    """Front index and crowding distance of each row, ranked on columns 0-1.

    The same ranks and bit-identical distances as ``nondominated_sort``
    followed by ``crowding_distance`` on each front, without the pairwise
    dominance matrix (Jensen, IEEE TEVC 7(5), 2003).  Among the distinct
    (f0, f1) rows in lexsorted order, a row is dominated by an earlier row
    exactly when that row's f1 is <= its own.  So one sweep in that order
    puts each row in the first front whose lowest f1 so far lies above the
    row's own f1 (a binary search, since those minima rise with the front
    index), or opens a new front; an exact duplicate shares its row's
    front.  Crowding sorts every front at once by (rank, f_j), breaking ties
    by row index as the stable per-front argsort does, and adds objective
    0's gaps before objective 1's.
    """
    f = values[:, :2]
    by_point = np.lexsort((f[:, 1], f[:, 0]))
    rows = f[by_point]
    distinct = np.ones(len(f), dtype=bool)
    distinct[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    lows: list[float] = []  # lows[r]: the lowest f1 of front r so far
    row_rank = []
    for y in rows[distinct, 1].tolist():
        r = bisect_right(lows, y)
        if r == len(lows):
            lows.append(y)
        else:
            lows[r] = y
        row_rank.append(r)
    rank = np.empty(len(f), dtype=int)
    rank[by_point] = np.array(row_rank)[np.cumsum(distinct) - 1]

    # sorted by rank, front r fills positions first[r]..last[r]; its two
    # ends get the infinity sentinel and the rest their neighbour gap
    size = np.bincount(rank)
    last = np.cumsum(size) - 1
    first = last - size + 1
    inner = np.ones(len(f), dtype=bool)
    inner[first] = inner[last] = False
    inner = np.flatnonzero(inner)
    inner_rank = np.repeat(np.arange(len(lows)), size)[inner]
    crowd = np.zeros(len(f))
    for j in range(2):
        order = np.lexsort((f[:, j], rank))
        v = f[order, j]
        span = (v[last] - v[first])[inner_rank]
        spread = span > 0  # a front with no range in f_j gains nothing
        i = inner[spread]
        crowd[order[i]] += (v[i + 1] - v[i - 1]) / span[spread]
        crowd[order[first]] = crowd[order[last]] = np.inf
    if constraint is not None:
        crowd[values[:, 2] > constraint.pmepr_max] = 0.0
    return rank, crowd


def _offspring(
    genomes: np.ndarray,
    rank: np.ndarray,
    crowd: np.ndarray,
    rng: np.random.Generator,
    rate: float,
) -> np.ndarray:
    """P children of a (P, n) population, bred a whole population at once.

    Each pair of parents comes from two binary tournaments: the lower rank
    wins, and at equal rank the larger or equal crowding distance, so the
    first candidate wins a full tie.  A pair crosses with probability
    CROSSOVER_PROB, each variable then with probability 1/2 (SBX); every
    child variable mutates with probability ``rate`` (polynomial mutation).
    Children are wrapped into [0, 2*pi).
    """
    pop, n = genomes.shape
    pairs = (pop + 1) // 2
    cand = rng.integers(pop, size=(pairs, 4))
    a, b = cand[:, 0::2], cand[:, 1::2]
    a_wins = (rank[a] < rank[b]) | ((rank[a] == rank[b]) & (crowd[a] >= crowd[b]))
    parents = np.where(a_wins, a, b)
    p1, p2 = genomes[parents[:, 0]], genomes[parents[:, 1]]

    cross = (rng.random(pairs) < CROSSOVER_PROB)[:, None] & (rng.random((pairs, n)) < 0.5)
    u = rng.random((pairs, n))
    beta = np.where(u <= 0.5, 2.0 * u, 0.5 / (1.0 - u)) ** (1.0 / (SBX_ETA + 1.0))
    c1 = np.where(cross, 0.5 * ((1 + beta) * p1 + (1 - beta) * p2), p1)
    c2 = np.where(cross, 0.5 * ((1 - beta) * p1 + (1 + beta) * p2), p2)
    # siblings next to each other, the second of an odd population's last pair dropped
    kids = np.stack([c1, c2], axis=1).reshape(-1, n)[:pop]

    mutate = rng.random((pop, n)) < rate
    u = rng.random((pop, n))[mutate]
    low = u < 0.5
    power = np.where(low, 2.0 * u, 2.0 * (1.0 - u)) ** (1.0 / (MUTATION_ETA + 1.0))
    kids[mutate] += np.where(low, power - 1.0, 1.0 - power) * TWO_PI
    return np.mod(kids, TWO_PI)


def nsga2(
    objective_fn: ObjectiveFn,
    n_vars: int,
    config: GASchedule,
    rng: np.random.Generator,
    constraint: ConstraintSpec | None = None,
    generation_hook: GenerationHook | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run NSGA-II and return its final population (genomes, values, rank).

    ``objective_fn`` is called once per generation with the (P, n_vars)
    block of phase vectors in [0, 2*pi)^n_vars to be scored and returns a
    (P, 2 + c) matrix: columns 0-1 are the two minimized objectives, and
    columns 2... are carried with each genome, unranked.  A ``constraint``
    caps column 2, which must then hold each genome's PMEPR.

    ``generation_hook(gen, genomes, values, rank)`` observes the whole
    population after every environmental selection, G + 1 times (gen 0 =
    initial population): ``values`` holds the (P, 2 + c) rows as scored and
    ``rank`` each genome's front index, 0 on the Pareto front.  It is the
    only per-generation output, e.g. for periodic front records.  The return
    is the same three arrays as the last hook call, so the final Pareto
    front is the rows with ``rank == 0``.
    """
    pop = config.population_size

    genomes = rng.uniform(0.0, TWO_PI, size=(pop, n_vars))
    values = score_batch(objective_fn, genomes, 0, ndim=2)
    if values.shape[1] < (2 if constraint is None else 3):
        raise ValueError(
            "objective_fn must return two objective columns, then under a"
            " constraint the PMEPR column"
        )
    rank, crowd = _rank_and_crowd(values, constraint)
    if generation_hook is not None:
        generation_hook(0, genomes, values, rank)

    mut_rate = 1.0 / n_vars
    for gen in range(1, config.generations + 1):
        kids = _offspring(genomes, rank, crowd, rng, mut_rate)
        all_genomes = np.concatenate([genomes, kids])
        all_values = np.concatenate([values, score_batch(objective_fn, kids, gen, ndim=2)])
        all_rank, all_crowd = _rank_and_crowd(all_values, constraint)

        # whole fronts in index order, then the front the budget cuts by
        # descending crowding distance (stable on ties)
        cut = np.sort(all_rank)[pop]
        sel = np.lexsort((np.where(all_rank == cut, -all_crowd, 0.0), all_rank))[:pop]
        genomes, values = all_genomes[sel], all_values[sel]
        rank, crowd = all_rank[sel], all_crowd[sel]
        if generation_hook is not None:
            generation_hook(gen, genomes, values, rank)

    return genomes, values, rank


# Fewest random-code PMEPRs the threshold histogram is drawn from.
MIN_THRESHOLD_SAMPLES = 100


def pmepr_threshold_from_distribution(samples: Sequence[float]) -> float:
    """Pick a PMEPR cap from a random-code sample: one bin under the mode.

    Samples are histogrammed with bin width 0.5 anchored at 0; the returned
    threshold is the left edge of the bin immediately below the modal bin.
    """
    vals = np.asarray(samples, dtype=float)
    if len(vals) < MIN_THRESHOLD_SAMPLES:
        raise InsufficientDataError(
            f"need at least {MIN_THRESHOLD_SAMPLES} PMEPR samples, got {len(vals)}"
        )
    width = 0.5
    edges = np.arange(0.0, vals.max() + 2 * width, width)
    hist, _ = np.histogram(vals, bins=edges)
    modal = int(np.argmax(hist))
    return float(edges[max(modal - 1, 0)])
