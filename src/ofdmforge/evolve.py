"""Single-objective genetic algorithms.

One elitist loop (``_elitist_minimize``) drives both minimizers: rank the
population, keep the best half, round(P / 2) genomes (half to even, so
P = 5 keeps 2), as-is, and refill the rest with offspring of rank-ordered
parent pairs (pair j mates kept parents 2j and 2j + 1, cycling through the
elite with indices mod n_keep, and has children 2j and 2j + 1).  Each
generation gathers the elite, the lead parents and the tail parents into one
fresh block with a single ``take``.  Each minimizer supplies only its
variation operator, ``vary(lead, tail)``, which breeds the whole offspring
block at once and in place: child i overwrites row i of ``lead`` (its
own-index parent), mixed with row i of ``tail`` (the pair's other).  The
block's first P rows, elite then kids, are the next population, so no block
handed to a fitness is written to afterwards.

* ``sga_minimize`` works on bit strings (single-point crossover at a random
  bit boundary, single-bit flip mutation).  ``decode_phases`` turns a block
  of bit strings into phases: a b-bit word v maps to phi = 2*pi*v / 2**b.
  ``sga_phases`` is the binary PMEPR phase search built from the two.  With
  a sparse mask it scores each distinct pulse once: a memo keyed by the
  bits of the live (nonzero-weight) subcarriers, bounded to twice the
  population and least recently used out, serves offspring that differ
  from a scored pulse only in masked-off words.  Full-band searches skip
  it, since there only bit-identical genomes share a pulse.
* ``continuous_minimize`` works on real vectors in box bounds (blend
  crossover, per-gene uniform-replacement mutation).

Genomes are plain arrays, and every optimizer draws from the
``np.random.Generator`` its caller passes.  Fitness is always minimized;
negate the objective to maximize.  Each optimizer calls its fitness once per
generation on the whole batch of genomes it needs scored (the initial
population, then every generation's offspring), so an objective can score
them together.  A NaN or infinite score raises ``NonFiniteFitnessError``
naming the generation and genome.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CodecError, InvalidSeedError, NonFiniteFitnessError
from .metrics import PhaseEvaluator
from .waveform import TWO_PI

# (P, n) block of genomes -> (P,) fitness values (NSGA-II: (P, m) objectives)
Fitness = Callable[[np.ndarray], np.ndarray]

# Generations whose variation draws ``continuous_minimize`` takes at once
_CHUNK = 8


@dataclass(frozen=True)
class GASchedule:
    """Population size and generation count, all that ``nsga2`` and
    ``sga_minimize`` read.  Both elitist GAs keep the best ``n_keep()``
    genomes of each generation and breed the rest."""

    population_size: int
    generations: int

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")

    def n_keep(self) -> int:
        """The elite: round(P / 2) genomes, half to even (P = 5 keeps 2), so
        1 <= n_keep < P for P >= 2."""
        return round(self.population_size / 2)


@dataclass(frozen=True)
class GAConfig(GASchedule):
    """A schedule plus ``continuous_minimize``'s per-gene mutation rate."""

    mutation_rate: float = 0.2

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 <= self.mutation_rate <= 1:
            raise ValueError("mutation_rate must be in [0, 1]")


@dataclass
class ConvergenceTrace:
    """Per-generation best and mean fitness; entry g is generation g
    (generation 0 = initial pop)."""

    best: np.ndarray
    mean: np.ndarray

    def __len__(self) -> int:
        return len(self.best)


@functools.cache
def _place_values(bits_per_var: int) -> np.ndarray:
    """The read-only float place values 2**(b-1), ..., 2, 1 of a b-bit word."""
    values = 2.0 ** np.arange(bits_per_var - 1, -1, -1)
    values.flags.writeable = False
    return values


def decode_phases(bits: np.ndarray, bits_per_var: int, n: int, k: int) -> np.ndarray:
    """Decode a (P, n*k*bits_per_var) block of bit strings into (P, n, k) phases.

    Each row holds n*k words of ``bits_per_var`` bits, filling (n, k)
    row-major; word value v of b bits maps to phi = 2*pi*v / 2**b.
    """
    b = bits_per_var
    bits = np.asarray(bits, dtype=bool)
    if b < 1 or bits.ndim != 2 or bits.shape[1] != n * k * b:
        raise CodecError(
            f"bit block shape {bits.shape} != (P, n*k*bits_per_var = {n * k * b})"
        )
    words = bits.reshape(len(bits), n * k, b)
    # float place values: every partial sum is an integer below 2**53, so
    # exact, and the float matmul is faster than the int64 one
    values = words @ _place_values(b)
    phases = values * (TWO_PI / (1 << b))
    return phases.reshape(len(bits), n, k)


def score_batch(fitness: Fitness, genomes: np.ndarray, generation: int, ndim: int = 1) -> np.ndarray:
    """Call ``fitness`` once on a block of genomes and check what it returns.

    The result must hold one row per genome (``ndim`` 1: one value each, 2:
    a row of objectives each) and be finite; the first genome with a NaN or
    infinite value raises ``NonFiniteFitnessError``.
    """
    values = np.asarray(fitness(genomes), dtype=float)
    if values.ndim != ndim or len(values) != len(genomes):
        raise ValueError(
            f"fitness returned shape {values.shape} for {len(genomes)} genomes"
        )
    finite = np.isfinite(values)
    if not finite.all():
        row = int(np.argmin(finite.reshape(len(values), -1).all(axis=1)))
        raise NonFiniteFitnessError(generation, row, values[row])
    return values


# (lead parents, tail parents), both (n_offspring, n) and freshly gathered:
# vary overwrites lead with the kids and may overwrite tail
Variation = Callable[[np.ndarray, np.ndarray], None]


def _elitist_minimize(
    fitness: Fitness,
    genomes: np.ndarray,
    config: GASchedule,
    vary: Variation,
) -> tuple[np.ndarray, ConvergenceTrace]:
    """The generation loop both GAs share.

    Each generation ranks the population by fitness (stable, so ties keep
    their order), keeps the best ``n_keep`` and refills the other
    ``population_size - n_keep`` slots with ``vary``'s offspring of
    rank-ordered pairs, scored in one batch.  One ``take`` gathers the
    generation's (2P - n_keep, n) block: the elite, the lead parents and the
    tail parents; ``vary`` breeds over the lead rows in place, and the
    block's first P rows are the next population.  Returns a copy of the
    best final genome and the per-generation trace.
    """
    pop = config.population_size
    n_keep = config.n_keep()
    # the rank behind each row of a generation's block: the elite, then each
    # child's own parent i, then its pair's other parent i ^ 1, both mod n_keep
    child = np.arange(pop - n_keep)
    ranks = np.concatenate([np.arange(n_keep), child % n_keep, (child ^ 1) % n_keep])
    fits = np.empty((config.generations + 1, pop))
    fit = fits[0] = score_batch(fitness, genomes, 0)
    for gen in range(config.generations):
        keep = fit.argsort(kind="stable")[:n_keep]
        block = genomes.take(keep[ranks], axis=0)
        genomes, kids = block[:pop], block[n_keep:pop]
        vary(kids, block[pop:])
        row = fits[gen + 1]
        fit.take(keep, out=row[:n_keep])
        row[n_keep:] = score_batch(fitness, kids, gen + 1)
        fit = row
    best = genomes[int(np.argmin(fit))].copy()
    return best, ConvergenceTrace(best=fits.min(axis=1), mean=fits.mean(axis=1))


def sga_minimize(
    fitness: Fitness,
    n_bits: int,
    config: GASchedule,
    rng: np.random.Generator,
) -> tuple[np.ndarray, ConvergenceTrace]:
    """Binary-encoded elitist GA; returns the best (n_bits,) bool genome
    found and its trace.

    ``fitness`` receives a (P, n_bits) bool array of bit strings and returns
    their P finite scores.
    """
    if n_bits < 1:
        raise ValueError("n_bits must be >= 1")

    def vary(lead, tail):
        # one cut per pair, drawn even when the pair's second child is dropped
        n_pairs = (len(lead) + 1) // 2
        cuts = rng.integers(1, n_bits, size=n_pairs).tolist() if n_bits > 1 else [0] * n_pairs
        for i, (child, other) in enumerate(zip(lead, tail)):
            cut = cuts[i // 2]
            child[cut:] = other[cut:]
            # a coin, outcome unused, before the one bit flip: the draw keeps
            # every design's generator stream
            rng.random()
            bit = rng.integers(n_bits)
            child[bit] = not child[bit]

    genomes = rng.integers(0, 2, size=(config.population_size, n_bits)).astype(bool)
    return _elitist_minimize(fitness, genomes, config, vary)


def _live_bit_memo(score: Fitness, live: np.ndarray, capacity: int) -> Fitness:
    """``score`` behind a memo keyed by each genome's ``live`` bits.

    Genomes that agree on the live bits get the value of the first of them
    scored; each call scores only the first row of every key it has not
    seen, in one batch.  The memo holds at most ``capacity`` keys and drops
    the least recently used one (dict order: a hit moves its key to the
    end).  A call's own keys are the newest, so none it returns is dropped
    while it holds at most ``capacity`` distinct keys.
    """
    memo: dict[bytes, float] = {}

    def fitness(bits: np.ndarray) -> np.ndarray:
        values = np.empty(len(bits))
        unseen: dict[bytes, list[int]] = {}
        # packing the masked block is several times cheaper than bits[:, live];
        # row i's key is bytes i*width..(i+1)*width of the packed block
        packed = np.packbits(bits & live, axis=1)
        width = packed.shape[1]
        raw = packed.tobytes()
        for i in range(len(bits)):
            key = raw[i * width:(i + 1) * width]
            value = memo.pop(key, None)
            if value is None:
                unseen.setdefault(key, []).append(i)
            else:
                memo[key] = values[i] = value
        if unseen:
            firsts = [rows[0] for rows in unseen.values()]
            for (key, rows), value in zip(unseen.items(), score(bits[firsts]).tolist()):
                memo[key] = value
                for i in rows:
                    values[i] = value
            while len(memo) > capacity:
                del memo[next(iter(memo))]
        return values

    return fitness


def sga_phases(
    evaluator: PhaseEvaluator,
    bits_per_var: int,
    config: GASchedule,
    rng: np.random.Generator,
) -> tuple[np.ndarray, ConvergenceTrace]:
    """The binary PMEPR phase search: ``sga_minimize`` over words of
    ``bits_per_var`` bits, one per (subcarrier, symbol) of the evaluator's
    pulse, scored by ``evaluator.pmepr``.  Returns the best (N, K) phases
    and the PMEPR trace.

    The words of subcarriers outside ``evaluator.active`` never reach the
    pulse, so with a sparse mask many offspring differ from a pulse already
    scored only there.  Such a search scores through ``_live_bit_memo``,
    keyed by the live bits and holding at most ``2 * population_size``
    pulses: only first-seen pulses reach ``evaluator.pmepr``, and every
    value, the trace and the generator stream are exactly those of the
    unmemoized search.  A full-band search scores directly, since there
    only bit-identical genomes share a pulse and the memo would cost more
    than it saves.
    """
    n, k = evaluator.spec.n_subcarriers, evaluator.spec.n_symbols

    def score(bits: np.ndarray) -> np.ndarray:
        return evaluator.pmepr(decode_phases(bits, bits_per_var, n, k))

    # words fill (N, K) row-major: subcarrier n owns k * bits_per_var bits
    live = np.repeat(evaluator.active, k * bits_per_var)
    fitness = score if live.all() else _live_bit_memo(score, live, 2 * config.population_size)
    best, trace = sga_minimize(fitness, n * k * bits_per_var, config, rng)
    return decode_phases(best[None], bits_per_var, n, k)[0], trace


def continuous_minimize(
    fitness: Fitness,
    lower: np.ndarray,
    upper: np.ndarray,
    config: GAConfig,
    rng: np.random.Generator,
    seeds: Sequence[np.ndarray] | None = None,
) -> tuple[np.ndarray, ConvergenceTrace]:
    """Real-coded elitist GA in box bounds.

    Offspring come from blend crossover c = beta*p1 + (1-beta)*p2 with beta
    uniform on [-0.1, 1.1], clamped to the box; each gene then mutates with
    probability ``mutation_rate`` into a fresh uniform draw.  The initial
    population is ``seeds`` (validated against the bounds) topped up with
    uniform random vectors.  ``fitness`` maps a (P, n_vars) array to P
    finite scores.

    The variation numbers of eight generations (``_CHUNK``) at a time come
    from one ``rng.random`` call into a buffer allocated once, and each
    chunk's blend factors, mutation masks and replacement genes are formed
    together, so a generation runs only the blend, clamp and mutation of
    its own parents and its fitness call.  The draws are those of one call
    a generation, in the same order, and ``rng`` ends in the same state, as
    long as ``fitness`` draws nothing from ``rng``: a chunk's numbers are
    drawn before its generations are scored.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape or lower.ndim != 1:
        raise ValueError("lower and upper must be 1-D arrays of equal length")
    if not np.all(lower < upper):
        raise ValueError("need lower < upper in every coordinate")
    n_vars = len(lower)
    span = upper - lower
    pop = config.population_size

    init = []
    for s in [] if seeds is None else seeds:
        s = np.asarray(s, dtype=float)
        if s.shape != (n_vars,):
            raise InvalidSeedError(f"seed shape {s.shape} != ({n_vars},)")
        if np.any(s < lower) or np.any(s > upper):
            raise InvalidSeedError("seed genome violates box bounds")
        init.append(s)
    if len(init) > pop:
        raise InvalidSeedError(f"more seeds ({len(init)}) than population slots ({pop})")
    # lower + span * U[0, 1) is what rng.uniform(lower, upper) computes, draw for draw
    fill = lower + span * rng.random((pop - len(init), n_vars))
    genomes = np.concatenate([np.reshape(init, (len(init), n_vars)), fill])

    rate = config.mutation_rate
    n_kids = pop - config.n_keep()
    n_beta = 2 * ((n_kids + 1) // 2)
    n_genes = n_kids * n_vars
    # a generation's draws: one beta per child, drawn pair by pair (a dropped
    # second child's beta is drawn all the same), then, with mutation, the
    # flip draw of every gene, then its replacement draw; one buffer row per
    # generation of a chunk, and the last chunk draws only the rows it needs
    width = n_beta + 2 * n_genes if rate > 0 else n_beta
    draws = np.empty((min(_CHUNK, config.generations), width))

    def chunks():
        """Each generation's (beta, 1 - beta, flip mask, replacement genes),
        formed a chunk of generations at a time from one draw."""
        left = config.generations
        while left:
            u = draws[:min(left, len(draws))]
            left -= len(u)
            rng.random(out=u)
            # the bits of rng.uniform(-0.1, 1.1)
            beta = u[:, :n_kids, None] * (1.1 - -0.1) + -0.1
            flip = fresh = [None] * len(u)
            if rate > 0:
                genes = (len(u), n_kids, n_vars)
                flip = u[:, n_beta:n_beta + n_genes].reshape(genes) < rate
                fresh = u[:, n_beta + n_genes:].reshape(genes)
                # lower + span * fresh, the bits of rng.uniform(lower, upper)
                fresh *= span
                fresh += lower
            yield from zip(beta, 1 - beta, flip, fresh)

    factors = chunks()

    def vary(lead, tail):
        beta, rest, flip, fresh = next(factors)
        # beta * lead + (1 - beta) * tail, in place on the parents
        lead *= beta
        tail *= rest
        lead += tail
        # same bits as np.clip(kids, lower, upper), at a fraction of its cost
        np.maximum(lead, lower, out=lead)
        np.minimum(lead, upper, out=lead)
        if flip is not None:
            np.copyto(lead, fresh, where=flip)

    return _elitist_minimize(fitness, genomes, config, vary)
