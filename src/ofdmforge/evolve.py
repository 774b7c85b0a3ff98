"""Single-objective genetic algorithms.

One elitist loop (``_elitist_minimize``) drives both minimizers: rank the
population, keep the top ``elitism_fraction`` as-is, and refill the rest
with offspring of rank-ordered parent pairs (pair j mates kept parents 2j
and 2j + 1, cycling, and has children 2j and 2j + 1).  Each minimizer
supplies only its variation operator, ``vary(lead, tail, generation) ->
kids``, which breeds the whole offspring block at once: child i mixes row i
of ``lead`` (its own-index parent) with row i of ``tail`` (the pair's other).

* ``sga_minimize`` works on bit strings (single-point crossover at a random
  bit boundary, single-bit flip mutation).  Bit genomes decode to phase codes
  via ``decode_phases``: a b-bit word v maps to phi = 2*pi*v / 2**b.
* ``continuous_minimize`` works on real vectors in box bounds (blend
  crossover, per-gene uniform-replacement mutation).

Fitness is always minimized; negate the objective to maximize.  Each
optimizer calls its fitness once per generation on the whole batch of
genomes it needs scored (the initial population, then every generation's
offspring), so an objective can score them together.  A NaN or infinite
score raises ``NonFiniteFitnessError`` naming the generation and genome.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import CodecError, InvalidSeedError, NonFiniteFitnessError
from .waveform import TWO_PI, PhaseCodeMatrix

# (P, n) block of genomes -> (P,) fitness values (NSGA-II: (P, m) objectives)
Fitness = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class BitEncoding:
    """Shape of a binary genome: n_vars words of bits_per_var bits each."""

    bits_per_var: int
    n_vars: int

    def __post_init__(self) -> None:
        if self.bits_per_var < 1 or self.n_vars < 1:
            raise ValueError("bits_per_var and n_vars must be >= 1")

    @property
    def n_bits(self) -> int:
        return self.bits_per_var * self.n_vars


@dataclass(frozen=True)
class BinaryGenome:
    """A bit string plus the word size needed to decode it."""

    bits: np.ndarray
    bits_per_var: int

    def __post_init__(self) -> None:
        b = np.asarray(self.bits, dtype=bool)
        if b.ndim != 1:
            raise CodecError("bits must be 1-D")
        if self.bits_per_var < 1 or len(b) % self.bits_per_var != 0:
            raise CodecError(
                f"bit length {len(b)} not divisible by bits_per_var {self.bits_per_var}"
            )
        object.__setattr__(self, "bits", b)


@dataclass(frozen=True)
class GAConfig:
    """Knobs shared by the binary and continuous GA.

    population_size must be even (offspring are produced in pairs).
    ``mutation_every``/``mutation_per_offspring`` control the bit-flip
    schedule of the binary GA: on every ``mutation_every``-th generation each
    offspring receives one uniformly random bit flip with probability
    ``mutation_per_offspring``.  ``mutation_rate`` is the per-gene replacement
    probability of the continuous GA.
    """

    population_size: int
    generations: int
    elitism_fraction: float = 0.5
    mutation_every: int = 1
    mutation_per_offspring: float = 1.0
    mutation_rate: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 2 or self.population_size % 2 != 0:
            raise ValueError("population_size must be even and >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if not 0 < self.elitism_fraction < 1:
            raise ValueError("elitism_fraction must be in (0, 1)")
        if self.mutation_every < 1:
            raise ValueError("mutation_every must be >= 1")
        if not 0 <= self.mutation_per_offspring <= 1:
            raise ValueError("mutation_per_offspring must be in [0, 1]")
        if not 0 <= self.mutation_rate <= 1:
            raise ValueError("mutation_rate must be in [0, 1]")

    def n_keep(self) -> int:
        return max(1, int(round(self.population_size * self.elitism_fraction)))


@dataclass
class ConvergenceTrace:
    """Per-generation best and mean fitness; entry g is generation g
    (generation 0 = initial pop)."""

    best: np.ndarray = field(default_factory=lambda: np.empty(0))
    mean: np.ndarray = field(default_factory=lambda: np.empty(0))

    @classmethod
    def from_lists(cls, best: Sequence[float], mean: Sequence[float]) -> "ConvergenceTrace":
        return cls(
            best=np.asarray(best, dtype=float),
            mean=np.asarray(mean, dtype=float),
        )

    def __len__(self) -> int:
        return len(self.best)


def decode_phase_block(bits: np.ndarray, bits_per_var: int, n: int, k: int) -> np.ndarray:
    """Decode a (P, n*k*bits_per_var) block of bit strings into (P, n, k) phases.

    Each row decodes as ``decode_phases`` decodes one genome.
    """
    b = bits_per_var
    bits = np.asarray(bits, dtype=bool)
    if bits.ndim != 2 or bits.shape[1] != n * k * b:
        raise CodecError(
            f"bit block shape {bits.shape} != (P, n*k*bits_per_var = {n * k * b})"
        )
    words = bits.reshape(len(bits), n * k, b)
    # float place values: every partial sum is an integer below 2**53, so
    # exact, and the float matmul is faster than the int64 one
    values = words @ 2.0 ** np.arange(b - 1, -1, -1)
    phases = values * (TWO_PI / (1 << b))
    return phases.reshape(len(bits), n, k)


def decode_phases(genome: BinaryGenome, n: int, k: int) -> PhaseCodeMatrix:
    """Decode a bit string into an (n, k) phase matrix, row-major in (n, k).

    Word value v of b bits maps to phi = 2*pi*v / 2**b.
    """
    return PhaseCodeMatrix(decode_phase_block(genome.bits[None, :], genome.bits_per_var, n, k)[0])


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


def encode_phases(codes: PhaseCodeMatrix, bits_per_var: int) -> BinaryGenome:
    """Inverse of decode_phases on the quantized phase lattice.

    Phases are snapped to the nearest lattice point 2*pi*v/2**b before
    encoding, so encode(decode(g)) == g for every genome g.
    """
    b = bits_per_var
    levels = 1 << b
    values = np.rint(codes.phases.reshape(-1) * levels / TWO_PI).astype(np.int64) % levels
    shifts = np.arange(b - 1, -1, -1, dtype=np.int64)
    bits = (values[:, None] >> shifts[None, :]) & 1
    return BinaryGenome(bits=bits.reshape(-1).astype(bool), bits_per_var=b)


# (lead parents, tail parents, generation) -> kids, all (n_offspring, n)
Variation = Callable[[np.ndarray, np.ndarray, int], np.ndarray]


def _elitist_minimize(
    fitness: Fitness,
    genomes: np.ndarray,
    config: GAConfig,
    vary: Variation,
) -> tuple[np.ndarray, ConvergenceTrace]:
    """The generation loop both GAs share.

    Each generation ranks the population by fitness (stable, so ties keep
    their order), keeps the best ``n_keep`` and refills the other
    ``population_size - n_keep`` slots with ``vary``'s offspring of
    rank-ordered pairs, scored in one batch.  Returns a copy of the best
    final genome and the per-generation trace.
    """
    pop = config.population_size
    n_keep = config.n_keep()
    # rank of each child's parents: child i has parent i and its pair's
    # other parent i ^ 1, both counted mod n_keep
    child = np.arange(pop - n_keep)
    lead, tail = child % n_keep, (child ^ 1) % n_keep
    fits = np.empty((config.generations + 1, pop))
    fit = fits[0] = score_batch(fitness, genomes, 0)
    for gen in range(config.generations):
        keep = np.argsort(fit, kind="stable")[:n_keep]
        kids = vary(genomes[keep[lead]], genomes[keep[tail]], gen)
        kid_fit = score_batch(fitness, kids, gen + 1)
        genomes = np.concatenate([genomes[keep], kids])
        fit = fits[gen + 1] = np.concatenate([fit[keep], kid_fit])
    best = genomes[int(np.argmin(fit))].copy()
    return best, ConvergenceTrace(best=fits.min(axis=1), mean=fits.mean(axis=1))


def sga_minimize(
    fitness: Fitness,
    encoding: BitEncoding,
    config: GAConfig,
    rng: np.random.Generator | None = None,
) -> tuple[BinaryGenome, ConvergenceTrace]:
    """Binary-encoded elitist GA; returns the best genome found and its trace.

    ``fitness`` receives a (P, encoding.n_bits) bool array of bit strings
    and returns their P finite scores.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    n_bits = encoding.n_bits

    def vary(lead, tail, gen):
        # one cut per pair, drawn even when the pair's second child is dropped
        n_pairs = (len(lead) + 1) // 2
        cuts = rng.integers(1, n_bits, size=n_pairs).tolist() if n_bits > 1 else [0] * n_pairs
        kids = tail.copy()
        for i in range(len(kids)):
            cut = cuts[i // 2]
            kids[i, :cut] = lead[i, :cut]
        # per child: its coin draw and bit index interleave in the stream,
        # which one population-wide draw of each would reorder
        if gen % config.mutation_every == 0 and config.mutation_per_offspring > 0:
            for child in kids:
                if rng.random() < config.mutation_per_offspring:
                    child[rng.integers(n_bits)] ^= True
        return kids

    genomes = rng.integers(0, 2, size=(config.population_size, n_bits)).astype(bool)
    best, trace = _elitist_minimize(fitness, genomes, config, vary)
    return BinaryGenome(bits=best, bits_per_var=encoding.bits_per_var), trace


def continuous_minimize(
    fitness: Fitness,
    lower: np.ndarray,
    upper: np.ndarray,
    config: GAConfig,
    rng: np.random.Generator | None = None,
    seeds: Sequence[np.ndarray] | None = None,
) -> tuple[np.ndarray, ConvergenceTrace]:
    """Real-coded elitist GA in box bounds.

    Offspring come from blend crossover c = beta*p1 + (1-beta)*p2 with beta
    uniform on [-0.1, 1.1], clamped to the box; each gene then mutates with
    probability ``mutation_rate`` into a fresh uniform draw.  The initial
    population is ``seeds`` (validated against the bounds) topped up with
    uniform random vectors.  ``fitness`` maps a (P, n_vars) array to P
    finite scores.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
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
    for s in seeds or []:
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

    def vary(lead, tail, gen):
        # one beta per child, drawn pair by pair; a dropped second child's
        # beta is drawn all the same
        beta = rng.uniform(-0.1, 1.1, size=((len(lead) + 1) // 2, 2))
        beta = beta.reshape(-1, 1)[:len(lead)]
        kids = beta * lead + (1 - beta) * tail
        # same bits as np.clip(kids, lower, upper), at a fraction of its cost
        kids = np.minimum(np.maximum(kids, lower), upper)
        if config.mutation_rate > 0:
            # the flip draws for every gene, then the replacement draws
            u = rng.random((2, *kids.shape))
            kids = np.where(u[0] < config.mutation_rate, lower + span * u[1], kids)
        return kids

    return _elitist_minimize(fitness, genomes, config, vary)
