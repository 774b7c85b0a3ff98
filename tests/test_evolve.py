import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import encode_phases, lattice_optimum, lattice_pmeprs
from ofdmforge import (
    GAConfig,
    GASchedule,
    PhaseEvaluator,
    PulseSpec,
    SparsityMask,
    continuous_minimize,
    decode_phases,
    nsga2,
    random_mask,
    sga_minimize,
    sga_phases,
    uniform_weights,
)
from ofdmforge import evolve
from ofdmforge.errors import CodecError, InvalidSeedError, NonFiniteFitnessError
from ofdmforge.evolve import ConvergenceTrace, score_batch

TWO_PI = 2 * np.pi


class TestCodec:
    def test_two_bit_lattice(self):
        bits = np.array([[0, 0, 0, 1, 1, 0, 1, 1]], dtype=bool)
        phases = decode_phases(bits, 2, 4, 1)
        assert phases.shape == (1, 4, 1)
        assert np.allclose(phases[0, :, 0], [0, np.pi / 2, np.pi, 3 * np.pi / 2])

    def test_all_zero_18_bit(self):
        bits = np.zeros((1, 3 * 18), dtype=bool)
        assert np.all(decode_phases(bits, 18, 3, 1) == 0)

    def test_row_major_layout(self):
        # variables fill (n, k) row-major: genome order is (n0k0, n0k1, n1k0, ...)
        bits = np.array([[0, 1, 1, 0]], dtype=bool)  # values 1, 2 with b=2
        assert np.allclose(decode_phases(bits, 2, 1, 2)[0], [[np.pi / 2, np.pi]])
        assert np.allclose(decode_phases(bits, 2, 2, 1)[0], [[np.pi / 2], [np.pi]])

    def test_length_mismatch(self):
        with pytest.raises(CodecError):
            decode_phases(np.zeros((1, 8), dtype=bool), 2, 3, 1)
        with pytest.raises(CodecError):
            decode_phases(np.zeros((1, 7), dtype=bool), 2, 3, 1)
        with pytest.raises(CodecError):  # one genome needs a (1, bits) block
            decode_phases(np.zeros(6, dtype=bool), 2, 3, 1)
        with pytest.raises(CodecError):
            decode_phases(np.zeros((1, 0), dtype=bool), 0, 3, 1)

    @pytest.mark.parametrize("b", [1, 2, 18, 30])
    def test_block_decode_matches_integer_words(self, b):
        n, k = 7, 2
        bits = np.random.default_rng(b).integers(0, 2, size=(5, n * k * b)).astype(bool)
        words = bits.reshape(5, n * k, b).astype(np.int64)
        values = words @ (1 << np.arange(b - 1, -1, -1, dtype=np.int64))
        expected = (values.astype(float) * (TWO_PI / (1 << b))).reshape(5, n, k)
        assert np.array_equal(decode_phases(bits, b, n, k), expected)

    @settings(deadline=None, max_examples=50)
    @given(
        seed=st.integers(0, 2**32 - 1),
        b=st.integers(1, 18),
        n=st.integers(1, 8),
        k=st.integers(1, 3),
    )
    def test_roundtrip_bijection(self, seed, b, n, k):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=n * k * b).astype(bool)
        back = encode_phases(decode_phases(bits[None], b, n, k)[0], b)
        assert np.array_equal(back, bits)


class TestGAConfig:
    def test_validation(self):
        for cls in (GASchedule, GAConfig):
            with pytest.raises(ValueError):
                cls(population_size=1, generations=10)
            with pytest.raises(ValueError):
                cls(population_size=12, generations=0)
        with pytest.raises(TypeError):
            GASchedule(population_size=12, generations=1, mutation_rate=0.2)
        with pytest.raises(ValueError):
            GAConfig(population_size=12, generations=1, mutation_rate=1.5)

    @pytest.mark.parametrize("pop", range(2, 42))
    def test_n_keep_is_half_the_population(self, pop):
        # round half to even: P = 2 keeps 1, P = 3 keeps 2, P = 5 keeps 2
        n_keep = GAConfig(population_size=pop, generations=1).n_keep()
        assert n_keep == round(pop / 2)
        assert type(n_keep) is int and 1 <= n_keep < pop

    @pytest.mark.parametrize("pop", [3, 5, 7])
    def test_odd_populations_run(self, pop):
        # no optimizer needs an even population: a pair's dropped second
        # child costs only its draws
        cfg = GAConfig(population_size=pop, generations=6)
        _, trace = sga_minimize(bit_count_fitness, 12, cfg, np.random.default_rng(pop))
        assert len(trace) == 7 and np.all(np.diff(trace.best) <= 0)
        _, trace = continuous_minimize(sphere, np.full(3, -1.0), np.full(3, 1.0), cfg,
                                       np.random.default_rng(pop))
        assert len(trace) == 7 and np.all(np.diff(trace.best) <= 0)
        sizes = []
        nsga2(lambda g: np.column_stack([np.cos(g).sum(1), np.sin(g).sum(1)]), 4, cfg,
              np.random.default_rng(pop),
              generation_hook=lambda gen, genomes, values, rank: sizes.append(len(genomes)))
        assert sizes == [pop] * 7


def bit_count_fitness(bits: np.ndarray) -> np.ndarray:
    return bits.sum(axis=1).astype(float)


def poisoned(fitness, call: int, row: int, value: float = np.nan):
    """Wrap a batch fitness so that its call number ``call`` (0 = initial
    population) scores genome ``row`` as ``value``."""
    calls = []

    def wrapped(genomes):
        values = np.asarray(fitness(genomes), dtype=float)
        if len(calls) == call:
            values[row] = value
        calls.append(len(genomes))
        return values

    return wrapped


class TestSGA:
    def test_constant_fitness(self):
        cfg = GAConfig(population_size=8, generations=20)
        _, trace = sga_minimize(lambda b: np.full(len(b), 7.5), 12, cfg,
                                np.random.default_rng(0))
        assert np.all(trace.best == 7.5)
        assert np.all(trace.mean == 7.5)

    def test_monotone_best_with_elitism(self):
        cfg = GAConfig(population_size=8, generations=60)
        _, trace = sga_minimize(bit_count_fitness, 32, cfg, np.random.default_rng(1))
        assert np.all(np.diff(trace.best) <= 0)

    def test_never_worse_than_initial_best(self):
        cfg = GAConfig(population_size=8, generations=30)
        best, trace = sga_minimize(bit_count_fitness, 30, cfg, np.random.default_rng(5))
        assert best.shape == (30,) and best.dtype == bool
        assert best.sum() <= trace.best[0]
        assert best.sum() == trace.best[-1]

    def test_solves_onemax(self):
        cfg = GAConfig(population_size=12, generations=300)
        best, _ = sga_minimize(bit_count_fitness, 40, cfg, np.random.default_rng(2))
        assert best.sum() <= 2

    def test_determinism(self):
        cfg = GAConfig(population_size=8, generations=40)
        b1, t1 = sga_minimize(bit_count_fitness, 24, cfg, np.random.default_rng(123))
        b2, t2 = sga_minimize(bit_count_fitness, 24, cfg, np.random.default_rng(123))
        assert np.array_equal(b1, b2)
        assert np.array_equal(t1.best, t2.best)
        assert np.array_equal(t1.mean, t2.mean)

    def test_trace_length(self):
        cfg = GAConfig(population_size=8, generations=25)
        _, trace = sga_minimize(bit_count_fitness, 8, cfg, np.random.default_rng(0))
        assert len(trace) == 26  # initial population plus one entry per generation

    def test_one_fitness_call_per_generation(self):
        cfg = GAConfig(population_size=8, generations=25)
        calls = []

        def fitness(bits):
            calls.append(bits.shape)
            return bit_count_fitness(bits)

        sga_minimize(fitness, 8, cfg, np.random.default_rng(0))
        assert calls == [(8, 8)] + [(4, 8)] * 25

    def test_non_finite_fitness_names_generation_and_genome(self):
        cfg = GAConfig(population_size=8, generations=10)
        with pytest.raises(NonFiniteFitnessError, match="generation 3: genome 2 ") as info:
            sga_minimize(poisoned(bit_count_fitness, 3, 2), 8, cfg, np.random.default_rng(0))
        assert (info.value.generation, info.value.genome) == (3, 2)

    def test_reduces_pmepr_on_small_pulse(self):
        mask = SparsityMask.full(8)
        evaluator = PhaseEvaluator(PulseSpec(8, 1, 1e5, 8), uniform_weights(mask))

        def fitness(bits):
            return evaluator.pmepr(decode_phases(bits, 4, 8, 1))

        cfg = GAConfig(population_size=12, generations=150)
        _, trace = sga_minimize(fitness, 32, cfg, np.random.default_rng(3))
        assert trace.best[-1] < trace.best[0]
        assert trace.best[-1] < 2.5


    def test_rejects_empty_genome(self):
        with pytest.raises(ValueError):
            sga_minimize(bit_count_fitness, 0, GAConfig(population_size=8, generations=1),
                         np.random.default_rng(0))


def phase_evaluator(n: int, k: int, sparse: bool) -> PhaseEvaluator:
    """A uniform-weight evaluator, full band or on a seeded half mask."""
    mask = random_mask(n, 0.5, np.random.default_rng(n)) if sparse else SparsityMask.full(n)
    return PhaseEvaluator(PulseSpec(n, k, 1e5, 4), uniform_weights(mask))


def spy_on_pmepr(evaluator: PhaseEvaluator) -> list[np.ndarray]:
    """Record the phase block of every ``evaluator.pmepr`` call."""
    calls = []
    pmepr = evaluator.pmepr

    def spy(phases):
        calls.append(np.array(phases))
        return pmepr(phases)

    evaluator.pmepr = spy
    return calls


def live_keys(evaluator: PhaseEvaluator, phases: np.ndarray) -> list[bytes]:
    """Each genome's phases on the active subcarriers: equal keys, equal pulse."""
    return [row.tobytes() for row in phases[:, evaluator.active]]


class TestSgaPhases:
    @pytest.mark.parametrize("n, k, b, sparse", [
        (8, 1, 4, False), (5, 3, 2, False), (2, 1, 18, False), (8, 1, 4, True), (5, 3, 2, True),
    ])
    def test_is_the_decoded_bit_search(self, n, k, b, sparse):
        evaluator = phase_evaluator(n, k, sparse)
        assert evaluator.active.all() != sparse
        # P = 7: an elite of 4 and an odd count of 3 offspring
        cfg = GAConfig(population_size=7, generations=15)
        rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
        phases, trace = sga_phases(evaluator, b, cfg, rng)
        ref_bits, ref_trace = sga_minimize(
            lambda bits: evaluator.pmepr(decode_phases(bits, b, n, k)), n * k * b, cfg, ref_rng
        )
        assert phases.shape == (n, k)
        assert np.array_equal(phases, decode_phases(ref_bits[None], b, n, k)[0])
        assert np.array_equal(encode_phases(phases, b), ref_bits)
        assert np.array_equal(trace.best, ref_trace.best)
        assert np.array_equal(trace.mean, ref_trace.mean)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert evaluator.pmepr(phases[None])[0] == trace.best[-1]

    def test_never_beats_the_exact_lattice_optimum(self):
        # every QPSK code of N = 6 is enumerated: a search that reports a
        # PMEPR below the optimum scores pulses wrongly.  The evaluator sums
        # in another order than synthesis, so a tie may land 1 ulp under.
        n, b = 6, 2
        optimum = lattice_optimum(n, b)
        assert optimum == pytest.approx(1.731656447, abs=1e-9)
        evaluator = PhaseEvaluator(PulseSpec(n, 1, 1e5, 20), uniform_weights(SparsityMask.full(n)))
        # each optimal code peaks at two sampling phases, so only the whole
        # lattice pins a kernel that loses one of them
        phases, values = lattice_pmeprs(n, b)
        assert np.allclose(evaluator.pmepr(phases), values, rtol=1e-12, atol=0.0)
        cfg = GAConfig(population_size=12, generations=200)
        for seed in range(6):
            phases, trace = sga_phases(evaluator, b, cfg, np.random.default_rng(seed))
            assert trace.best[-1] >= optimum * (1 - 1e-12), seed
            assert trace.best[-1] == evaluator.pmepr(phases[None])[0]

    @pytest.mark.parametrize("sparse", [False, True])
    def test_scores_each_distinct_pulse_once_per_call(self, sparse):
        n, k, b = 8, 1, 2
        evaluator = phase_evaluator(n, k, sparse)
        calls = spy_on_pmepr(evaluator)
        cfg = GAConfig(population_size=10, generations=30)
        sga_phases(evaluator, b, cfg, np.random.default_rng(2))
        demanded = cfg.population_size + cfg.generations * (cfg.population_size - cfg.n_keep())
        rows = sum(map(len, calls))
        if sparse:
            assert rows < demanded
            for phases in calls:
                keys = live_keys(evaluator, phases)
                assert len(set(keys)) == len(keys)
        else:
            assert rows == demanded

    def test_memo_holds_the_2p_most_recently_used_pulses(self):
        # the search meets more distinct pulses than the memo's 2P = 8, so
        # some are evicted and come back
        n, k, b = 8, 1, 2
        evaluator = phase_evaluator(n, k, sparse=True)
        cfg = GAConfig(population_size=4, generations=40)
        demanded = []

        def record(bits):
            phases = decode_phases(bits, b, n, k)
            demanded.append(live_keys(evaluator, phases))
            return evaluator.pmepr(phases)

        sga_minimize(record, n * k * b, cfg, np.random.default_rng(5))
        # the unseen keys of each call under a least-recently-used memo of
        # 2P keys (a hit moves its key to the newest end)
        memo, expected = {}, []
        for keys in demanded:
            unseen = []
            for key in keys:
                if key in memo:
                    memo[key] = memo.pop(key)
                elif key not in unseen:
                    unseen.append(key)
            memo.update(dict.fromkeys(unseen))
            while len(memo) > 2 * cfg.population_size:
                del memo[next(iter(memo))]
            if unseen:
                expected.append(unseen)
        calls = spy_on_pmepr(evaluator)
        sga_phases(evaluator, b, cfg, np.random.default_rng(5))
        scored = [live_keys(evaluator, phases) for phases in calls]
        assert scored == expected
        # some pulse was evicted and scored again
        flat = [key for keys in scored for key in keys]
        assert len(set(flat)) < len(flat)


def sphere(v: np.ndarray) -> np.ndarray:
    """Squared norm of each row."""
    return np.sum(v * v, axis=1)


class TestContinuousGA:
    def test_sphere_convergence(self):
        cfg = GAConfig(population_size=20, generations=2000)
        best, trace = continuous_minimize(
            sphere, np.full(10, -1.0), np.full(10, 1.0), cfg,
            rng=np.random.default_rng(0),
        )
        assert trace.best[-1] <= 1e-2
        assert sphere(best[None])[0] == trace.best[-1]

    def test_seeding_with_optimum(self):
        cfg = GAConfig(population_size=10, generations=50)
        opt = np.zeros(5)
        best, trace = continuous_minimize(
            sphere, np.full(5, -1.0), np.full(5, 1.0), cfg,
            rng=np.random.default_rng(1), seeds=[opt],
        )
        assert trace.best[-1] <= sphere(opt[None])[0] + 1e-15

    @pytest.mark.parametrize("seeds", [
        np.array([[0.0, -0.2, 0.3], [0.5, 0.0, -0.5]]),  # (S, n) with n > 1
        np.array([[0.0]]),  # one variable: a one-element array is still a seed
    ], ids=["two-seeds", "one-variable"])
    def test_array_seeds_match_list_seeds(self, seeds):
        n = seeds.shape[1]
        cfg = GAConfig(population_size=6, generations=8)
        (best, trace), (list_best, list_trace) = [
            continuous_minimize(sphere, np.full(n, -1.0), np.full(n, 1.0), cfg,
                                np.random.default_rng(3), seeds=form)
            for form in (seeds, list(seeds))
        ]
        assert np.array_equal(best, list_best)
        assert np.array_equal(trace.best, list_trace.best)
        assert np.array_equal(trace.mean, list_trace.mean)
        assert trace.best[0] <= sphere(seeds).min()  # the seeds were scored

    def test_box_respected(self):
        lower, upper = np.full(4, 0.2), np.full(4, 0.9)
        cfg = GAConfig(population_size=10, generations=50)
        best, _ = continuous_minimize(
            sphere, lower, upper, cfg, rng=np.random.default_rng(2)
        )
        assert np.all(best >= lower) and np.all(best <= upper)

    @pytest.mark.parametrize("rate", [0.0, 0.2])
    def test_every_scored_genome_in_box(self, rate):
        # the optimum lies beyond the box, below it in the first half of the
        # genes and above it in the second, so blends press on both faces;
        # the illuminate weight GA's shape, P = 20 and n = 100
        lower, upper = np.full(100, 0.2), np.full(100, 0.9)
        target = np.repeat([0.0, 1.1], 50)
        blocks = []

        def fitness(v):
            blocks.append(v.copy())
            return np.sum((v - target) ** 2, axis=1)

        continuous_minimize(fitness, lower, upper, GAConfig(20, 100, mutation_rate=rate),
                            np.random.default_rng(2))
        scored = np.concatenate(blocks)
        assert np.all(scored >= lower) and np.all(scored <= upper)
        # both faces are reached, so a missing clamp on either would show
        assert np.any(scored == lower) and np.any(scored == upper)

    def test_invalid_seed(self):
        cfg = GAConfig(population_size=10, generations=5)
        with pytest.raises(InvalidSeedError):
            continuous_minimize(
                sphere, np.full(3, -1.0), np.full(3, 1.0), cfg,
                rng=np.random.default_rng(0), seeds=[np.array([0.0, 0.0, 2.0])],
            )
        with pytest.raises(InvalidSeedError):
            continuous_minimize(
                sphere, np.full(3, -1.0), np.full(3, 1.0), cfg,
                rng=np.random.default_rng(0), seeds=[np.zeros(2)],
            )

    def test_invalid_bounds(self):
        cfg = GAConfig(population_size=10, generations=5)
        with pytest.raises(ValueError):
            continuous_minimize(sphere, np.full(3, 1.0), np.full(3, -1.0), cfg,
                                np.random.default_rng(0))

    def test_rejects_empty_genome(self):
        # zero-length bounds fail before any draw, as sga_minimize's n_bits < 1
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="nonempty"):
            continuous_minimize(sphere, np.zeros(0), np.zeros(0),
                                GAConfig(population_size=10, generations=5), rng)
        assert rng.bit_generator.state == state

    def test_determinism(self):
        cfg = GAConfig(population_size=10, generations=30)
        b1, t1 = continuous_minimize(sphere, np.full(4, -2.0), np.full(4, 2.0), cfg,
                                     np.random.default_rng(9))
        b2, t2 = continuous_minimize(sphere, np.full(4, -2.0), np.full(4, 2.0), cfg,
                                     np.random.default_rng(9))
        assert np.array_equal(b1, b2)
        assert np.array_equal(t1.best, t2.best)

    def test_non_finite_fitness_names_generation_and_genome(self):
        cfg = GAConfig(population_size=10, generations=5)
        lower, upper = np.full(3, -1.0), np.full(3, 1.0)
        with pytest.raises(NonFiniteFitnessError, match="generation 0: genome 7 "):
            continuous_minimize(poisoned(sphere, 0, 7), lower, upper, cfg,
                                np.random.default_rng(0))
        with pytest.raises(NonFiniteFitnessError, match="generation 4: genome 0 "):
            continuous_minimize(poisoned(sphere, 4, 0, np.inf), lower, upper, cfg,
                                np.random.default_rng(0))

    @pytest.mark.parametrize("pop", [10, 8, 7, 5, 9])
    def test_one_fitness_call_per_generation(self, pop):
        cfg = GAConfig(population_size=pop, generations=25)
        calls = []

        def fitness(v):
            calls.append(v.shape)
            return sphere(v)

        continuous_minimize(fitness, np.full(3, -1.0), np.full(3, 1.0), cfg,
                            np.random.default_rng(0))
        n_kids = pop - cfg.n_keep()
        assert calls == [(pop, 3)] + [(n_kids, 3)] * 25

    def test_monotone_best(self):
        cfg = GAConfig(population_size=10, generations=100)
        _, trace = continuous_minimize(
            sphere, np.full(6, -3.0), np.full(6, 3.0), cfg,
            rng=np.random.default_rng(4),
        )
        assert np.all(np.diff(trace.best) <= 0)


# The per-pair loops both minimizers ran before they shared one elitist loop,
# kept verbatim as oracles: the shared loop must make the same RNG draws in
# the same order and the same floating-point operations per element.

def _reference_rank_pairs_refill(parents, n_offspring, crossover_pair):
    n_keep = len(parents)
    kids = []
    j = 0
    while len(kids) < n_offspring:
        p1 = parents[(2 * j) % n_keep]
        p2 = parents[(2 * j + 1) % n_keep]
        c1, c2 = crossover_pair(p1, p2)
        kids.append(c1)
        if len(kids) < n_offspring:
            kids.append(c2)
        j += 1
    return kids


def _reference_sga_minimize(fitness, n_bits, config, rng):
    pop = config.population_size
    n_keep = config.n_keep()

    genomes = rng.integers(0, 2, size=(pop, n_bits)).astype(bool)
    fit = score_batch(fitness, genomes, 0)
    best_hist = [float(fit.min())]
    mean_hist = [float(fit.mean())]

    def crossover_pair(p1, p2):
        cut = int(rng.integers(1, n_bits)) if n_bits > 1 else 0
        return (
            np.concatenate([p1[:cut], p2[cut:]]),
            np.concatenate([p2[:cut], p1[cut:]]),
        )

    for gen in range(config.generations):
        order = np.argsort(fit, kind="stable")
        genomes, fit = genomes[order], fit[order]
        kids = _reference_rank_pairs_refill(genomes[:n_keep], pop - n_keep, crossover_pair)
        kids = np.array(kids)
        for child in kids:
            rng.random()  # the coin, outcome unused
            child[rng.integers(n_bits)] ^= True
        kid_fit = score_batch(fitness, kids, gen + 1)
        genomes = np.concatenate([genomes[:n_keep], kids])
        fit = np.concatenate([fit[:n_keep], kid_fit])
        best_hist.append(float(fit.min()))
        mean_hist.append(float(fit.mean()))

    best = genomes[int(np.argmin(fit))]
    return best.copy(), ConvergenceTrace(np.array(best_hist), np.array(mean_hist))


def _reference_continuous_minimize(fitness, lower, upper, config, rng, seeds=None):
    n_vars = len(lower)
    pop = config.population_size
    n_keep = config.n_keep()

    init = []
    for s in seeds or []:
        init.append(np.asarray(s, dtype=float))
    while len(init) < pop:
        init.append(rng.uniform(lower, upper))
    genomes = np.array(init)
    fit = score_batch(fitness, genomes, 0)
    best_hist = [float(fit.min())]
    mean_hist = [float(fit.mean())]

    def crossover_pair(p1, p2):
        beta = rng.uniform(-0.1, 1.1, size=2)
        c1 = np.clip(beta[0] * p1 + (1 - beta[0]) * p2, lower, upper)
        c2 = np.clip(beta[1] * p2 + (1 - beta[1]) * p1, lower, upper)
        return c1, c2

    for gen in range(config.generations):
        order = np.argsort(fit, kind="stable")
        genomes, fit = genomes[order], fit[order]
        kids = np.array(
            _reference_rank_pairs_refill(genomes[:n_keep], pop - n_keep, crossover_pair)
        )
        if config.mutation_rate > 0:
            flip = rng.random(kids.shape) < config.mutation_rate
            fresh = rng.uniform(lower, upper, size=kids.shape)
            kids = np.where(flip, fresh, kids)
        kid_fit = score_batch(fitness, kids, gen + 1)
        genomes = np.concatenate([genomes[:n_keep], kids])
        fit = np.concatenate([fit[:n_keep], kid_fit])
        best_hist.append(float(fit.min()))
        mean_hist.append(float(fit.mean()))

    best = genomes[int(np.argmin(fit))]
    return best.copy(), ConvergenceTrace(np.array(best_hist), np.array(mean_hist))


def weighted_bits(bits: np.ndarray) -> np.ndarray:
    """A bit fitness with few ties: cosine-weighted bit sum."""
    return bits @ np.cos(np.arange(bits.shape[1]))


# The elite is round(P / 2) genomes, so the population size sets the shape
# of each generation's pairing.
STREAM_CONFIGS = {
    # an elite of 4 and 3 offspring: the second pair drops its second child
    "odd-offspring": dict(population_size=7),
    # an elite of 1, mated with itself
    "single-parent": dict(population_size=2),
    # round half to even keeps 2 of 5, so 3 offspring: the second pair
    # cycles back to parents 0 and 1 and drops its second child
    "cycling-elite": dict(population_size=5),
    # an elite of 4 and 5 offspring: the third pair re-mates parents 0 and 1
    "cycling-elite-wide": dict(population_size=9),
    # an elite of 2 and 1 offspring: one parent pair, which drops its second child
    "one-pair": dict(population_size=3),
    # an elite of 4 and 4 offspring: two whole pairs
    "two-pairs": dict(population_size=8),
    # an elite of 5 whose last pair wraps to parent 0
    "wrapping-pair": dict(population_size=10),
    # the real-coded GA copies its blended children unmutated
    "no-mutation": dict(population_size=6, mutation_rate=0.0),
    # every gene of every child is a fresh draw, so each gene checks where
    # the flip draws end and the replacement draws begin
    "full-mutation": dict(population_size=7, mutation_rate=1.0),
    "wide": dict(population_size=40),
}


class TestStreamIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2024])
    @pytest.mark.parametrize("case", sorted(STREAM_CONFIGS))
    @pytest.mark.parametrize("n_bits", [21, 1], ids=["21-bit", "1-bit"])
    @pytest.mark.parametrize("fitness", [bit_count_fitness, weighted_bits],
                             ids=["count", "weighted"])
    def test_sga_matches_per_pair_loop(self, seed, case, n_bits, fitness):
        cfg = GAConfig(generations=30, **STREAM_CONFIGS[case])
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        best, trace = sga_minimize(fitness, n_bits, cfg, rng)
        ref_best, ref_trace = _reference_sga_minimize(fitness, n_bits, cfg, ref_rng)
        assert np.array_equal(best, ref_best)
        assert np.array_equal(trace.best, ref_trace.best)
        assert np.array_equal(trace.mean, ref_trace.mean)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    # continuous_minimize draws its variation numbers a chunk of
    # evolve._CHUNK generations at a time: runs shorter than, exactly, just
    # over and several times one chunk check every chunk edge
    @pytest.mark.parametrize("generations", [1, evolve._CHUNK, evolve._CHUNK + 1, 30])
    @pytest.mark.parametrize("seed", [0, 1, 2024])
    @pytest.mark.parametrize("case", sorted(STREAM_CONFIGS))
    @pytest.mark.parametrize("seeded", [False, True], ids=["random-init", "seeded"])
    def test_continuous_matches_per_pair_loop(self, seed, case, seeded, generations):
        cfg = GAConfig(generations=generations, **STREAM_CONFIGS[case])
        lower = -1.0 - 0.25 * np.arange(9)
        upper = 0.5 + np.arange(9) / 3
        seeds = [np.zeros(9), 0.5 * (lower + upper)] if seeded else None

        def fitness(v):
            return np.sum((v - 0.3) ** 2, axis=1)

        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        best, trace = continuous_minimize(fitness, lower, upper, cfg, rng=rng, seeds=seeds)
        ref_best, ref_trace = _reference_continuous_minimize(
            fitness, lower, upper, cfg, ref_rng, seeds=seeds
        )
        assert np.array_equal(best, ref_best)
        assert np.array_equal(trace.best, ref_trace.best)
        assert np.array_equal(trace.mean, ref_trace.mean)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def keeping(fitness):
    """``fitness`` that also keeps every block it receives, with a copy."""
    kept = []

    def wrapped(genomes):
        kept.append((genomes, genomes.copy()))
        return fitness(genomes)

    return wrapped, kept


class TestScoredBlocksStay:
    """``vary`` breeds in place over the block the elitist loop gathers each
    generation, but no block a fitness has received is written to
    afterwards."""

    @pytest.mark.parametrize("pop", [2, 7, 12])
    def test_sga(self, pop):
        fitness, kept = keeping(weighted_bits)
        sga_minimize(fitness, 21, GASchedule(pop, 30), np.random.default_rng(3))
        assert len(kept) == 31
        for genomes, copy in kept:
            assert np.array_equal(genomes, copy)

    @pytest.mark.parametrize("pop", [2, 7, 20])
    @pytest.mark.parametrize("rate", [0.0, 0.2, 1.0])
    def test_continuous(self, pop, rate):
        fitness, kept = keeping(sphere)
        continuous_minimize(fitness, np.full(9, -1.0), np.full(9, 2.0),
                            GAConfig(pop, 30, mutation_rate=rate), np.random.default_rng(3),
                            seeds=[np.zeros(9)])
        assert len(kept) == 31
        for genomes, copy in kept:
            assert np.array_equal(genomes, copy)
