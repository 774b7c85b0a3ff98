import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ofdmforge import (
    BinaryGenome,
    BitEncoding,
    GAConfig,
    PhaseEvaluator,
    PulseSpec,
    SparsityMask,
    continuous_minimize,
    decode_phase_block,
    decode_phases,
    encode_phases,
    sga_minimize,
    uniform_weights,
)
from ofdmforge.errors import CodecError, InvalidSeedError, NonFiniteFitnessError

TWO_PI = 2 * np.pi


class TestCodec:
    def test_two_bit_lattice(self):
        bits = np.array([0, 0, 0, 1, 1, 0, 1, 1], dtype=bool)
        codes = decode_phases(BinaryGenome(bits, 2), 4, 1)
        assert np.allclose(codes.phases[:, 0], [0, np.pi / 2, np.pi, 3 * np.pi / 2])

    def test_all_zero_18_bit(self):
        bits = np.zeros(3 * 18, dtype=bool)
        codes = decode_phases(BinaryGenome(bits, 18), 3, 1)
        assert np.all(codes.phases == 0)

    def test_row_major_layout(self):
        # variables fill (n, k) row-major: genome order is (n0k0, n0k1, n1k0, ...)
        bits = np.array([0, 1, 1, 0], dtype=bool)  # values 1, 2 with b=2
        codes = decode_phases(BinaryGenome(bits, 2), 1, 2)
        assert np.allclose(codes.phases, [[np.pi / 2, np.pi]])
        codes = decode_phases(BinaryGenome(bits, 2), 2, 1)
        assert np.allclose(codes.phases, [[np.pi / 2], [np.pi]])

    def test_length_mismatch(self):
        with pytest.raises(CodecError):
            decode_phases(BinaryGenome(np.zeros(8, dtype=bool), 2), 3, 1)
        with pytest.raises(CodecError):
            BinaryGenome(np.zeros(7, dtype=bool), 2)

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
        genome = BinaryGenome(bits, b)
        back = encode_phases(decode_phases(genome, n, k), b)
        assert np.array_equal(back.bits, bits)
        assert back.bits_per_var == b


class TestGAConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GAConfig(population_size=3, generations=10)
        with pytest.raises(ValueError):
            GAConfig(population_size=12, generations=0)
        with pytest.raises(ValueError):
            GAConfig(population_size=12, generations=1, elitism_fraction=1.0)
        with pytest.raises(ValueError):
            GAConfig(population_size=12, generations=1, mutation_rate=1.5)

    def test_n_keep(self):
        assert GAConfig(population_size=12, generations=1).n_keep() == 6
        assert GAConfig(population_size=12, generations=1, elitism_fraction=0.25).n_keep() == 3


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
        _, trace = sga_minimize(lambda b: np.full(len(b), 7.5), BitEncoding(4, 3), cfg)
        assert np.all(trace.best == 7.5)
        assert np.all(trace.mean == 7.5)

    def test_monotone_best_with_elitism(self):
        cfg = GAConfig(population_size=8, generations=60)
        _, trace = sga_minimize(bit_count_fitness, BitEncoding(4, 8), cfg,
                                rng=np.random.default_rng(1))
        assert np.all(np.diff(trace.best) <= 0)

    def test_never_worse_than_initial_best(self):
        cfg = GAConfig(population_size=8, generations=30)
        best, trace = sga_minimize(bit_count_fitness, BitEncoding(3, 10), cfg,
                                   rng=np.random.default_rng(5))
        assert best.bits.sum() <= trace.best[0]
        assert best.bits.sum() == trace.best[-1]

    def test_solves_onemax(self):
        cfg = GAConfig(population_size=12, generations=300)
        best, _ = sga_minimize(bit_count_fitness, BitEncoding(4, 10), cfg,
                               rng=np.random.default_rng(2))
        assert best.bits.sum() <= 2

    def test_determinism(self):
        cfg = GAConfig(population_size=8, generations=40, seed=123)
        b1, t1 = sga_minimize(bit_count_fitness, BitEncoding(4, 6), cfg)
        b2, t2 = sga_minimize(bit_count_fitness, BitEncoding(4, 6), cfg)
        assert np.array_equal(b1.bits, b2.bits)
        assert np.array_equal(t1.best, t2.best)
        assert np.array_equal(t1.mean, t2.mean)

    def test_trace_length(self):
        cfg = GAConfig(population_size=8, generations=25)
        _, trace = sga_minimize(bit_count_fitness, BitEncoding(2, 4), cfg)
        assert len(trace) == 26  # initial population plus one entry per generation

    def test_one_fitness_call_per_generation(self):
        cfg = GAConfig(population_size=8, generations=25)
        calls = []

        def fitness(bits):
            calls.append(bits.shape)
            return bit_count_fitness(bits)

        sga_minimize(fitness, BitEncoding(2, 4), cfg)
        assert calls == [(8, 8)] + [(4, 8)] * 25

    def test_non_finite_fitness_names_generation_and_genome(self):
        cfg = GAConfig(population_size=8, generations=10)
        with pytest.raises(NonFiniteFitnessError, match="generation 3: genome 2 ") as info:
            sga_minimize(poisoned(bit_count_fitness, 3, 2), BitEncoding(2, 4), cfg)
        assert (info.value.generation, info.value.genome) == (3, 2)

    def test_reduces_pmepr_on_small_pulse(self):
        mask = SparsityMask.full(8)
        evaluator = PhaseEvaluator(PulseSpec(8, 1, 1e5, 8), uniform_weights(mask), mask)

        def fitness(bits):
            return evaluator.pmepr(decode_phase_block(bits, 4, 8, 1))

        cfg = GAConfig(population_size=12, generations=150)
        _, trace = sga_minimize(fitness, BitEncoding(4, 8), cfg,
                                rng=np.random.default_rng(3))
        assert trace.best[-1] < trace.best[0]
        assert trace.best[-1] < 2.5


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

    def test_box_respected(self):
        lower, upper = np.full(4, 0.2), np.full(4, 0.9)
        cfg = GAConfig(population_size=10, generations=50)
        best, _ = continuous_minimize(
            sphere, lower, upper, cfg, rng=np.random.default_rng(2)
        )
        assert np.all(best >= lower) and np.all(best <= upper)

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
            continuous_minimize(sphere, np.full(3, 1.0), np.full(3, -1.0), cfg)

    def test_determinism(self):
        cfg = GAConfig(population_size=10, generations=30, seed=9)
        b1, t1 = continuous_minimize(sphere, np.full(4, -2.0), np.full(4, 2.0), cfg)
        b2, t2 = continuous_minimize(sphere, np.full(4, -2.0), np.full(4, 2.0), cfg)
        assert np.array_equal(b1, b2)
        assert np.array_equal(t1.best, t2.best)

    def test_non_finite_fitness_names_generation_and_genome(self):
        cfg = GAConfig(population_size=10, generations=5)
        lower, upper = np.full(3, -1.0), np.full(3, 1.0)
        with pytest.raises(NonFiniteFitnessError, match="generation 0: genome 7 "):
            continuous_minimize(poisoned(sphere, 0, 7), lower, upper, cfg)
        with pytest.raises(NonFiniteFitnessError, match="generation 4: genome 0 "):
            continuous_minimize(poisoned(sphere, 4, 0, np.inf), lower, upper, cfg)

    def test_monotone_best(self):
        cfg = GAConfig(population_size=10, generations=100)
        _, trace = continuous_minimize(
            sphere, np.full(6, -3.0), np.full(6, 3.0), cfg,
            rng=np.random.default_rng(4),
        )
        assert np.all(np.diff(trace.best) <= 0)
