import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_force_fronts
from ofdmforge import (
    ConstraintSpec,
    GAConfig,
    PhaseEvaluator,
    PulseSpec,
    SparsityMask,
    crowding_distance,
    nondominated_sort,
    nsga2,
    pmepr_threshold_from_distribution,
    uniform_weights,
)
from ofdmforge.errors import InsufficientDataError, NonFiniteFitnessError
from ofdmforge.pareto import _offspring, dominates

TWO_PI = 2 * np.pi


class TestNondominatedSort:
    def test_hand_checked_instance(self):
        fronts = nondominated_sort([(1, 2), (2, 1), (3, 3)])
        assert fronts == [[0, 1], [2]]

    def test_identical_points(self):
        fronts = nondominated_sort([(1.5, 2.5)] * 4)
        assert fronts == [[0, 1, 2, 3]]

    def test_chain(self):
        fronts = nondominated_sort([(3, 3), (2, 2), (1, 1)])
        assert fronts == [[2], [1], [0]]

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 100),
        m=st.integers(2, 3),
    )
    def test_matches_brute_force(self, seed, n, m):
        rng = np.random.default_rng(seed)
        objs = rng.integers(0, 6, size=(n, m)).astype(float)  # many ties
        assert nondominated_sort(objs) == brute_force_fronts(objs)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            nondominated_sort([(1.0,)])
        with pytest.raises(ValueError):
            nondominated_sort([(1.0, np.nan)])


class TestCrowdingDistance:
    def test_two_points_both_infinite(self):
        d = crowding_distance(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.all(np.isinf(d))

    def test_three_collinear_equally_spaced(self):
        d = crowding_distance(np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]]))
        assert np.isinf(d[0]) and np.isinf(d[2])
        assert d[1] == pytest.approx(2.0)

    def test_zero_range_objective_guard(self):
        d = crowding_distance(np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]]))
        assert d[1] == pytest.approx(1.0)  # only the varying objective counts

    def test_interior_ordering(self):
        # the point in the sparser region gets the larger distance
        f = np.array([[0.0, 3.0], [0.1, 2.9], [1.0, 1.0], [3.0, 0.0]])
        d = crowding_distance(f)
        assert d[2] > d[1]


class TestThreshold:
    def test_synthetic_unimodal(self):
        rng = np.random.default_rng(0)
        samples = np.concatenate([
            rng.uniform(6.0, 6.5, 300),   # modal bin [6.0, 6.5)
            rng.uniform(5.5, 6.0, 120),
            rng.uniform(6.5, 7.0, 120),
            rng.uniform(3.0, 5.5, 100),
        ])
        assert pmepr_threshold_from_distribution(samples) == pytest.approx(5.5)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientDataError):
            pmepr_threshold_from_distribution(np.ones(99))


def analytic_biobjective(g):
    v = g[:, 0]
    return np.column_stack([v * v, (v - 2.0) ** 2])


def sidelobe_objectives(n, oversampling=8):
    """(P, n) phase block -> (P, 3) columns (pslr, islr, pmepr) of n-carrier
    single-symbol pulses: the sidelobe objectives, then the constrained PMEPR."""
    mask = SparsityMask.full(n)
    evaluator = PhaseEvaluator(PulseSpec(n, 1, 1e5, oversampling), uniform_weights(mask), mask)
    return lambda g: evaluator.objectives(g.reshape(len(g), n, 1))[:, [1, 2, 0]]


class FixedContests:
    """Generator stand-in: fixed tournament candidates, real draws otherwise."""

    def __init__(self, candidates):
        self.candidates = np.array(candidates)
        self._rng = np.random.default_rng(0)

    def integers(self, high, size):
        assert size == self.candidates.shape and self.candidates.max() < high
        return self.candidates

    def random(self, size=None):
        return self._rng.random(size)


class TestOffspring:
    @pytest.mark.parametrize("rank, crowd, contest, winner", [
        ([1, 0], [5.0, 1.0], (0, 1), 1),  # lower rank wins over crowding
        ([0, 1], [1.0, 5.0], (1, 0), 0),
        ([0, 0], [1.0, 2.0], (0, 1), 1),  # equal rank: larger crowding
        ([0, 0], [3.0, 3.0], (0, 1), 0),  # full tie: the first candidate
        ([0, 0], [3.0, 3.0], (1, 0), 1),
        # a boundary violator (crowding inf, suppressed to 0) loses at equal rank
        ([0, 0], np.where([True, False], 0.0, [np.inf, 0.5]), (0, 1), 1),
        ([0, 0], np.where([True, False], 0.0, [np.inf, 0.5]), (1, 0), 1),
    ])
    def test_tournament(self, rank, crowd, contest, winner):
        # both tournaments of the pair pick the same parent, so SBX returns
        # it to rounding and, without mutation, so do both children
        genomes = np.array([[1.0] * 6, [2.0] * 6])
        rng = FixedContests([contest * 2])
        kids = _offspring(genomes, np.array(rank), np.array(crowd, dtype=float), rng, 0.0)
        assert np.allclose(kids, genomes[winner], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("pop, rate", [(7, 0.2), (8, 1.0)])
    def test_shape_and_range(self, pop, rate):
        rng = np.random.default_rng(pop)
        genomes = np.concatenate([np.full((2, 5), 1e-9), rng.uniform(0, TWO_PI, (pop - 2, 5))])
        genomes[-1] = np.nextafter(TWO_PI, 0)
        for _ in range(50):
            kids = _offspring(genomes, np.zeros(pop, dtype=int), np.ones(pop), rng, rate)
            assert kids.shape == (pop, 5)
            assert np.all((kids >= 0) & (kids < TWO_PI))


class TestNsga2:
    def test_recovers_analytic_convex_front(self):
        cfg = GAConfig(population_size=40, generations=150, seed=3)
        archive, _ = nsga2(analytic_biobjective, 1, cfg)
        objs = archive.objectives
        # points on the front satisfy sqrt(f1) + sqrt(f2) = 2 with v in [0, 2]
        dev = np.abs(np.sqrt(objs[:, 0]) + np.sqrt(objs[:, 1]) - 2.0)
        assert np.all(dev <= 1e-2)
        assert np.sqrt(objs[:, 0]).min() < 0.2
        assert np.sqrt(objs[:, 0]).max() > 1.8

    def test_archive_nondominated_every_generation(self):
        objectives = sidelobe_objectives(6)
        seen = []

        def hook(gen, genomes, objs, pmeprs):
            seen.append(objs.copy())

        cfg = GAConfig(population_size=8, generations=25, seed=7)
        archive, snapshots = nsga2(
            lambda g: objectives(g)[:, :2], 6, cfg, generation_hook=hook
        )
        assert len(seen) == 26
        for objs in seen:
            front = nondominated_sort(objs)[0]
            for i in front:
                for j in front:
                    assert not dominates(objs[i], objs[j])
        final = archive.objectives
        for i in range(len(final)):
            for j in range(len(final)):
                assert not dominates(final[i], final[j])
        assert snapshots[-1][0] == cfg.generations

    def test_environmental_selection_keeps_small_rank0(self):
        # when the rank-0 front fits in the budget it survives whole
        cfg = GAConfig(population_size=8, generations=10, seed=1)
        archive, _ = nsga2(analytic_biobjective, 1, cfg)
        assert 1 <= len(archive) <= 8

    def test_per_objective_minima_never_regress(self):
        # front extremes carry the infinite crowding sentinel, so elitist
        # truncation can never drop them: each objective's population
        # minimum is monotone non-increasing
        objectives = sidelobe_objectives(8)
        minima = []

        def hook(gen, genomes, objs, pmeprs):
            minima.append(objs.min(axis=0))

        cfg = GAConfig(population_size=8, generations=30, seed=5)
        nsga2(lambda g: objectives(g)[:, :2], 8, cfg, generation_hook=hook)
        minima = np.array(minima)
        assert np.all(np.diff(minima[:, 0]) <= 1e-12)
        assert np.all(np.diff(minima[:, 1]) <= 1e-12)

    def test_determinism(self):
        cfg = GAConfig(population_size=8, generations=15, seed=11)
        a1, s1 = nsga2(analytic_biobjective, 2, cfg)
        a2, s2 = nsga2(analytic_biobjective, 2, cfg)
        assert np.array_equal(a1.objectives, a2.objectives)
        assert np.array_equal(a1.genomes, a2.genomes)
        assert [g for g, _ in s1] == [g for g, _ in s2]

    def test_genomes_stay_wrapped(self):
        cfg = GAConfig(population_size=8, generations=20, seed=2)
        archive, _ = nsga2(analytic_biobjective, 3, cfg)
        g = archive.genomes
        assert np.all((g >= 0) & (g < TWO_PI))

    def test_constraint_requires_pmepr_column(self):
        # with a constraint the last column is the PMEPR, leaving one objective
        cfg = GAConfig(population_size=8, generations=5)
        with pytest.raises(ValueError, match="PMEPR column"):
            nsga2(analytic_biobjective, 1, cfg, constraint=ConstraintSpec(5.0))

    def test_one_objective_call_per_generation(self):
        cfg = GAConfig(population_size=8, generations=6, seed=4)
        objectives = sidelobe_objectives(5)
        calls = []

        def objective(g):
            calls.append(g.shape)
            return objectives(g)

        nsga2(objective, 5, cfg, constraint=ConstraintSpec(3.0))
        assert calls == [(8, 5)] * 7

    def test_non_finite_objective_names_generation_and_genome(self):
        cfg = GAConfig(population_size=8, generations=10, seed=2)
        calls = []

        def objective(g):
            values = analytic_biobjective(g)
            if len(calls) == 6:
                values[5, 1] = np.nan
            calls.append(1)
            return values

        with pytest.raises(NonFiniteFitnessError, match="generation 6: genome 5 "):
            nsga2(objective, 1, cfg)

    def test_constraint_spec_validation(self):
        with pytest.raises(ValueError):
            ConstraintSpec(1.0)
        with pytest.raises(ValueError):
            ConstraintSpec(float("inf"))


class TestConstrainedVariant:
    def test_violator_fraction_drops(self):
        # weak testable form of the long-run claim: median final violator
        # fraction over 10 seeded runs is no higher than the initial one
        n = 16
        threshold = 3.5
        objectives = sidelobe_objectives(n)
        initials, finals = [], []
        for s in range(10):
            fractions = {}

            def hook(gen, genomes, objs, pmeprs):
                fractions[gen] = float(np.mean(pmeprs > threshold))

            cfg = GAConfig(population_size=24, generations=400, seed=100 + s)
            nsga2(
                objectives,
                n,
                cfg,
                constraint=ConstraintSpec(threshold),
                generation_hook=hook,
            )
            initials.append(fractions[0])
            finals.append(fractions[cfg.generations])
        assert np.median(finals) <= np.median(initials)

    def test_suppressed_crowding_loses_truncation(self):
        # all-violating population still works (pure rank selection)
        cfg = GAConfig(population_size=8, generations=10, seed=0)
        archive, _ = nsga2(
            sidelobe_objectives(8),
            8,
            cfg,
            constraint=ConstraintSpec(1.01),  # everything violates
        )
        assert len(archive) >= 1
