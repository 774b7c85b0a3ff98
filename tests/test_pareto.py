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
from ofdmforge.evolve import score_batch
from ofdmforge.pareto import _offspring, _rank_and_crowd

TWO_PI = 2 * np.pi


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """Minimization-sense Pareto dominance."""
    return bool(np.all(a <= b) and np.any(a < b))


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


def with_carried_columns(g):
    """The analytic objectives, then two unranked columns of the genome."""
    return np.column_stack([analytic_biobjective(g), g[:, 1], g.sum(axis=1)])


def sidelobe_objectives(n, oversampling=8):
    """(P, n) phase block -> (P, 3) columns (pslr, islr, pmepr) of n-carrier
    single-symbol pulses: the sidelobe objectives, then the constrained PMEPR."""
    mask = SparsityMask.full(n)
    evaluator = PhaseEvaluator(PulseSpec(n, 1, 1e5, oversampling), uniform_weights(mask))
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
        cfg = GAConfig(population_size=40, generations=150)
        _, values, rank = nsga2(analytic_biobjective, 1, cfg, np.random.default_rng(3))
        objs = values[rank == 0]
        # points on the front satisfy sqrt(f1) + sqrt(f2) = 2 with v in [0, 2]
        dev = np.abs(np.sqrt(objs[:, 0]) + np.sqrt(objs[:, 1]) - 2.0)
        assert np.all(dev <= 1e-2)
        assert np.sqrt(objs[:, 0]).min() < 0.2
        assert np.sqrt(objs[:, 0]).max() > 1.8

    def test_archive_nondominated_every_generation(self):
        objectives = sidelobe_objectives(6)
        seen = []

        def hook(gen, genomes, values, rank):
            seen.append((values.copy(), rank.copy()))

        cfg = GAConfig(population_size=8, generations=25)
        nsga2(
            lambda g: objectives(g)[:, :2], 6, cfg, np.random.default_rng(7),
            generation_hook=hook,
        )
        assert len(seen) == 26
        for objs, rank in seen:
            front = nondominated_sort(objs)[0]
            assert np.flatnonzero(rank == 0).tolist() == front
            for i in front:
                for j in front:
                    assert not dominates(objs[i], objs[j])

    def test_environmental_selection_keeps_small_rank0(self):
        # when the rank-0 front fits in the budget it survives whole
        cfg = GAConfig(population_size=8, generations=10)
        _, _, rank = nsga2(analytic_biobjective, 1, cfg, np.random.default_rng(1))
        assert 1 <= np.count_nonzero(rank == 0) <= 8

    def test_per_objective_minima_never_regress(self):
        # front extremes carry the infinite crowding sentinel, so elitist
        # truncation can never drop them: each objective's population
        # minimum is monotone non-increasing
        objectives = sidelobe_objectives(8)
        minima = []

        def hook(gen, genomes, values, rank):
            minima.append(values.min(axis=0))

        cfg = GAConfig(population_size=8, generations=30)
        nsga2(lambda g: objectives(g)[:, :2], 8, cfg, np.random.default_rng(5),
              generation_hook=hook)
        minima = np.array(minima)
        assert np.all(np.diff(minima[:, 0]) <= 1e-12)
        assert np.all(np.diff(minima[:, 1]) <= 1e-12)

    def test_determinism(self):
        cfg = GAConfig(population_size=8, generations=15)
        first = nsga2(analytic_biobjective, 2, cfg, np.random.default_rng(11))
        second = nsga2(analytic_biobjective, 2, cfg, np.random.default_rng(11))
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_genomes_stay_wrapped(self):
        cfg = GAConfig(population_size=8, generations=20)
        g, _, _ = nsga2(analytic_biobjective, 3, cfg, np.random.default_rng(2))
        assert np.all((g >= 0) & (g < TWO_PI))

    def test_constraint_requires_pmepr_column(self):
        # with a constraint column 2 is the PMEPR, and two objectives leave none
        cfg = GAConfig(population_size=8, generations=5)
        with pytest.raises(ValueError, match="PMEPR column"):
            nsga2(analytic_biobjective, 1, cfg, np.random.default_rng(0),
                  constraint=ConstraintSpec(5.0))

    def test_rejects_empty_genome(self):
        # no phase to vary: fails before any draw, as sga_minimize's n_bits < 1
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="n_vars"):
            nsga2(analytic_biobjective, 0, GAConfig(population_size=8, generations=5), rng)
        assert rng.bit_generator.state == state

    def test_needs_two_objective_columns(self):
        cfg = GAConfig(population_size=8, generations=5)
        with pytest.raises(ValueError, match="two objective columns"):
            nsga2(lambda g: analytic_biobjective(g)[:, :1], 1, cfg, np.random.default_rng(0))

    def test_carried_columns_travel_with_their_genomes(self):
        # two carried columns, neither ranked: every hook call holds the
        # objective's own columns 2...
        hooked = []

        def hook(gen, genomes, values, rank):
            hooked.append((genomes, values, rank))

        cfg = GAConfig(population_size=10, generations=12)
        nsga2(with_carried_columns, 3, cfg, np.random.default_rng(8), generation_hook=hook)
        assert len(hooked) == 13
        for genomes, values, _ in hooked:
            assert values.shape == (10, 4)
            assert np.array_equal(values, with_carried_columns(genomes))

    @pytest.mark.parametrize("objective, n_carried", [
        (analytic_biobjective, 0), (with_carried_columns, 2),
    ], ids=["two-columns", "two-carried"])
    def test_returns_the_last_hook_call(self, objective, n_carried):
        # the result is the final population as the last hook call saw it
        hooked = []

        def hook(gen, genomes, values, rank):
            hooked.append((genomes, values, rank))

        cfg = GAConfig(population_size=8, generations=7)
        final = nsga2(objective, 3, cfg, np.random.default_rng(8), generation_hook=hook)
        genomes, values, rank = final
        assert len(final) == 3 and len(hooked) == 8
        assert genomes.shape == (8, 3) and values.shape == (8, 2 + n_carried)
        assert rank.shape == (8,) and np.any(rank == 0)
        for got, seen in zip(final, hooked[-1]):
            assert np.array_equal(got, seen)

    def test_one_objective_call_per_generation(self):
        cfg = GAConfig(population_size=8, generations=6)
        objectives = sidelobe_objectives(5)
        calls = []

        def objective(g):
            calls.append(g.shape)
            return objectives(g)

        nsga2(objective, 5, cfg, np.random.default_rng(4), constraint=ConstraintSpec(3.0))
        assert calls == [(8, 5)] * 7

    def test_non_finite_objective_names_generation_and_genome(self):
        cfg = GAConfig(population_size=8, generations=10)
        calls = []

        def objective(g):
            values = analytic_biobjective(g)
            if len(calls) == 6:
                values[5, 1] = np.nan
            calls.append(1)
            return values

        with pytest.raises(NonFiniteFitnessError, match="generation 6: genome 5 "):
            nsga2(objective, 1, cfg, np.random.default_rng(2))

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

            def hook(gen, genomes, values, rank):
                fractions[gen] = float(np.mean(values[:, 2] > threshold))

            cfg = GAConfig(population_size=24, generations=400)
            nsga2(
                objectives,
                n,
                cfg,
                np.random.default_rng(100 + s),
                constraint=ConstraintSpec(threshold),
                generation_hook=hook,
            )
            initials.append(fractions[0])
            finals.append(fractions[cfg.generations])
        assert np.median(finals) <= np.median(initials)

    def test_suppressed_crowding_loses_truncation(self):
        # all-violating population still works (pure rank selection)
        cfg = GAConfig(population_size=8, generations=10)
        _, values, rank = nsga2(
            sidelobe_objectives(8),
            8,
            cfg,
            np.random.default_rng(0),
            constraint=ConstraintSpec(1.01),  # everything violates
        )
        assert np.all(values[:, 2] > 1.01) and np.any(rank == 0)


def _reference_rank_and_crowd(objectives):
    fronts = nondominated_sort(objectives)
    rank = np.empty(len(objectives), dtype=int)
    crowd = np.empty(len(objectives))
    for r, front in enumerate(fronts):
        idx = np.array(front)
        rank[idx] = r
        crowd[idx] = crowding_distance(objectives[idx])
    return rank, crowd, fronts


def _reference_nsga2(objective_fn, n_vars, config, rng, constraint=None,
                     generation_hook=None, events=None):
    """NSGA-II as it selected survivors with a front-by-front refill loop.

    Returns the final population as ``nsga2`` does, (genomes, values, rank)
    with the PMEPR column last under a constraint.  ``events`` collects
    "exact" when whole fronts fill the budget exactly and "tie" when the cut
    front's truncation meets equal crowding distances.
    """
    pop = config.population_size

    def evaluate(batch, generation):
        values = score_batch(objective_fn, batch, generation, ndim=2)
        if constraint is None:
            return values, None
        return values[:, :-1], values[:, -1]

    def rows():
        return objs if pmeprs is None else np.column_stack([objs, pmeprs])

    def observe(gen):
        if generation_hook is not None:
            generation_hook(gen, genomes, rows(), rank)

    genomes = rng.uniform(0.0, TWO_PI, size=(pop, n_vars))
    objs, pmeprs = evaluate(genomes, 0)
    rank, crowd, _ = _reference_rank_and_crowd(objs)
    if constraint is not None:
        crowd = np.where(pmeprs > constraint.pmepr_max, 0.0, crowd)
    observe(0)

    mut_rate = 1.0 / n_vars
    for gen in range(config.generations):
        kid_genomes = _offspring(genomes, rank, crowd, rng, mut_rate)
        kid_objs, kid_pmeprs = evaluate(kid_genomes, gen + 1)

        all_genomes = np.concatenate([genomes, kid_genomes])
        all_objs = np.concatenate([objs, kid_objs])
        all_rank, all_crowd, fronts = _reference_rank_and_crowd(all_objs)
        if constraint is not None:
            all_pmeprs = np.concatenate([pmeprs, kid_pmeprs])
            all_crowd = np.where(all_pmeprs > constraint.pmepr_max, 0.0, all_crowd)

        chosen = []
        for front in fronts:
            if len(chosen) + len(front) <= pop:
                chosen.extend(front)
            else:
                need = pop - len(chosen)
                idx = np.array(front)
                order = np.argsort(-all_crowd[idx], kind="stable")
                chosen.extend(idx[order[:need]].tolist())
                if events is not None:
                    if need == 0:
                        events.add("exact")
                    elif len(np.unique(all_crowd[idx])) < len(idx):
                        events.add("tie")
                break
        sel = np.array(chosen)
        genomes, objs = all_genomes[sel], all_objs[sel]
        rank, crowd = all_rank[sel], all_crowd[sel]
        if constraint is not None:
            pmeprs = all_pmeprs[sel]
        observe(gen + 1)

    return genomes, rows(), rank


def coarse_objectives(g):
    """Integer-valued (f1, f2, pmepr-like) rows: many exact ties and
    duplicate points, so fronts often fill the budget exactly."""
    return np.column_stack([
        np.floor(2.0 * np.cos(g).sum(axis=1)),
        np.floor(2.0 * np.sin(g).sum(axis=1)),
        np.floor(g[:, 0]) + 1.0,
    ])


ORACLE_POPS = [4, 8, 10, 24]


def _oracle_pair(pop, constrained, seed, events=None):
    cfg = GAConfig(population_size=pop, generations=30)
    constraint = ConstraintSpec(4.0) if constrained else None
    runs = []
    for run in (nsga2, _reference_nsga2):
        rng = np.random.default_rng(seed)
        hooked = []

        def hook(gen, genomes, values, rank, _hooked=hooked):
            _hooked.append((gen, genomes.copy(), values.copy(), rank.copy()))

        # the reference splits off a last PMEPR column, the new contract
        # carries every column after the two objectives
        objective = coarse_objectives if constrained else (lambda g: coarse_objectives(g)[:, :2])
        kwargs = {"events": events} if run is _reference_nsga2 else {}
        final = run(objective, 3, cfg, rng, constraint=constraint, generation_hook=hook, **kwargs)
        runs.append((final, hooked, rng.bit_generator.state))
    return runs


class TestSelectionOracle:
    @pytest.mark.parametrize("constrained", [False, True], ids=["free", "capped"])
    @pytest.mark.parametrize("pop", ORACLE_POPS)
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_front_by_front_refill(self, pop, constrained, seed):
        (final, hooked, state), (ref_final, ref_hooked, ref_state) = (
            _oracle_pair(pop, constrained, seed)
        )
        assert len(hooked) == len(ref_hooked) == 31
        for (gen, genomes, values, rank), (ref_gen, ref_genomes, ref_values, ref_rank) in zip(
            hooked, ref_hooked
        ):
            assert gen == ref_gen
            assert np.array_equal(genomes, ref_genomes)
            assert np.array_equal(values, ref_values)
            assert np.array_equal(rank, ref_rank)
        for got, want in zip(final, ref_final):
            assert np.array_equal(got, want)
        assert state == ref_state

    def test_oracle_cases_meet_ties_and_exact_fills(self):
        # the coarse objectives exercise both orderings the lexsort must keep
        events = set()
        for pop in ORACLE_POPS:
            for constrained in (False, True):
                _oracle_pair(pop, constrained, 0, events)
        assert events == {"exact", "tie"}


def _assert_matches_reference(values, constraints=(None,)):
    ref_rank, ref_crowd, _ = _reference_rank_and_crowd(values[:, :2])
    for constraint in constraints:
        rank, crowd = _rank_and_crowd(values, constraint)
        expected = ref_crowd if constraint is None else np.where(
            values[:, 2] > constraint.pmepr_max, 0.0, ref_crowd)
        assert np.array_equal(rank, ref_rank)
        assert np.array_equal(crowd, expected)
    return rank, crowd


class TestRankAndCrowd:
    """The two-column sorted pass against nondominated_sort plus per-front
    crowding_distance: equal ranks and bit-identical distances."""

    def test_random_populations_match_reference_exactly(self):
        rng = np.random.default_rng(2003)
        cap = ConstraintSpec(3.5)
        for trial in range(3000):
            pop = int(rng.integers(1, 90))
            if trial % 2:  # many ties and exact duplicates
                values = rng.integers(0, 6, size=(pop, 3)).astype(float)
            else:
                values = np.column_stack([rng.normal(size=(pop, 2)), rng.uniform(1, 6, pop)])
            _assert_matches_reference(values, (None, cap))

    def test_one_row(self):
        rank, crowd = _assert_matches_reference(np.array([[0.3, 0.7]]))
        assert rank.tolist() == [0] and np.isinf(crowd).all()

    @pytest.mark.parametrize("values, ranks", [
        ([[0.0, 1.0], [1.0, 0.0]], [0, 0]),
        ([[1.0, 1.0], [0.0, 1.0]], [1, 0]),
    ])
    def test_two_rows(self, values, ranks):
        rank, crowd = _assert_matches_reference(np.array(values))
        assert rank.tolist() == ranks and np.isinf(crowd).all()

    def test_all_rows_identical(self):
        # one front; the stable sort puts the first and last row at its ends
        rank, crowd = _assert_matches_reference(np.tile([2.0, -1.0], (5, 1)))
        assert rank.tolist() == [0] * 5
        assert crowd.tolist() == [np.inf, 0.0, 0.0, 0.0, np.inf]

    def test_collinear_front(self):
        f0 = np.array([3.0, 0.0, 4.0, 1.0, 2.0])
        rank, crowd = _assert_matches_reference(np.column_stack([f0, 4.0 - f0]))
        assert rank.tolist() == [0] * 5
        assert crowd.tolist() == [1.0, np.inf, np.inf, 1.0, 1.0]

    def test_signed_zeros_are_one_point(self):
        rank, _ = _assert_matches_reference(
            np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [1.0, 0.0], [1.0, 1.0]]))
        assert rank.tolist() == [0, 0, 0, 0, 1]
