"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  Stochastic criteria use pinned seeds and floors strictly looser
than the reference values, since exact RNG trajectories are not reproducible
across implementations.
"""
import numpy as np
import pytest

from conftest import (
    brute_force_fronts,
    brute_force_rank,
    direct_acf,
    encode_phases,
    golay_pair,
    max_weight_gain,
    turyn_pair,
)
from ofdmforge import (
    ConstraintSpec,
    GAConfig,
    PhaseCodeMatrix,
    PhaseEvaluator,
    PulseSpec,
    SparsityMask,
    TargetModel,
    WeightVector,
    autocorrelation,
    decode_phases,
    newman_phases,
    noncoded_phases,
    nondominated_sort,
    normalize_reflectivity,
    nsga2,
    pmepr,
    pmepr_threshold_from_distribution,
    random_mask,
    random_phases,
    reflectivity_spectrum,
    sga_phases,
    snr_gain_db,
    synthesize,
    two_step_pipeline,
    uniform_weights,
)
from ofdmforge.pareto import _rank_and_crowd

TWO_PI = 2 * np.pi


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def full_band_pulse(n, k, codes, mask=None, oversampling=20):
    spec = PulseSpec(n, k, 1e5, oversampling)
    mask = mask or SparsityMask.full(n)
    return synthesize(spec, codes, uniform_weights(mask), mask)


def full_band_evaluator(n, k=1, oversampling=20, mask=None):
    """Scores (P, n, k) phase blocks of uniformly weighted pulses."""
    mask = mask or SparsityMask.full(n)
    return PhaseEvaluator(PulseSpec(n, k, 1e5, oversampling), uniform_weights(mask))


def test_criterion_01_noncoded_law():
    worst = 0.0
    for n in (2, 10, 100, 500):
        value = pmepr(full_band_pulse(n, 1, noncoded_phases(n)))
        worst = max(worst, abs(value - n) / n)
    report(1, worst < 1e-6, f"non-coded PMEPR equals N for N in 2..500 (max rel err {worst:.2e})")


def test_criterion_02_newman_full_band():
    value_100 = pmepr(full_band_pulse(100, 1, newman_phases(100)))
    highest = max(
        pmepr(full_band_pulse(n, 1, newman_phases(n)))
        for n in (8, 16, 32, 64, 128, 256, 512)
    )
    ok = abs(value_100 - 1.8) <= 0.15 and highest < 2.0
    report(2, ok, f"Newman PMEPR(100)={value_100:.3f} (1.8 +/- 0.15); max over powers of two {highest:.3f} < 2")


def test_criterion_03_newman_sparse_degradation():
    rng = np.random.default_rng(30)
    codes = newman_phases(100)
    means = {}
    for fraction in (0.7, 0.5):
        vals = [
            pmepr(full_band_pulse(100, 1, codes, mask=random_mask(100, fraction, rng)))
            for _ in range(1000)
        ]
        means[fraction] = float(np.mean(vals))
    ok = abs(means[0.7] - 4.3) <= 0.4 and abs(means[0.5] - 5.2) <= 0.5
    report(3, ok, f"Newman sparse means: 70% -> {means[0.7]:.2f} (4.3 +/- 0.4), 50% -> {means[0.5]:.2f} (5.2 +/- 0.5)")


def test_criterion_04_sga_pmepr():
    config = GAConfig(population_size=12, generations=400)
    evaluator = full_band_evaluator(100)
    medians = {}
    for bits in (18, 2):
        finals = [
            sga_phases(evaluator, bits, config, np.random.default_rng(10_000 + run))[1].best[-1]
            for run in range(20)
        ]
        medians[bits] = float(np.median(finals))
    # yardstick: a member of a Golay pair of length 100 has PMEPR <= 2
    golay = turyn_pair(*golay_pair(1, 0), *golay_pair(1, 0))[0]
    golay_pmepr = evaluator.pmepr(np.where(golay > 0, 0.0, np.pi)[None, :, None])[0]
    ok = medians[18] <= 3.2 and medians[2] <= 3.1
    report(4, ok, f"SGA 20-run medians: 18-bit {medians[18]:.3f} <= 3.2, QPSK {medians[2]:.3f} <= 3.1; "
           f"N=100 Golay code {golay_pmepr:.5f}")


def test_criterion_05_sga_beats_newman_under_sparsity():
    config = GAConfig(population_size=12, generations=400)
    rng_masks = np.random.default_rng(50)
    ga_finals, newman_vals = [], []
    for run in range(20):
        mask = random_mask(100, 0.5, rng_masks)
        newman_vals.append(pmepr(full_band_pulse(100, 1, newman_phases(100), mask=mask)))
        evaluator = full_band_evaluator(100, mask=mask)
        _, trace = sga_phases(evaluator, 18, config, np.random.default_rng(20_000 + run))
        ga_finals.append(trace.best[-1])
    ga_median = float(np.median(ga_finals))
    newman_mean = float(np.mean(newman_vals))
    report(5, ga_median < newman_mean,
           f"50% sparsity: GA median {ga_median:.2f} < Newman mean {newman_mean:.2f} on the same masks")


@pytest.mark.slow
def test_criterion_06_nsga2_improvement():
    # documented reduced budget: 2000 generations instead of the reference
    # 10000; the stated floors (5 dB PSLR, 2.5 dB PMEPR) already hold there
    n, k = 25, 4
    evaluator = full_band_evaluator(n, k)

    def objective(genomes):  # (pmepr, pslr_db)
        return evaluator.objectives(genomes.reshape(len(genomes), n, k))[:, :2]

    rng = np.random.default_rng(20)
    cloud = objective(np.array([random_phases(n, k, rng).phases.reshape(-1) for _ in range(40)]))
    mean_pmepr, mean_pslr = cloud[:, 0].mean(), cloud[:, 1].mean()

    _, values, rank = nsga2(
        objective, n * k,
        GAConfig(population_size=40, generations=2000),
        rng=np.random.default_rng(21),
    )
    front = values[rank == 0]
    pslr_gain = mean_pslr - front[:, 1].min()
    pmepr_gain = 10.0 * np.log10(mean_pmepr / front[:, 0].min())
    ok = pslr_gain >= 5.0 and pmepr_gain >= 2.5
    report(6, ok, f"NSGA-II vs random mean: PSLR {pslr_gain:.2f} dB >= 5, PMEPR {pmepr_gain:.2f} dB >= 2.5 (2000 generations)")


@pytest.mark.slow
def test_criterion_07_constrained_nsga2():
    # desk-scale fallback protocol: 20 runs, at least 3 fully compliant
    n, cap, runs = 100, 5.0, 20
    config = GAConfig(population_size=40, generations=1000)
    evaluator = full_band_evaluator(n)

    def constrained(genomes):  # objectives (pslr_db, islr_db), then the PMEPR
        return evaluator.objectives(genomes.reshape(len(genomes), n, 1))[:, [1, 2, 0]]

    compliant = 0
    compliant_islr, unconstrained_islr = [], []
    for run in range(runs):
        _, values, rank = nsga2(
            constrained, n, config,
            rng=np.random.default_rng(500 + run),
            constraint=ConstraintSpec(cap),
        )
        # compliance is judged on the whole final population
        if bool(np.all(values[:, 2] <= cap)):
            compliant += 1
            compliant_islr.extend(values[rank == 0, 1].tolist())
    for run in range(4):
        _, values, rank = nsga2(
            lambda g: constrained(g)[:, :2], n, config,
            rng=np.random.default_rng(900 + run),
        )
        unconstrained_islr.extend(values[rank == 0, 1].tolist())

    overlap = (
        bool(compliant_islr)
        and max(min(compliant_islr), min(unconstrained_islr))
        <= min(max(compliant_islr), max(unconstrained_islr))
    )
    ok = compliant >= 3 and overlap
    report(7, ok,
           f"constrained runs fully compliant: {compliant}/{runs} (>= 3); "
           f"compliant ISLR range ({min(compliant_islr or [np.nan]):.1f}, {max(compliant_islr or [np.nan]):.1f}) dB "
           f"overlaps unconstrained ({min(unconstrained_islr):.1f}, {max(unconstrained_islr):.1f}) dB")


def test_criterion_08_threshold_selection():
    rng = np.random.default_rng(0)
    thresholds = {}
    for n in (100, 500):
        spec = PulseSpec(n, 1, 1e5, 20)
        mask = SparsityMask.full(n)
        w = uniform_weights(mask)
        samples = [
            pmepr(synthesize(spec, random_phases(n, 1, rng), w, mask))
            for _ in range(1000)
        ]
        thresholds[n] = pmepr_threshold_from_distribution(samples)
    ok = abs(thresholds[100] - 5.0) <= 0.5 and abs(thresholds[500] - 6.5) <= 0.5
    report(8, ok, f"PMEPR thresholds: N=100 -> {thresholds[100]:.1f} (5.0 +/- 0.5), N=500 -> {thresholds[500]:.1f} (6.5 +/- 0.5)")


CASE_SPEC = PulseSpec(100, 1, 2e7, 20)
CASE_CARRIER = 9e9


def fixed_case_target():
    return TargetModel.random_box(50, 10_000.0, 10.0, np.random.default_rng(77))


def test_criterion_09_illumination_gain():
    target = fixed_case_target()
    norm = normalize_reflectivity(reflectivity_spectrum(target, CASE_SPEC, CASE_CARRIER))
    flat = WeightVector(np.full(100, 0.1))
    flat_gain = snr_gain_db(flat, norm)

    weight_config = GAConfig(population_size=20, generations=5000, mutation_rate=0.2)
    phase_config = GAConfig(population_size=12, generations=600)
    gains = []
    for run in range(10):
        w_opt, _, _ = two_step_pipeline(
            norm, CASE_SPEC, weight_config, phase_config, np.random.default_rng(1000 + run),
            0.01, 10.0, 18,
        )
        gains.append(snr_gain_db(w_opt, norm))
    mean_gain = float(np.mean(gains))
    # the weight step's exact optimum (box [0.01, 10]), which no run may beat
    bound = 10.0 * np.log10(max_weight_gain(np.abs(norm.values) ** 2, 0.01, 10.0) / 100)
    ok = abs(flat_gain) < 1e-9 and mean_gain >= 2.3
    report(9, ok, f"illumination: flat reference {flat_gain:.1e} dB (exact 0), mean gain over 10 runs {mean_gain:.2f} dB >= 2.3; "
           f"exact optimum {bound:.2f} dB, gap {bound - mean_gain:.2f} dB")
    assert max(gains) <= bound + 1e-12 * abs(bound), (max(gains), bound)


def test_criterion_10_pipeline_decoupling():
    target = fixed_case_target()
    norm = normalize_reflectivity(reflectivity_spectrum(target, CASE_SPEC, CASE_CARRIER))
    weight_config = GAConfig(population_size=20, generations=5000, mutation_rate=0.2)
    phase_config = GAConfig(population_size=12, generations=600)
    w_opt, phases, trace = two_step_pipeline(
        norm, CASE_SPEC, weight_config, phase_config, np.random.default_rng(1000),
        0.01, 10.0, 18,
    )
    # the phase step leaves the gain alone: weights recovered from the DFT
    # magnitude of the final pulse (w_opt with the phases applied) give the same gain
    gain_before = snr_gain_db(w_opt, norm)
    final = synthesize(CASE_SPEC, PhaseCodeMatrix(phases), w_opt, SparsityMask.full(100))
    recovered = np.abs(np.fft.fft(final))[:100]
    gain_after = snr_gain_db(WeightVector(recovered / np.linalg.norm(recovered)), norm)
    decoupled = abs(gain_after - gain_before) <= 1e-12

    mask = SparsityMask.full(100)
    rng = np.random.default_rng(55)
    random_pm = [
        pmepr(synthesize(CASE_SPEC, random_phases(100, 1, rng), w_opt, mask))
        for _ in range(201)
    ]
    improvement = 10.0 * np.log10(float(np.median(random_pm)) / trace.best[-1])
    ok = decoupled and improvement >= 2.0
    report(10, ok, f"pipeline: gain of the final pulse's DFT weights equals the step-1 gain "
           f"({abs(gain_after - gain_before):.1e} <= 1e-12); PMEPR improvement over median random codes {improvement:.2f} dB >= 2")


class TestCriterion11OracleSuites:
    def test_fft_acf_matches_direct_sum(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(30):
            n = int(rng.integers(2, 12))
            ell = int(rng.integers(1, 6))
            x = full_band_pulse(
                n, 1, PhaseCodeMatrix(rng.uniform(0, TWO_PI, (n, 1))), oversampling=ell
            )
            assert len(x) <= 512
            got = autocorrelation(x)
            want = direct_acf(x)
            worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
        report(11, worst < 1e-9, f"FFT ACF vs direct O(M^2) sum: max rel err {worst:.1e} < 1e-9")

    def test_nondominated_sort_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            m = int(rng.integers(2, 4))
            objs = rng.integers(0, 5, size=(n, m)).astype(float)
            assert nondominated_sort(objs) == brute_force_fronts(objs)
            # NSGA-II ranks its two objective columns by the sorted pass
            rank, _ = _rank_and_crowd(objs, None)
            assert np.array_equal(rank, brute_force_rank(objs[:, :2]))
        report(11, True, "nondominated_sort (m = 2, 3) and NSGA-II's two-column ranking"
                         " match brute-force dominance on 200 random instances")

    def test_archive_nondominated_every_generation_miniature(self):
        evaluator = full_band_evaluator(8, oversampling=8)
        observed = []

        def hook(gen, genomes, values, rank):
            observed.append((values.copy(), rank.copy()))

        _, values, rank = nsga2(
            lambda g: evaluator.objectives(g.reshape(len(g), 8, 1))[:, 1:], 8,
            GAConfig(population_size=8, generations=40),
            np.random.default_rng(1),
            generation_hook=hook,
        )
        # the ranks NSGA-II selected by are the brute-force fronts of the
        # population it kept, so rank 0 is pairwise non-dominated; the
        # returned population is the last one observed
        for objs, rank_seen in observed:
            assert np.array_equal(rank_seen, brute_force_rank(objs))
        assert np.array_equal(values, observed[-1][0]) and np.array_equal(rank, observed[-1][1])
        report(11, True, f"NSGA-II's ranks equal the brute-force fronts over {len(observed)} generations")

    def test_unit_energy_on_1000_random_pulses(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(1, 3))
            ell = int(rng.integers(1, 6))
            weights = WeightVector(rng.uniform(0.05, 2.0, n))
            spec = PulseSpec(n, k, 1e5, ell)
            x = synthesize(spec, PhaseCodeMatrix(rng.uniform(0, TWO_PI, (n, k))), weights)
            worst = max(worst, abs(np.sum(np.abs(x) ** 2) * spec.sample_period_s - 1.0))
        report(11, worst < 1e-9, f"unit-energy invariant on 1000 random pulses: max |E-1| = {worst:.1e}")

    def test_pmepr_global_phase_invariance(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(100):
            phases = rng.uniform(0, TWO_PI, (10, 1))
            shift = rng.uniform(0, TWO_PI)
            a = pmepr(full_band_pulse(10, 1, PhaseCodeMatrix(phases), oversampling=8))
            b = pmepr(full_band_pulse(10, 1, PhaseCodeMatrix(phases + shift), oversampling=8))
            worst = max(worst, abs(a - b) / a)
        report(11, worst < 1e-9, f"PMEPR global-phase invariance: max rel dev {worst:.1e}")

    def test_decode_encode_bijection(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            b = int(rng.integers(1, 19))
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, 4))
            bits = rng.integers(0, 2, size=n * k * b).astype(bool)
            back = encode_phases(decode_phases(bits[None], b, n, k)[0], b)
            assert np.array_equal(back, bits)
        report(11, True, "decode/encode bijection on 300 random genomes")
