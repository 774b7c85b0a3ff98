import csv
import dataclasses
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ofdmforge import (
    GAConfig,
    GASchedule,
    PhaseCodeMatrix,
    PhaseEvaluator,
    PulseSpec,
    SparsityMask,
    WeightVector,
    autocorrelation,
    islr,
    newman_phases,
    pmepr,
    pmepr_threshold_from_distribution,
    pslr,
    random_phases,
    synthesize,
    uniform_weights,
)
from ofdmforge.errors import ConfigError
from ofdmforge.evolve import ConvergenceTrace
from ofdmforge.harness import (
    aggregate,
    emit_plot_data,
    load_config,
    mix64,
    parse_config,
    run_experiment,
)
from ofdmforge.harness.cli import main
from ofdmforge.harness.config import KIND_KEYS, KINDS
from ofdmforge.harness.plotdata import write_csv
from ofdmforge.harness.runner import (
    _RUNNERS,
    _derived_pmepr_max,
    _execute_run,
    _random_phase_block,
    _write_json,
)

MINI_PULSE = {
    "n_subcarriers": 8,
    "n_symbols": 1,
    "subcarrier_spacing_hz": 1e5,
    "oversampling": 4,
}
MINI_GA = {"population_size": 8, "generations": 20}

# one miniature config per kind, holding only keys the kind reads
KIND_CONFIGS = {
    "dimension": {"scenario": {"target_extent_m": 2.0, "margin_m": 1.0, "min_range_m": 1500.0}},
    "synthesize": {"pulse": MINI_PULSE},
    "evaluate": {"pulse": MINI_PULSE},
    "baseline": {"pulse": MINI_PULSE},
    "optimize-pmepr": {"pulse": MINI_PULSE, "ga": MINI_GA, "bits_per_var": 4},
    "optimize-moo": {"pulse": MINI_PULSE, "ga": MINI_GA},
    "optimize-constrained": {"pulse": MINI_PULSE, "ga": MINI_GA},
    "illuminate": {
        "pulse": MINI_PULSE, "carrier_hz": 9e9, "target": {"seed": 4},
        "weight_ga": MINI_GA, "phase_ga": MINI_GA, "bits_per_var": 4,
    },
}

# a valid value for every key some kind reads
VALID_VALUES = {
    "scenario": KIND_CONFIGS["dimension"]["scenario"],
    "pulse": MINI_PULSE,
    "ga": MINI_GA,
    "weight_ga": MINI_GA,
    "phase_ga": MINI_GA,
    "target": {"seed": 4},
    "baseline": "random",
    "alphabet": 4,
    "sparsity": 0.5,
    "bits_per_var": 4,
    "snapshot_every": 10,
    "n_random": 5,
    "pmepr_max": 4.0,
    "threshold_samples": 150,
    "carrier_hz": 9e9,
    "weight_bounds": [0.01, 10.0],
}

# each (kind, GA section) and the dataclass it parses into; only the
# real-coded weight GA reads mutation_rate
GA_SECTIONS = [
    ("optimize-pmepr", "ga", GASchedule),
    ("optimize-moo", "ga", GASchedule),
    ("optimize-constrained", "ga", GASchedule),
    ("illuminate", "weight_ga", GAConfig),
    ("illuminate", "phase_ga", GASchedule),
]
# a value other than MINI_GA's or the default for every GA field
GA_CHANGES = {"population_size": 6, "generations": 12, "mutation_rate": 0.9}


def field_names(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestMix64:
    def test_deterministic(self):
        assert mix64(42, 3) == mix64(42, 3)

    def test_distinct_streams(self):
        seeds = {mix64(0, r) for r in range(1000)}
        assert len(seeds) == 1000
        assert mix64(0, 1) != mix64(1, 0)

    def test_64_bit_range(self):
        for r in range(50):
            assert 0 <= mix64(2**63, r) < 2**64


class TestAggregate:
    def test_identical_traces(self):
        t = ConvergenceTrace(np.array([4.0, 3.0]), np.array([5.0, 4.0]))
        agg = aggregate([t, t, t])
        assert np.allclose(agg.best, [4.0, 3.0])
        assert np.allclose(agg.mean, [5.0, 4.0])

    def test_pointwise_mean(self):
        t1 = ConvergenceTrace(np.array([4.0, 3.0]), np.array([4.0, 3.0]))
        t2 = ConvergenceTrace(np.array([2.0, 1.0]), np.array([2.0, 1.0]))
        agg = aggregate([t1, t2])
        assert np.allclose(agg.best, [3.0, 2.0])

    def test_ragged_rejected(self):
        t1 = ConvergenceTrace(np.array([4.0, 3.0]), np.array([4.0, 3.0]))
        t2 = ConvergenceTrace(np.array([2.0]), np.array([2.0]))
        with pytest.raises(ValueError):
            aggregate([t1, t2])
        with pytest.raises(ValueError):
            aggregate([])


class TestConfigParsing:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config({"kind": "dimension", "scenario": {
                "target_extent_m": 2, "min_range_m": 100}, "bogus": 1})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config({
                "kind": "optimize-pmepr",
                "pulse": {**MINI_PULSE, "extra": 5},
                "ga": MINI_GA,
            })

    def test_kind_mismatch(self):
        with pytest.raises(ConfigError, match="does not match"):
            parse_config({"kind": "dimension"}, kind_override="synthesize")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown kind"):
            parse_config({"kind": "optimize-everything"})

    def test_missing_required_section(self):
        with pytest.raises(ConfigError, match="requires"):
            parse_config({"kind": "optimize-pmepr", "pulse": MINI_PULSE})
        with pytest.raises(ConfigError, match="requires"):
            parse_config({"kind": "dimension"})

    def test_type_errors(self):
        with pytest.raises(ConfigError):
            parse_config({"kind": "baseline", "pulse": MINI_PULSE, "runs": "ten"})
        with pytest.raises(ConfigError):
            parse_config({"kind": "baseline", "pulse": MINI_PULSE, "runs": 0})
        with pytest.raises(ConfigError):
            parse_config({"kind": "baseline", "pulse": MINI_PULSE, "sparsity": 0.0})
        with pytest.raises(ConfigError):
            parse_config({"kind": "baseline", "pulse": MINI_PULSE, "baseline": "chirp"})
        with pytest.raises(ConfigError):
            parse_config({"kind": "baseline", "pulse": MINI_PULSE,
                          "weight_bounds": [1.0, 0.5]})

    def test_mask_checks(self):
        # illuminate builds no mask, so one subcarrier is a valid pulse there
        parse_config({"kind": "illuminate", "pulse": {**MINI_PULSE, "n_subcarriers": 1},
                      "target": {"seed": 4}, "weight_ga": MINI_GA, "phase_ga": MINI_GA})
        # round(8 * 0.25) = 2 subcarriers, the fewest a mask can keep
        parse_config({"kind": "baseline", "pulse": MINI_PULSE, "sparsity": 0.25})
        with pytest.raises(ConfigError, match="fewer than 2"):
            parse_config({"kind": "baseline", "pulse": MINI_PULSE, "sparsity": 0.18})

    def test_defaults_fill_in(self):
        cfg = parse_config({"kind": "baseline", "pulse": MINI_PULSE})
        assert cfg.runs == 1 and cfg.seed == 0 and cfg.baseline == "random"
        assert cfg.pulse.oversampling == 4

    def test_out_dir_must_be_a_string(self):
        # --out replaces the field, so only a config document can get this wrong
        for bad in (None, 5, ["results"]):
            with pytest.raises(ConfigError, match="'out_dir' must be a string"):
                parse_config({"kind": "baseline", "pulse": MINI_PULSE, "out_dir": bad})

    def test_kind_from_override(self):
        cfg = parse_config({"pulse": MINI_PULSE}, kind_override="baseline")
        assert cfg.kind == "baseline"

    def test_load_config_file_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(bad)
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(arr)


class TestCliRuns:
    """Every experiment kind on a miniature instance through the CLI."""

    def run_cli(self, tmp_path, kind, config, extra_args=()):
        path = write_config(tmp_path, config)
        code = main([kind, "--config", path, "--out", str(tmp_path / "out"), *extra_args])
        assert code == 0
        return tmp_path / "out" / kind

    def test_dimension(self, tmp_path, capsys):
        out = self.run_cli(tmp_path, "dimension", {
            "scenario": {"target_extent_m": 2.0, "margin_m": 1.0, "min_range_m": 1500.0},
        })
        dims = json.loads((out / "0" / "dimensions.json").read_text())
        assert dims["max_subcarriers"] == 500
        assert "bandwidth_hz" in capsys.readouterr().out

    def test_synthesize(self, tmp_path):
        out = self.run_cli(tmp_path, "synthesize", {
            "pulse": MINI_PULSE, "baseline": "newman",
        })
        rows = read_rows(out / "0" / "pulse.csv")
        assert rows[0] == ["t_s", "re", "im"]
        assert len(rows) - 1 == 8 * 4
        rows = read_rows(out / "spectrum.csv")
        assert rows[0] == ["f_hz", "magnitude"]
        rows = read_rows(out / "envelope.csv")
        assert rows[0] == ["t_s", "abs"]
        assert len(rows) - 1 == 8 * 4

    def test_evaluate(self, tmp_path):
        out = self.run_cli(tmp_path, "evaluate", {
            "pulse": MINI_PULSE, "baseline": "random", "seed": 3,
        })
        report = json.loads((out / "0" / "report.json").read_text())
        assert set(report) == {"pmepr", "pslr_db", "islr_db", "oversampling"}
        assert report["oversampling"] == 4

    def test_baseline_monte_carlo(self, tmp_path):
        out = self.run_cli(tmp_path, "baseline", {
            "pulse": MINI_PULSE, "baseline": "newman", "sparsity": 0.75,
            "runs": 5, "seed": 1,
        })
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runs"] == 5
        assert summary["objectives"]["pmepr"]["min"] <= summary["objectives"]["pmepr"]["mean"]

    def test_baseline_flag_override(self, tmp_path):
        out = self.run_cli(
            tmp_path, "baseline",
            {"pulse": MINI_PULSE, "baseline": "random"},
            extra_args=("--baseline", "noncoded"),
        )
        summary = json.loads((out / "0" / "summary.json").read_text())
        assert summary["pmepr"] == pytest.approx(8.0, rel=1e-6)

    def test_reports_the_evaluators_numbers(self, tmp_path):
        # a full-band Newman baseline draws nothing, so every replica scores
        # exactly these phases, and through the one evaluator
        spec = PulseSpec(**MINI_PULSE)
        mask = SparsityMask.full(8)
        phases = newman_phases(8).phases[None]
        evaluator = PhaseEvaluator(spec, uniform_weights(mask), mask)
        want = evaluator.objectives(phases)[0].tolist()
        want_pmepr = evaluator.pmepr(phases)[0]
        for kind in ("evaluate", "baseline", "synthesize"):
            self.run_cli(tmp_path, kind, {"pulse": MINI_PULSE, "baseline": "newman"})
        out = tmp_path / "out"
        report = json.loads((out / "evaluate" / "0" / "report.json").read_text())
        assert [report[key] for key in ("pmepr", "pslr_db", "islr_db")] == want
        summary = json.loads((out / "baseline" / "0" / "summary.json").read_text())
        assert summary["pmepr"] == want_pmepr
        stats = json.loads((out / "synthesize" / "summary.json").read_text())
        assert stats["objectives"]["pmepr"]["min"] == want_pmepr
        assert stats["objectives"]["pmepr"]["max"] == want_pmepr
        # the sample-domain oracle on the synthesized pulse agrees to rounding
        pulse = synthesize(spec, newman_phases(8), uniform_weights(mask), mask)
        acf = autocorrelation(pulse)
        oracle = [pmepr(pulse), pslr(acf, spec), islr(acf, spec)]
        assert np.allclose(want, oracle, rtol=1e-12, atol=0.0)

    def test_optimize_pmepr(self, tmp_path):
        out = self.run_cli(tmp_path, "optimize-pmepr", {
            "pulse": MINI_PULSE, "ga": MINI_GA, "bits_per_var": 4,
            "runs": 2, "seed": 5,
        })
        trace = read_rows(out / "0" / "trace.csv")
        assert trace[0] == ["generation", "best", "mean"]
        assert len(trace) - 1 == MINI_GA["generations"] + 1
        genome = json.loads((out / "0" / "genome.json").read_text())
        assert np.array(genome["phases"]).shape == (8, 1)
        conv = read_rows(out / "convergence.csv")
        assert len(conv) - 1 == MINI_GA["generations"] + 1

    def test_optimize_pmepr_sparse(self, tmp_path):
        out = self.run_cli(tmp_path, "optimize-pmepr", {
            "pulse": MINI_PULSE, "ga": MINI_GA, "bits_per_var": 2,
            "sparsity": 0.75, "seed": 2,
        })
        genome = json.loads((out / "0" / "genome.json").read_text())
        assert sum(genome["mask"]) == 6

    def test_optimize_moo(self, tmp_path, monkeypatch):
        rows = []
        scored = PhaseEvaluator.objectives

        def counted(self, phases):
            rows.append(len(phases))
            return scored(self, phases)

        monkeypatch.setattr(PhaseEvaluator, "objectives", counted)
        out = self.run_cli(tmp_path, "optimize-moo", {
            "pulse": MINI_PULSE, "ga": MINI_GA, "snapshot_every": 10, "seed": 7,
        })
        # P(1 + G) genomes and the P-point random cloud; fronts are not re-scored
        assert sum(rows) == 8 * (1 + 20) + 8
        front = read_rows(out / "0" / "front.csv")
        assert front[0] == ["pmepr", "pslr_db", "islr_db", "run_id", "generation"]
        gens = {row[4] for row in front[1:]}
        assert gens == {"10", "20"}
        # every column, the carried ISLR too, is the one the genome was scored with
        genome = json.loads((out / "0" / "genome.json").read_text())["rows"]
        phases = np.array([g["phases"] for g in genome]).reshape(len(genome), 8, 1)
        want = scored(PhaseEvaluator(PulseSpec(**MINI_PULSE), uniform_weights(
            SparsityMask.full(8)), SparsityMask.full(8)), phases)
        final = np.array([front[1 + g["row"]][:3] for g in genome], dtype=float)
        assert all(front[1 + g["row"]][4] == "20" for g in genome)
        assert np.array_equal(final, want)
        pareto = read_rows(out / "pareto.csv")
        assert pareto[0] == ["pmepr", "pslr_db", "source"]
        sources = {row[2] for row in pareto[1:]}
        assert sources == {"optimized", "random"}

    @pytest.mark.parametrize("every", [1, 4, 5, 12, 13])
    def test_optimize_moo_snapshot_generations(self, tmp_path, every):
        out = self.run_cli(tmp_path, "optimize-moo", {
            "pulse": MINI_PULSE, "ga": {**MINI_GA, "generations": 12},
            "snapshot_every": every, "seed": 7,
        })
        front = read_rows(out / "0" / "front.csv")[1:]
        gens = {int(row[4]) for row in front}
        assert gens == {g for g in range(1, 12) if g % every == 0} | {12}
        # genome.json holds exactly the last generation's rows, in order
        genome = json.loads((out / "0" / "genome.json").read_text())["rows"]
        assert [g["row"] for g in genome] == [i for i, row in enumerate(front) if row[4] == "12"]

    def test_optimize_constrained(self, tmp_path):
        out = self.run_cli(tmp_path, "optimize-constrained", {
            "pulse": MINI_PULSE, "ga": MINI_GA, "pmepr_max": 4.0,
            "runs": 2, "seed": 9,
        })
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pmepr_max"] == 4.0
        assert 0 <= summary["compliant_runs"] <= 2
        rows = read_rows(out / "constrained.csv")
        assert rows[0] == ["run_id", "pmepr", "pslr_db", "islr_db", "compliant"]
        assert {row[4] for row in rows[1:]} <= {"0", "1"}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_optimize_constrained_derived_threshold(self, tmp_path, workers):
        # the derived cap reaches every replica, in the pool too, and the aggregate
        out = self.run_cli(tmp_path, "optimize-constrained", {
            "pulse": MINI_PULSE, "ga": {**MINI_GA, "generations": 3},
            "threshold_samples": 150, "seed": 9, "runs": 3, "workers": workers,
        })
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pmepr_max"] > 1.0
        for run_id in range(3):
            run = json.loads((out / str(run_id) / "summary.json").read_text())
            assert run["pmepr_max"] == summary["pmepr_max"]

    def test_derived_threshold_matches_per_sample_draws(self, tmp_path):
        cfg = parse_config({
            "kind": "optimize-constrained", "pulse": MINI_PULSE, "ga": MINI_GA,
            "threshold_samples": 300, "seed": 9, "out_dir": str(tmp_path),
        })
        spec = PulseSpec(**MINI_PULSE)
        mask = SparsityMask.full(spec.n_subcarriers)
        rng = np.random.default_rng(mix64(9, 0x7E5D))
        samples = [
            pmepr(synthesize(spec, random_phases(8, 1, rng), uniform_weights(mask), mask))
            for _ in range(300)
        ]
        assert _derived_pmepr_max(cfg) == pmepr_threshold_from_distribution(samples)

    def test_random_cloud_matches_per_genome_draws(self):
        cfg = parse_config({
            "kind": "optimize-moo", "pulse": {**MINI_PULSE, "n_symbols": 3}, "ga": MINI_GA,
        })
        one, loop = np.random.default_rng(5), np.random.default_rng(5)
        block = _random_phase_block(cfg, 7, one)
        want = np.array([random_phases(8, 3, loop).phases for _ in range(7)])
        assert np.array_equal(block, want)
        # the generator is left where the per-genome loop leaves it
        assert one.random() == loop.random()

    def test_every_kind_has_a_runner(self):
        assert set(_RUNNERS) == set(KINDS)

    def test_illuminate(self, tmp_path):
        pulse = {"n_subcarriers": 12, "n_symbols": 1,
                 "subcarrier_spacing_hz": 2e7, "oversampling": 4}
        out = self.run_cli(tmp_path, "illuminate", {
            "pulse": pulse,
            "carrier_hz": 9e9,
            "target": {"n_scatterers": 6, "center_range_m": 10000.0,
                       "extent_m": 8.0, "seed": 4},
            "weight_ga": {"population_size": 8, "generations": 30},
            "phase_ga": {"population_size": 8, "generations": 30},
            "bits_per_var": 4,
        })
        report = json.loads((out / "0" / "illumination.json").read_text())
        assert set(report) == {"gain_db", "pmepr_initial", "pmepr_final"}
        rows = read_rows(out / "0" / "spectra.csv")
        assert rows[0] == ["n", "reflectivity_norm_abs", "w_opt"]
        assert len(rows) - 1 == 12
        rows = read_rows(out / "illumination.csv")
        assert rows[0] == ["n", "reflectivity_norm_abs", "w_opt"]
        # genome.json's phases with spectra.csv's weights are the designed
        # pulse: it re-synthesizes to the reported final PMEPR
        genome = json.loads((out / "0" / "genome.json").read_text())
        assert set(genome) == {"bits_per_var", "phases"} and genome["bits_per_var"] == 4
        phases = PhaseCodeMatrix(np.array(genome["phases"]))
        with open(out / "0" / "spectra.csv", newline="") as fh:
            w = np.array([float(row["w_opt"]) for row in csv.DictReader(fh)])
        x = synthesize(PulseSpec(**pulse), phases, WeightVector(w), SparsityMask.full(12))
        assert pmepr(x) == pytest.approx(report["pmepr_final"], rel=0.0, abs=1e-9)


class TestCliErrors:
    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"kind": "dimension", "nope": 1})
        assert main(["dimension", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["dimension", "--config", str(tmp_path / "none.json")]) == 2
        capsys.readouterr()

    def test_kind_mismatch_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"kind": "dimension", "scenario": {
            "target_extent_m": 2.0, "min_range_m": 100.0}})
        assert main(["baseline", "--config", path]) == 2
        capsys.readouterr()

    def test_cli_override_validation(self, tmp_path, capsys):
        path = write_config(tmp_path, {"kind": "baseline", "pulse": MINI_PULSE})
        assert main(["baseline", "--config", path, "--runs", "0"]) == 2
        assert main(["baseline", "--config", path, "--workers", "0"]) == 2
        capsys.readouterr()
        # flags go through the same parse-time checks as the document
        path = write_config(tmp_path, {"pulse": {**MINI_PULSE, "n_symbols": 3}}, name="k3.json")
        out = tmp_path / "out"
        assert main(["evaluate", "--config", path, "--baseline", "newman",
                     "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()
        assert main(["evaluate", "--config", path, "--out", str(out)]) == 0
        capsys.readouterr()

    def test_invalid_derived_pmepr_max_exits_2(self, tmp_path, capsys):
        # two subcarriers at L = 4 give a random-code PMEPR threshold of 1.0
        config = {**KIND_CONFIGS["optimize-constrained"], "threshold_samples": 100,
                  "pulse": {**MINI_PULSE, "n_subcarriers": 2}}
        out = tmp_path / "out"
        assert main(["optimize-constrained", "--config", write_config(tmp_path, config),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: derived pmepr_max 1.0 is invalid")
        assert err.rstrip().endswith("set pmepr_max explicitly")
        assert not (out / "optimize-constrained").exists()

    def test_out_that_is_a_file_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, KIND_CONFIGS["optimize-constrained"])
        out = tmp_path / "out"
        out.write_text("")
        assert main(["optimize-constrained", "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("i/o error:")
        assert "Not a directory" in err

    @pytest.mark.parametrize("kind, fields", [
        ("optimize-moo", {"snapshot_every": 0}),
        ("optimize-moo", {"n_random": 0}),
        ("optimize-moo", {"n_random": -4}),
        ("optimize-constrained", {"snapshot_every": -1}),
        ("optimize-constrained", {"threshold_samples": -1}),
        ("optimize-constrained", {"pmepr_max": 0.5}),
        ("illuminate", {"pulse": {**MINI_PULSE, "n_symbols": 2}}),
        ("illuminate", {"carrier_hz": -1.0}),
        ("illuminate", {"target": {"n_scatterers": 0}}),
        # JSON admits NaN, Infinity and integers beyond the float range
        ("illuminate", {"carrier_hz": float("nan")}),
        ("illuminate", {"carrier_hz": 10**400}),
        ("evaluate", {"pulse": {**MINI_PULSE, "subcarrier_spacing_hz": float("inf")}}),
        ("evaluate", {"pulse": {**MINI_PULSE, "oversampling": 0}}),
        ("illuminate", {"target": {"extent_m": float("nan")}}),
        ("illuminate", {"target": {"scatterers": [[float("nan"), 1e4], [1.0, 1e4 + 1]]}}),
        ("illuminate", {"weight_bounds": [0.01, float("inf")]}),
        # the weight GA's N^2 v_u^2 overflows, or v_l^2 underflows to 0
        ("illuminate", {"weight_bounds": [0.01, 1e200]}),
        ("illuminate", {"weight_bounds": [1e-300, 1e-200]}),
        # the target phase 4*pi*f*R/c overflows, at the box's or a scatterer's range
        ("illuminate", {"carrier_hz": 1e306}),
        ("illuminate", {"target": {"scatterers": [[1.0, 1e300]]}}),
        ("illuminate", {"target": {"seed": -1}}),
        ("illuminate", {"target": {"scatterers": []}}),
        # TargetModel needs reflectivity >= 0 and every range > 0
        ("illuminate", {"target": {"scatterers": [[-1.0, 100.0]]}}),
        ("illuminate", {"target": {"scatterers": [[1.0, -5.0]]}}),
        ("illuminate", {"target": {"reflectivity": -1.0}}),
        ("illuminate", {"target": {"center_range_m": -100.0}}),
        ("illuminate", {"target": {"extent_m": -1.0}}),
        ("illuminate", {"target": {"center_range_m": 5.0, "extent_m": 10.0}}),
        # a target that reflects nothing has no spectrum to match
        pytest.param("illuminate", {"target": {"reflectivity": 0.0}},
                     id="illuminate-target-reflectivity=0"),
        pytest.param("illuminate", {"target": {"scatterers": [[0.0, 100.0]]}},
                     id="illuminate-target-scatterers-reflectivity-sum=0"),
        # the spectrum power bound N (sum sqrt(sigma))^2 overflows
        pytest.param("illuminate", {"target": {"reflectivity": 1e308}},
                     id="illuminate-target-reflectivity-power-overflows"),
        pytest.param("illuminate", {"target": {"scatterers": [[1e308, 100.0], [1e308, 101.0]]}},
                     id="illuminate-target-scatterers-power-overflows"),
        pytest.param("illuminate", {"target": {"n_scatterers": 10**400}},
                     id="illuminate-target-n_scatterers-beyond-float"),
        # B = c / 2e-300 is finite, but 2*B*R_min/c overflows
        pytest.param("dimension", {"scenario": {
            "target_extent_m": 1e-300, "margin_m": 0.0, "min_range_m": 1e300}},
            id="dimension-scenario-2BR/c-overflows"),
        # B = c / 2e300 leaves 2*B*R_min/c below one subcarrier
        pytest.param("dimension", {"scenario": {
            "target_extent_m": 1e300, "margin_m": 0.0, "min_range_m": 1.0}},
            id="dimension-scenario-no-subcarriers"),
        # the bandwidth, or the sample period, overflows to inf
        ("evaluate", {"pulse": {**MINI_PULSE, "subcarrier_spacing_hz": 1e308}}),
        ("evaluate", {"pulse": {**MINI_PULSE, "subcarrier_spacing_hz": 5e-324}}),
        # two tones have PMEPR <= 2, so the derived cap is 1.0, which no pulse meets
        pytest.param("optimize-constrained", {"pulse": {**MINI_PULSE, "n_subcarriers": 2}},
                     id="optimize-constrained-derived-cap-n_subcarriers=2"),
        # the derived PMEPR cap needs 100 random-code samples
        ("optimize-constrained", {"threshold_samples": 0}),
        ("optimize-constrained", {"threshold_samples": 99, "pmepr_max": None}),
        # a mask keeps both extreme subcarriers, so it needs two of them
        ("baseline", {"sparsity": 0.1}),
        ("optimize-pmepr", {"sparsity": 0.1}),
        # the generator draws alphabet indices as int64
        ("baseline", {"alphabet": 2**70}),
        pytest.param("evaluate", {"pulse": {**MINI_PULSE, "n_subcarriers": 1}},
                     id="evaluate-n_subcarriers=1"),
        pytest.param("optimize-moo", {"pulse": {**MINI_PULSE, "n_subcarriers": 1}},
                     id="optimize-moo-n_subcarriers=1"),
        pytest.param("evaluate", {"baseline": "newman", "pulse": {**MINI_PULSE, "n_symbols": 3}},
                     id="evaluate-newman-n_symbols=3"),
        # only the random baseline draws from an alphabet
        pytest.param("synthesize", {"baseline": "newman", "alphabet": 4},
                     id="synthesize-newman-alphabet=4"),
        pytest.param("evaluate", {"baseline": "noncoded", "alphabet": 4},
                     id="evaluate-noncoded-alphabet=4"),
        pytest.param("baseline", {"baseline": "newman", "alphabet": 2},
                     id="baseline-newman-alphabet=2"),
    ], ids=lambda v: v if isinstance(v, str) else next(iter(v)) + "=" + json.dumps(
        next(iter(v.values())))[:14])
    def test_nonsense_values_exit_2(self, tmp_path, capsys, kind, fields):
        path = write_config(tmp_path, {**KIND_CONFIGS[kind], **fields})
        assert main([kind, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # rejected before any compute


class TestDeterminism:
    def test_identical_config_byte_identical_csvs(self, tmp_path):
        config = {
            "pulse": MINI_PULSE, "ga": MINI_GA, "bits_per_var": 4,
            "runs": 2, "seed": 11,
        }
        paths = []
        for sub in ("a", "b"):
            path = write_config(tmp_path, {**config}, name=f"{sub}.json")
            assert main(["optimize-pmepr", "--config", path,
                         "--out", str(tmp_path / sub)]) == 0
            paths.append(tmp_path / sub / "optimize-pmepr")
        for rel in ("0/trace.csv", "1/trace.csv", "convergence.csv"):
            assert (paths[0] / rel).read_bytes() == (paths[1] / rel).read_bytes()

    def test_workers_do_not_change_results(self, tmp_path):
        base = {
            "kind": "optimize-pmepr", "pulse": MINI_PULSE, "ga": MINI_GA,
            "bits_per_var": 4, "runs": 3, "seed": 13,
        }
        outs = []
        for sub, workers in (("w1", 1), ("w2", 2)):
            cfg = parse_config({**base, "workers": workers,
                                "out_dir": str(tmp_path / sub)})
            results = run_experiment(cfg)
            assert [r.run_id for r in results] == [0, 1, 2]
            outs.append(tmp_path / sub / "optimize-pmepr")
        for rel in ("0/trace.csv", "1/trace.csv", "2/trace.csv", "convergence.csv"):
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()

    def test_forked_replicas_after_a_split_cap_sample(self, tmp_path):
        # the derived cap's 100 samples at N = 100, L = 20 are blocks of 40,
        # 40 and 20 genomes, so the parent scores two of them on the
        # evaluator's worker thread before the replica pool forks; each
        # replica's 40-genome generations split again in a child that
        # inherits no thread.  Both runs finish and write the same CSVs
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        code = "import sys; from ofdmforge.harness.cli import main; sys.exit(main(sys.argv[1:]))"
        config = {
            "pulse": {**MINI_PULSE, "n_subcarriers": 100, "oversampling": 20},
            "ga": {"population_size": 40, "generations": 3},
            "threshold_samples": 100, "runs": 2, "seed": 3,
        }
        outs = []
        for workers in (1, 2):
            path = write_config(tmp_path, {**config, "workers": workers}, name=f"w{workers}.json")
            out = tmp_path / f"w{workers}"
            # a session of its own, so that a hung run's pool goes down with it
            run = subprocess.Popen(
                [sys.executable, "-c", code, "optimize-constrained", "--config", path,
                 "--out", str(out)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
                start_new_session=True,
            )
            try:
                _, stderr = run.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                os.killpg(run.pid, signal.SIGKILL)
                run.communicate()
                pytest.fail(f"a workers: {workers} run did not finish in 120 s")
            assert run.returncode == 0, stderr
            outs.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.csv"))})
        assert len(outs[0]) == 3  # constrained.csv and each replica's front.csv
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("workers, runs", [(8, 2), (2, 3)])
    def test_pool_has_no_more_workers_than_runs(self, tmp_path, monkeypatch, workers, runs):
        # the stand-in pool records its size and maps in this process
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        import concurrent.futures

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = parse_config({"kind": "baseline", "pulse": MINI_PULSE, "runs": runs,
                            "workers": workers, "out_dir": str(tmp_path)})
        assert [r.run_id for r in run_experiment(cfg)] == list(range(runs))
        assert sizes == [min(workers, runs)]

    def test_serial_import_leaves_out_the_process_pool(self):
        # the pool is imported only when a run fans out over workers
        code = ("import sys, numpy, ofdmforge.harness; "
                "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_seed_override_changes_results(self, tmp_path):
        config = {"pulse": MINI_PULSE, "baseline": "random", "seed": 1}
        path = write_config(tmp_path, config)
        assert main(["evaluate", "--config", path, "--out", str(tmp_path / "s1")]) == 0
        assert main(["evaluate", "--config", path, "--seed", "2",
                     "--out", str(tmp_path / "s2")]) == 0
        r1 = json.loads((tmp_path / "s1" / "evaluate" / "0" / "report.json").read_text())
        r2 = json.loads((tmp_path / "s2" / "evaluate" / "0" / "report.json").read_text())
        assert r1["pmepr"] != r2["pmepr"]


class TestConfigTable:
    """``KIND_KEYS`` is the one statement of the keys each kind reads."""

    @pytest.mark.parametrize("kind, fields", [
        ("dimension", {"pulse": MINI_PULSE}),
        ("synthesize", {"ga": MINI_GA}),
        ("evaluate", {"bits_per_var": 4}),
        ("baseline", {"n_random": 5}),
        ("optimize-pmepr", {"baseline": "newman"}),
        # full-band NSGA-II draws no mask and no baseline codes
        ("optimize-moo", {"sparsity": 0.5, "alphabet": 4, "baseline": "newman"}),
        # the constrained replica keeps no front snapshots
        ("optimize-constrained", {"snapshot_every": 10}),
        ("illuminate", {"sparsity": 0.5}),
    ], ids=lambda v: v if isinstance(v, str) else "+".join(v))
    def test_unread_key_exits_2(self, tmp_path, capsys, kind, fields):
        path = write_config(tmp_path, {**KIND_CONFIGS[kind], **fields})
        out = tmp_path / "out"
        assert main([kind, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"kind '{kind}' does not read {sorted(fields)}" in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, kind, section", [
        # both elitist GAs keep round(P / 2) genomes and mutate every generation
        *[(key, value, kind, section) for key, value in [
            ("elitism_fraction", 0.5), ("mutation_every", 1)
        ] for kind, section in [
            ("optimize-pmepr", "ga"), ("illuminate", "phase_ga"), ("illuminate", "weight_ga"),
        ]],
        # no section takes it: the binary GA flips one bit in every offspring
        *[("mutation_per_offspring", 0.3, kind, section) for kind, section, _ in GA_SECTIONS],
        # a section takes only the fields of its dataclass
        *[(key, GA_CHANGES[key], kind, section) for kind, section, cls in GA_SECTIONS
          for key in sorted(set(GA_CHANGES) - set(field_names(cls)))],
    ])
    def test_fixed_ga_schedule_keys_are_unknown(self, tmp_path, capsys, kind, section, key,
                                                value):
        config = {**KIND_CONFIGS[kind], section: {**MINI_GA, key: value}}
        out = tmp_path / "out"
        assert main([kind, "--config", write_config(tmp_path, config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"unknown keys in {section}: ['{key}']" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind, section, key", [
        (kind, section, key) for kind, section, cls in GA_SECTIONS
        for key in sorted(field_names(cls))
    ])
    def test_every_ga_key_read_changes_the_run(self, tmp_path, kind, section, key):
        csvs = []
        for sub, ga in (("a", MINI_GA), ("b", {**MINI_GA, key: GA_CHANGES[key]})):
            cfg = parse_config({**KIND_CONFIGS[kind], section: ga, "seed": 5,
                                "out_dir": str(tmp_path / sub)}, kind_override=kind)
            run_experiment(cfg)
            csvs.append({p.relative_to(tmp_path / sub): p.read_bytes()
                         for p in sorted((tmp_path / sub).rglob("*.csv"))})
        assert csvs[0].keys() == csvs[1].keys()
        assert csvs[0] != csvs[1]

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_kind_reads_its_keys_and_no_others(self, kind):
        reads = KIND_KEYS[kind]
        mine = {*reads.sections, *reads.keys}
        cfg = parse_config({key: VALID_VALUES[key] for key in mine}, kind_override=kind)
        assert cfg.kind == kind
        for key in set(VALID_VALUES) - mine:
            with pytest.raises(ConfigError, match=f"does not read \\['{key}'\\]"):
                parse_config({**KIND_CONFIGS[kind], key: VALID_VALUES[key]},
                             kind_override=kind)

    @pytest.mark.parametrize("kind", KINDS)
    def test_help_names_every_key_the_kind_reads(self, kind, capsys):
        with pytest.raises(SystemExit) as exc:
            main([kind, "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        fields = help_text.split("kind-specific fields:")[1]
        reads = KIND_KEYS[kind]
        missing = [
            key for key in (*reads.sections, *reads.keys)
            if not re.search(rf"(?<![\w-]){re.escape(key)}(?![\w-])", fields)
        ]
        assert missing == []
        # each GA section lists exactly the fields of its section's dataclass
        blocks = re.findall(r"^(\w+) \((\w+)\) fields:\n((?:  .*\n)*)", fields, re.M)
        assert {(section, type_name): [line.split()[0] for line in body.splitlines()]
                for section, type_name, body in blocks} == {
            (section, cls.__name__): field_names(cls)
            for k, section, cls in GA_SECTIONS if k == kind
        }
        assert ("--baseline" in help_text) == ("baseline" in reads.keys)


# kind -> (files of each run directory, its objectives file, plot files)
RUN_FILES = {
    "dimension": ({"dimensions.json"}, "dimensions.json", set()),
    "synthesize": ({"pulse.csv", "spectrum.csv"}, None, {"envelope.csv", "spectrum.csv"}),
    "evaluate": ({"report.json"}, "report.json", set()),
    "baseline": ({"summary.json"}, "summary.json", set()),
    "optimize-pmepr": (
        {"trace.csv", "genome.json", "summary.json"}, "summary.json", {"convergence.csv"},
    ),
    "optimize-moo": ({"front.csv", "genome.json", "summary.json"}, "summary.json", {"pareto.csv"}),
    "optimize-constrained": ({"front.csv", "summary.json"}, "summary.json", {"constrained.csv"}),
    "illuminate": (
        {"spectra.csv", "trace.csv", "genome.json", "illumination.json"}, "illumination.json",
        {"convergence.csv", "illumination.csv"},
    ),
}

# kind -> (run-0 file, aggregate file written from run 0's rows)
RUN0_COPIES = {
    "synthesize": [("spectrum.csv", "spectrum.csv")],
    "illuminate": [("spectra.csv", "illumination.csv")],
}


class TestRunResults:
    @pytest.mark.parametrize("kind", KINDS)
    def test_run_directories(self, tmp_path, kind):
        cfg = parse_config({
            **KIND_CONFIGS[kind], "kind": kind, "runs": 2, "seed": 3,
            "out_dir": str(tmp_path / "out"),
        })
        results = run_experiment(cfg)
        run_files, objectives_file, plots = RUN_FILES[kind]
        out = cfg.out_path()
        assert {p.name for p in out.iterdir()} == {"summary.json", "0", "1", *plots}
        assert [res.run_id for res in results] == [0, 1]
        for res in results:
            assert res.wall_time_s >= 0
            assert res.seed == mix64(3, res.run_id)
            run_dir = out / str(res.run_id)
            assert {p.name for p in run_dir.iterdir()} == run_files
            if objectives_file is not None:
                written = json.loads((run_dir / objectives_file).read_text())
                assert written == res.final_objectives
        # these aggregate files hold run 0's rows, so match its file byte for
        # byte, \r\n line ends included
        for run0_name, name in RUN0_COPIES.get(kind, ()):
            assert (out / name).read_bytes() == (out / "0" / run0_name).read_bytes()


def raising_rows():
    yield (1, 2)
    raise RuntimeError("replica failed")


class TestAtomicArtifacts:
    def test_failed_csv_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "front.csv"
        write_csv(path, ("a", "b"), [(5, 6)])
        with pytest.raises(RuntimeError):
            write_csv(path, ("a", "b"), raising_rows())
        assert read_rows(path) == [["a", "b"], ["5", "6"]]
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_writes_leave_no_file(self, tmp_path):
        with pytest.raises(RuntimeError):
            write_csv(tmp_path / "front.csv", ("a", "b"), raising_rows())
        with pytest.raises(TypeError):
            _write_json(tmp_path / "summary.json", {"a": 1, "b": object()})
        assert list(tmp_path.iterdir()) == []


class TestPlotData:
    def test_rows_concatenate_in_run_order(self, tmp_path):
        runs = [[(0, 2.0, "optimized"), (0, 6.0, "random")], [], [(2, -1.5, "optimized")]]
        assert emit_plot_data(runs, "pareto.csv", ("run", "pmepr", "source"), tmp_path) is None
        assert read_rows(tmp_path / "pareto.csv") == [
            ["run", "pmepr", "source"],
            ["0", "2.0", "optimized"],
            ["0", "6.0", "random"],
            ["2", "-1.5", "optimized"],
        ]

    def test_convergence_averages_the_traces(self, tmp_path):
        runs = [
            ConvergenceTrace(np.array([4.0, 3.0]), np.array([5.0, 3.0])),
            ConvergenceTrace(np.array([2.0, 1.0]), np.array([2.0, 2.0])),
        ]
        emit_plot_data(runs, "convergence.csv", ("g", "b", "m"), tmp_path)
        assert read_rows(tmp_path / "convergence.csv") == [
            ["g", "b", "m"], ["0", "3.0", "3.5"], ["1", "2.0", "2.5"],
        ]


class TestHandedRows:
    """What each replica hands the aggregate: one run's pulse or spectrum
    comes from run 0 alone, so later runs hand over none."""

    def test_only_run_0_hands_over_its_pulse(self, tmp_path):
        cfg = parse_config({
            **KIND_CONFIGS["synthesize"], "kind": "synthesize", "runs": 3,
            "out_dir": str(tmp_path),
        })
        _, rows0 = _execute_run(cfg, 0)
        _, rows1 = _execute_run(cfg, 1)
        assert rows1 == {}
        assert set(rows0) == set(_RUNNERS["synthesize"][2]) == {"envelope.csv", "spectrum.csv"}
        run0 = cfg.out_path() / "0"
        assert [list(map(float, r)) for r in read_rows(run0 / "spectrum.csv")[1:]] == [
            list(r) for r in rows0["spectrum.csv"]]
        pulse = np.array(read_rows(run0 / "pulse.csv")[1:], dtype=float)
        envelope = np.array(rows0["envelope.csv"])
        assert np.array_equal(envelope[:, 0], pulse[:, 0])
        assert np.array_equal(envelope[:, 1], np.abs(pulse[:, 1] + 1j * pulse[:, 2]))

    def test_illuminate_hands_over_traces_and_run_0_spectra(self, tmp_path):
        cfg = parse_config({
            **KIND_CONFIGS["illuminate"], "kind": "illuminate", "runs": 2,
            "out_dir": str(tmp_path),
        })
        _, rows0 = _execute_run(cfg, 0)
        _, rows1 = _execute_run(cfg, 1)
        assert set(rows0) == {"convergence.csv", "illumination.csv"}
        assert set(rows1) == {"convergence.csv"}
        assert isinstance(rows1["convergence.csv"], ConvergenceTrace)
        spectra = read_rows(cfg.out_path() / "0" / "spectra.csv")[1:]
        assert [[float(c) for c in r] for r in spectra] == [
            list(r) for r in rows0["illumination.csv"]]
