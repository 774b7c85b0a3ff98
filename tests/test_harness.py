import csv
import json
from pathlib import Path

import numpy as np
import pytest

from ofdmforge import (
    PulseSpec,
    SparsityMask,
    pmepr,
    pmepr_threshold_from_distribution,
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
from ofdmforge.harness.config import KINDS
from ofdmforge.harness.plotdata import write_csv
from ofdmforge.harness.runner import (
    _RUNNERS,
    _derived_pmepr_max,
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
        t = ConvergenceTrace.from_lists([4.0, 3.0], [5.0, 4.0])
        agg = aggregate([t, t, t])
        assert np.allclose(agg.best, [4.0, 3.0])
        assert np.allclose(agg.mean, [5.0, 4.0])

    def test_pointwise_mean(self):
        t1 = ConvergenceTrace.from_lists([4.0, 3.0], [4.0, 3.0])
        t2 = ConvergenceTrace.from_lists([2.0, 1.0], [2.0, 1.0])
        agg = aggregate([t1, t2])
        assert np.allclose(agg.best, [3.0, 2.0])

    def test_ragged_rejected(self):
        t1 = ConvergenceTrace.from_lists([4.0, 3.0], [4.0, 3.0])
        t2 = ConvergenceTrace.from_lists([2.0], [2.0])
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

    def test_defaults_fill_in(self):
        cfg = parse_config({"kind": "baseline", "pulse": MINI_PULSE})
        assert cfg.runs == 1 and cfg.seed == 0 and cfg.baseline == "random"
        assert cfg.pulse.oversampling == 4

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

    def test_optimize_moo(self, tmp_path):
        out = self.run_cli(tmp_path, "optimize-moo", {
            "pulse": MINI_PULSE, "ga": MINI_GA, "snapshot_every": 10, "seed": 7,
        })
        front = read_rows(out / "0" / "front.csv")
        assert front[0] == ["pmepr", "pslr_db", "islr_db", "run_id", "generation"]
        gens = {row[4] for row in front[1:]}
        assert gens == {"10", "20"}
        pareto = read_rows(out / "pareto.csv")
        assert pareto[0] == ["pmepr", "pslr_db", "source"]
        sources = {row[2] for row in pareto[1:]}
        assert sources == {"optimized", "random"}

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

    def test_optimize_constrained_derived_threshold(self, tmp_path):
        out = self.run_cli(tmp_path, "optimize-constrained", {
            "pulse": MINI_PULSE, "ga": MINI_GA,
            "threshold_samples": 150, "seed": 9,
        })
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pmepr_max"] > 1.0

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
        out = self.run_cli(tmp_path, "illuminate", {
            "pulse": {"n_subcarriers": 12, "n_symbols": 1,
                      "subcarrier_spacing_hz": 2e7, "oversampling": 4},
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
        capsys.readouterr()


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

    def test_seed_override_changes_results(self, tmp_path):
        config = {"pulse": MINI_PULSE, "baseline": "random", "seed": 1}
        path = write_config(tmp_path, config)
        assert main(["evaluate", "--config", path, "--out", str(tmp_path / "s1")]) == 0
        assert main(["evaluate", "--config", path, "--seed", "2",
                     "--out", str(tmp_path / "s2")]) == 0
        r1 = json.loads((tmp_path / "s1" / "evaluate" / "0" / "report.json").read_text())
        r2 = json.loads((tmp_path / "s2" / "evaluate" / "0" / "report.json").read_text())
        assert r1["pmepr"] != r2["pmepr"]


class TestRunResults:
    def test_artifacts_exist(self, tmp_path):
        cfg = parse_config({
            "kind": "optimize-pmepr", "pulse": MINI_PULSE, "ga": MINI_GA,
            "bits_per_var": 2, "runs": 2, "out_dir": str(tmp_path / "out"),
        })
        results = run_experiment(cfg)
        assert len(results) == 2
        for res in results:
            assert res.wall_time_s >= 0
            assert res.seed == mix64(0, res.run_id)
            for path in res.artifacts.values():
                assert Path(path).is_file()


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
    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_plot_data([], "hologram", tmp_path)

    def test_pareto_schema(self, tmp_path):
        payloads = [{
            "front": np.array([[2.0, -15.0, 30.0]]),
            "random": np.array([[6.0, -13.0, 33.0]]),
        }]
        (path,) = emit_plot_data(payloads, "pareto", tmp_path)
        rows = read_rows(path)
        assert rows[0] == ["pmepr", "pslr_db", "source"]
        assert rows[1] == ["2.0", "-15.0", "optimized"]
        assert rows[2] == ["6.0", "-13.0", "random"]

    def test_envelope_schema(self, tmp_path):
        payloads = [{
            "times_s": np.array([0.0, 1.0]),
            "envelope": np.array([0.5, 0.25]),
        }]
        (path,) = emit_plot_data(payloads, "envelope", tmp_path)
        rows = read_rows(path)
        assert rows[0] == ["t_s", "abs"]
        assert len(rows) == 3

    def test_convergence_schema_averages_runs(self, tmp_path):
        payloads = [
            {"trace": ConvergenceTrace.from_lists([4.0, 3.0], [4.0, 3.0])},
            {"trace": ConvergenceTrace.from_lists([2.0, 1.0], [2.0, 1.0])},
        ]
        (path,) = emit_plot_data(payloads, "convergence", tmp_path)
        rows = read_rows(path)
        assert rows[0] == ["generation", "best", "mean"]
        assert rows[1] == ["0", "3.0", "3.0"]
        assert rows[2] == ["1", "2.0", "2.0"]
