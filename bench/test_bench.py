"""Self-checks of the benchmark: tracer bindings, exact call counts, gates.

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import importlib
import json
import sys

import pytest

import workloads

workloads.use_source_tree()

import gates  # noqa: E402  (needs the source tree on sys.path)
import run  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402


def _experiment(tmp_path, name, tracer=None):
    exp_dir = tmp_path / "experiment"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(workloads.experiment_config(name, 1, exp_dir)))
    return workloads.parsed_config(name), run.one_experiment(config_path, exp_dir, tracer)


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def traced(request, tmp_path_factory):
    config, result = _experiment(tmp_path_factory.mktemp(request.param), request.param, Tracer())
    return request.param, config, result


def _originals():
    return {
        id(getattr(importlib.import_module(f"ofdmforge.{module}"), fn)): f"{module}.{fn}"
        for module, fn in (name.rsplit(".", 1) for name in TRACED)
    }


def test_tracer_rebinds_every_copy_and_restores_them():
    import ofdmforge

    originals = _originals()
    with Tracer() as tracer:
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("ofdmforge"):
                for attr, value in vars(module).items():
                    assert id(value) not in originals, f"{module_name}.{attr} left unwrapped"
        for site in [
            ("ofdmforge.harness.runner", "synthesize"),
            ("ofdmforge.harness.runner", "nsga2"),
            ("ofdmforge.harness.runner", "write_csv"),
            ("ofdmforge.illumination", "sga_minimize"),
            ("ofdmforge.illumination", "synthesize"),
            ("ofdmforge.pareto", "nondominated_sort"),
            ("ofdmforge.harness", "run_experiment"),
            ("ofdmforge", "synthesize"),
        ]:
            assert site in tracer.bindings
    assert _originals() == originals
    assert id(ofdmforge.synthesize) in originals


def test_traced_replicas_pass_their_gates(traced):
    _, config, result = traced
    assert result["failures"] == {}
    assert len(result["quality"]) == config.runs


def test_self_times_are_non_negative_and_roots_called_once(traced):
    _, _, result = traced
    tracer = result["tracer"]
    assert all(t >= 0 for t in tracer.self_s.values()), tracer.self_s
    assert tracer.calls["harness.runner.run_experiment"] == 1
    assert tracer.calls["harness.config.load_config"] == 1


def test_exact_counts_fixed_by_the_config(traced):
    name, config, result = traced
    calls = result["tracer"].calls
    runs = config.runs
    synth = workloads.pulse_syntheses(config)
    if name in ("pmepr-sga", "illuminate"):
        for fn in ("metrics.autocorrelation", "metrics.pslr", "metrics.islr", "pareto.nsga2"):
            assert calls[fn] == 0, fn
        assert calls["waveform.synthesize"] == calls["metrics.pmepr"] == synth
        assert calls["evolve.decode_phases"] == synth + runs
        assert calls["evolve.sga_minimize"] == runs
    if name == "pmepr-sga":
        assert synth == workloads.demanded_evaluations(config)
    elif name == "illuminate":
        for fn in ("illumination.optimize_weights", "illumination.two_step_pipeline",
                   "evolve.continuous_minimize"):
            assert calls[fn] == runs
    else:
        assert calls["pareto.nsga2"] == runs
        assert calls["metrics.autocorrelation"] == calls["metrics.pslr"] == calls["metrics.islr"]
        threshold = 1000 if name == "constrained-nsga2" else 0
        assert calls["waveform.synthesize"] == calls["metrics.autocorrelation"] + threshold
        assert calls["waveform.synthesize"] <= synth
    if name == "moo-wide":
        self_s = result["tracer"].self_s
        assert max(self_s, key=self_s.get) == "metrics.autocorrelation"


def test_gates_and_digest_catch_tampered_artifacts(tmp_path):
    from ofdmforge.harness import load_config

    _, result = _experiment(tmp_path, "pmepr-sga")
    assert result["failures"] == {}
    cfg = load_config(tmp_path / "config.json")
    summary = cfg.out_path() / "0" / "summary.json"
    summary.write_text(json.dumps({"pmepr": json.loads(summary.read_text())["pmepr"] + 1e-6}))
    trace = cfg.out_path() / "1" / "trace.csv"
    lines = trace.read_text().splitlines()
    generation, _, mean = lines[-1].split(",")
    lines[-1] = f"{generation},1000000000.0,{mean}"
    trace.write_text("\n".join(lines) + "\n")
    failures, _ = gates.check_replicas(cfg)
    assert sorted(failures) == [0, 1]
    assert gates.csv_digest(cfg.out_path()) != result["digest"]


def test_speed_probe_is_served_by_a_child_that_stops():
    with run.SpeedProbe() as probe:
        assert probe.scale() > 0
        child = probe._proc
        assert child.poll() is None
    assert child.returncode == 0


def test_kernel_counts_match_the_workload_shapes():
    constrained = workloads.kernel_counts(workloads.parsed_config("constrained-nsga2"))
    assert constrained["acf_nfft"] == 4096
    assert constrained["acf_useful_fraction"] == pytest.approx(3999 / 4096)
    wide = workloads.kernel_counts(workloads.parsed_config("moo-wide"))
    assert (wide["acf_nfft"], wide["synth_ifft_len"], wide["synth_ifft_per_eval"]) == (32768, 2500, 4)
    assert wide["acf_useful_fraction"] == pytest.approx(19999 / 32768)
    assert wide["acf_buffer_kib"] == 512
    assert "acf_nfft" not in workloads.kernel_counts(workloads.parsed_config("pmepr-sga"))
