"""End-to-end and per-layer benchmark of ofdmforge's experiment runner.

    python3 bench/run.py --workload constrained-nsga2 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

One invocation runs one pinned workload (see ``workloads.py`` and
``NOTES.md``) as a closed loop with a single client: it calls
``run_experiment`` serially with ``workers: 1``, first once to warm up and
then until ``--seconds`` have passed, and gates every replica of every
experiment.  All experiments of a run share the seed, so their CSV digests
must agree.  Every timed step runs between two passes of a speed probe
served from a separate process (``speed.py``); the bounded times are wall
times scaled by the probe, and the report prints the raw ones too.

``--trace 0`` reports the end-to-end metrics, untraced.  ``--trace 1`` times
untraced experiments for half the time and traced ones for the other half,
and reports per-layer call counts and self times plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 15
MIN_EXPERIMENTS = 3

# Runs in a fresh interpreter: argv = [config path, source dir].  Prints the
# seconds numpy takes to import, then the set-up time that follows it.  numpy
# is imported first and left out of the set-up time: its import reads large
# shared libraries and takes twice as long whenever the host has dropped them
# from the page cache, which the program cannot change.
_SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
import numpy
numpy_s = time.perf_counter() - start
start = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import ofdmforge
from ofdmforge.harness.config import load_config
load_config(sys.argv[1])
print(numpy_s, time.perf_counter() - start)
"""


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _quartiles(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  max {max(values):.6g}  n={len(values)}"


class SpeedProbe:
    """The ``speed.py`` probe, served by a child process for a ``with`` block.

    ``scale()`` times one probe pass and returns ``REFERENCE_S`` over the
    mean of that pass and the one before it, the factor that turns the wall
    time of the step between them into reference seconds.
    """

    def __enter__(self) -> "SpeedProbe":
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "speed.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._last = self._probe_s()
        return self

    def _probe_s(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("speed probe process exited")
        return float(line)

    def scale(self) -> float:
        before, self._last = self._last, self._probe_s()
        return speed.REFERENCE_S / ((before + self._last) / 2)

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


def measure_setup(config_path: Path, probe: SpeedProbe) -> dict[str, list[float]]:
    """Import ``ofdmforge`` and load the config in fresh processes.

    Returns the seconds of every repeat: numpy's import, and the raw and the
    probe-scaled set-up after it.
    """
    setup = {"numpy": [], "raw": [], "scaled": []}
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(config_path), str(workloads.SRC)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        numpy_s, raw = map(float, done.stdout.split())
        setup["numpy"].append(numpy_s)
        setup["raw"].append(raw)
        setup["scaled"].append(raw * probe.scale())
    return setup


def one_experiment(config_path: Path, exp_dir: Path, tracer=None) -> dict:
    """Run and gate one experiment; ``tracer`` (if given) is installed around it."""
    import gates
    from ofdmforge.harness import config as config_mod
    from ofdmforge.harness import runner

    shutil.rmtree(exp_dir, ignore_errors=True)
    results = None
    with tracer if tracer is not None else contextlib.nullcontext():
        cfg = config_mod.load_config(config_path)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        try:
            results = runner.run_experiment(cfg)
        except Exception:  # the experiment failed; count its replicas and go on
            traceback.print_exc()
        wall = time.perf_counter() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    if results is None:
        failures, quality = {r: ["run_experiment raised"] for r in range(cfg.runs)}, []
    else:
        failures, quality = gates.check_replicas(cfg)
    return {
        "runs": cfg.runs,
        "wall_s": wall,
        "minor_faults": faults,
        "replica_wall_s": [r.wall_time_s for r in results or []],
        "scale": 1.0,
        "failures": failures,
        "quality": quality,
        "digest": gates.csv_digest(exp_dir),
        "io_bytes": sum(p.stat().st_size for p in exp_dir.rglob("*") if p.is_file()),
        "tracer": tracer,
    }


def run_for(seconds: float, config_path: Path, exp_dir: Path, traced: bool,
            probe: SpeedProbe) -> list[dict]:
    """Experiments until ``seconds`` have passed (at least ``MIN_EXPERIMENTS``),
    each scaled by the probe passes around it."""
    from tracer import Tracer

    probe.scale()  # start the first experiment's pair of passes here
    experiments = []
    start = time.perf_counter()
    while len(experiments) < MIN_EXPERIMENTS or time.perf_counter() - start < seconds:
        e = one_experiment(config_path, exp_dir, Tracer() if traced else None)
        e["scale"] = probe.scale()
        experiments.append(e)
    return experiments


def _experiment_s(experiments: list[dict]) -> list[float]:
    return [e["wall_s"] * e["scale"] for e in experiments]


def _replica_s(experiments: list[dict]) -> list[float]:
    return [t * e["scale"] for e in experiments for t in e["replica_wall_s"]]


def end_to_end_metrics(timed, config, setup_s, attempted, failed, best_pmepr) -> dict:
    experiment_s = statistics.median(_experiment_s(timed))
    return {
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "experiment_s": _metric(experiment_s, "s"),
        "replica_s": _metric(statistics.median(_replica_s(timed)), "s"),
        "evals_per_s": _metric(workloads.demanded_evaluations(config) / experiment_s, "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_ratio": _metric(1.0 - failed / attempted, "ratio"),
        "best_pmepr": _metric(best_pmepr, "ratio"),
    }


def _layer_medians(traced: list[dict]) -> dict[str, tuple[float, float]]:
    """Per traced function: median calls and median scaled self seconds."""
    return {
        name: (
            statistics.median(e["tracer"].calls[name] for e in traced),
            statistics.median(e["tracer"].self_s[name] * e["scale"] for e in traced),
        )
        for name in traced[0]["tracer"].calls
    }


def per_layer_metrics(traced, untraced, config) -> dict:
    metrics = {}
    layers = _layer_medians(traced)
    for name, (calls, self_s) in layers.items():
        metrics[f"{name}.calls"] = _metric(calls, "count")
        metrics[f"{name}.self_s"] = _metric(self_s, "s")
    acf_calls = layers["metrics.autocorrelation"][0]
    metrics["evaluate.recompute_ratio"] = _metric(
        acf_calls / workloads.demanded_evaluations(config), "ratio"
    )
    metrics["harness.io_bytes"] = _metric(statistics.median(e["io_bytes"] for e in traced), "bytes")
    metrics["process.minor_faults"] = _metric(
        statistics.median(e["minor_faults"] for e in traced), "count"
    )
    overhead = statistics.median(_experiment_s(traced)) - statistics.median(_experiment_s(untraced))
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    return metrics


def report_layers(traced: list[dict]) -> None:
    root = statistics.median(_experiment_s(traced))
    print(f"  per-layer, median over {len(traced)} traced experiments of {root:.4g} s:")
    layers = sorted(_layer_medians(traced).items(), key=lambda item: -item[1][1])
    for name, (calls, self_s) in layers:
        print(f"    {name:34s} calls {calls:9.0f}  self {self_s:8.4f} s  {100 * self_s / root:5.1f}%")


def run_workload(args) -> int:
    name, seed = args.workload, args.seed
    out_root = BENCH_DIR / "out" / f"{name}-seed{seed}"
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    exp_dir = out_root / "experiment"
    config_path = out_root / "config.json"
    config_path.write_text(json.dumps(workloads.experiment_config(name, seed, exp_dir), indent=2) + "\n")
    config = workloads.parsed_config(name)

    print(f"workload {name}  seed {seed}  kind {config.kind}  "
          f"replicas/experiment {config.runs}  trace {args.trace}")
    print(f"  why: {workloads.WORKLOADS[name]['why']}")
    counts = {"demanded_evals": workloads.demanded_evaluations(config), **workloads.kernel_counts(config)}
    print("  computed: " + "  ".join(f"{k}={v:.6g}" for k, v in counts.items()))

    with SpeedProbe() as probe:
        if not args.trace:
            setup = measure_setup(config_path, probe)
        warmup = one_experiment(config_path, exp_dir)
        if args.trace:
            untraced = run_for(args.seconds / 2, config_path, exp_dir, False, probe)
            traced = run_for(args.seconds / 2, config_path, exp_dir, True, probe)
            timed = untraced + traced
        else:
            timed = run_for(args.seconds, config_path, exp_dir, False, probe)
    experiments = [warmup] + timed

    reference = warmup["digest"]
    for e in timed:
        if e["digest"] != reference:
            for r in range(e["runs"]):
                e["failures"].setdefault(r, []).append("CSV digest differs for the same seed")
    attempted = sum(e["runs"] for e in experiments)
    failed = sum(len(e["failures"]) for e in experiments)
    for i, e in enumerate(experiments):
        for run_id, problems in sorted(e["failures"].items()):
            print(f"  FAIL experiment {i} replica {run_id}: {'; '.join(problems)}")
    same = all(e["digest"] == reference for e in timed)
    print(f"  csv sha256 {reference}  ({'identical' if same else 'DIFFERENT'} "
          f"over {len(experiments)} experiments)")
    print(f"  replicas attempted {attempted}  failed {failed}  fail_ratio {failed / attempted:.6g}")
    # The gates are deterministic for a seed, so the warm-up's replicas give
    # the design quality of every experiment of the run.
    quality = {
        key: statistics.median(q[key] for q in warmup["quality"])
        for key in (warmup["quality"][0] if warmup["quality"] else {})
    }
    for key, value in sorted(quality.items()):
        print(f"  quality {key}: median {value:.6g} over {len(warmup['quality'])} replicas")

    plain = untraced if args.trace else timed
    print(f"  raw wall  experiment {_quartiles([e['wall_s'] for e in plain])}")
    print(f"  scaled    experiment {_quartiles(_experiment_s(plain))}")
    print(f"  scaled    replica    {_quartiles(_replica_s(plain))}")
    if args.trace:
        report_layers(traced)
        metrics = per_layer_metrics(traced, untraced, config)
    else:
        print(f"  raw wall  numpy import {_quartiles(setup['numpy'])}")
        print(f"  raw wall  setup      {_quartiles(setup['raw'])}")
        print(f"  scaled    setup      {_quartiles(setup['scaled'])}")
        metrics = end_to_end_metrics(
            timed, config, setup["scaled"], attempted, failed, quality.get("best_pmepr")
        )
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    correct = failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        **result,
        "workload": name,
        "seed": seed,
        "computed": counts,
        "csv_sha256": reference,
        "experiments": [
            {k: e[k] for k in ("wall_s", "scale", "minor_faults", "replica_wall_s", "io_bytes")}
            | ({"calls": e["tracer"].calls, "self_s": e["tracer"].self_s} if e["tracer"] else {})
            for e in timed
        ],
    }
    (out_root / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process; merge their result lines."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            status = 1
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1,
                        help=f"workload seed; {workloads.HELD_OUT_SEED} is held out for confirming claims")
    parser.add_argument("--seconds", type=float, default=30.0, help="timed span of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads.use_source_tree()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
