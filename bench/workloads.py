"""Pinned benchmark workloads: experiment configs, demanded work, kernel counts.

Each workload fixes one experiment kind and problem shape.  Generations and
replica counts are sized so one ``run_experiment`` takes about a second on
a 2-core machine, which leaves room for several timed experiments per run.
"""
from __future__ import annotations

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Seed reserved for confirming a claimed gain; never used while tuning.
HELD_OUT_SEED = 9001

_PULSE_100 = {
    "n_subcarriers": 100,
    "n_symbols": 1,
    "subcarrier_spacing_hz": 1.0e5,
    "oversampling": 20,
}

WORKLOADS = {
    "pmepr-sga": {
        "why": "envelope-control path of criteria 04/05: bit decode, synthesis "
        "and PMEPR dominate; ACF, sidelobes and NSGA-II do no work",
        "config": {
            "kind": "optimize-pmepr",
            "runs": 6,
            "pulse": _PULSE_100,
            "bits_per_var": 18,
            "sparsity": 0.5,
            "ga": {"population_size": 12, "generations": 200},
        },
    },
    "constrained-nsga2": {
        "why": "criterion 07's shape, most of the tier-1 time: in-cache ACF "
        "(nfft 4096), PSLR/ISLR re-splits and NSGA-II bookkeeping",
        "config": {
            "kind": "optimize-constrained",
            "runs": 6,
            "pulse": _PULSE_100,
            "ga": {"population_size": 40, "generations": 10},
        },
    },
    "illuminate": {
        "why": "criterion 09's shape: continuous-GA loop overhead with cheap "
        "fitness, then a binary GA on non-uniform weights; no ACF",
        "config": {
            "kind": "illuminate",
            "runs": 4,
            "pulse": {**_PULSE_100, "subcarrier_spacing_hz": 2.0e7},
            "carrier_hz": 9.0e9,
            "target": {"seed": 77},
            "bits_per_var": 18,
            "weight_ga": {"population_size": 20, "generations": 500, "mutation_rate": 0.2},
            "phase_ga": {"population_size": 12, "generations": 60},
        },
    },
    "moo-wide": {
        "why": "only large transform (M=10000, nfft 32768, 61% useful bins), "
        "multi-symbol synthesis and the optimize-moo snapshot/random-cloud path",
        "config": {
            "kind": "optimize-moo",
            "runs": 1,
            "pulse": {**_PULSE_100, "n_subcarriers": 125, "n_symbols": 4},
            "ga": {"population_size": 40, "generations": 6},
            "snapshot_every": 3,
        },
    },
}


def use_source_tree() -> None:
    """Import ``ofdmforge`` from this checkout's ``src``, or exit with code 2."""
    if not (SRC / "ofdmforge" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no ofdmforge sources under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def experiment_config(name: str, seed: int, out_dir: Path) -> dict:
    """The JSON config of one workload experiment; ``workers`` is pinned to 1."""
    return {**WORKLOADS[name]["config"], "seed": seed, "workers": 1, "out_dir": str(out_dir)}


def parsed_config(name: str):
    """The workload's config as the package parses it, defaults filled in."""
    from ofdmforge.harness.config import parse_config

    return parse_config(WORKLOADS[name]["config"])


def _ga_evals(ga) -> int:
    """Fitness calls of one elitist GA run: P initial, then P - n_keep a generation."""
    p = ga.population_size
    return p + ga.generations * (p - ga.n_keep())


def demanded_evaluations(config) -> int:
    """Genome evaluations the optimizers demand in one experiment.

    ``config`` is a parsed ``ExperimentConfig``.  NSGA-II asks for P initial
    and P offspring evaluations a generation; the elitist GAs for P initial
    and P - n_keep a generation.  Re-reads served by the runner's cache, the
    snapshot re-scoring and the random cloud are not demanded by the
    algorithm and are not counted.
    """
    if config.kind == "optimize-pmepr":
        return config.runs * _ga_evals(config.ga)
    if config.kind == "illuminate":
        return config.runs * (_ga_evals(config.weight_ga) + _ga_evals(config.phase_ga))
    ga = config.ga
    return config.runs * ga.population_size * (1 + ga.generations)


def pulse_syntheses(config) -> int:
    """Pulse syntheses one experiment demands.

    On top of the demanded evaluations this counts the constrained kind's
    threshold sample and the moo kind's random cloud; the weight GA of the
    illumination pipeline synthesizes nothing.  The runner's evaluation cache
    may serve some of these without calling ``synthesize``.
    """
    if config.kind == "illuminate":
        return config.runs * _ga_evals(config.phase_ga)
    total = demanded_evaluations(config)
    if config.kind == "optimize-constrained":
        total += config.threshold_samples
    if config.kind == "optimize-moo":
        total += config.runs * (config.n_random or config.ga.population_size)
    return total


def _fft_flops(n: int) -> float:
    return 5.0 * n * math.log2(n)


def kernel_counts(config) -> dict:
    """Computed (not measured) FFT shapes and costs of one pulse evaluation.

    Synthesis is one length-N*L inverse FFT per symbol.  Sidelobe workloads
    add the ACF: a forward and an inverse FFT of the pulse padded to the next
    power of two at or above 2M - 1.  FFT cost is taken as 5 n log2 n flops,
    and bytes as the complex128 input plus output of every transform.
    """
    pulse = config.pulse
    n, k, l = pulse.n_subcarriers, pulse.n_symbols, pulse.oversampling
    m_sym = n * l
    m = m_sym * k
    counts = {
        "synth_ifft_len": m_sym,
        "synth_ifft_per_eval": k,
        "synth_ifft_count": k * pulse_syntheses(config),
        "flops_per_eval": k * _fft_flops(m_sym),
        "bytes_per_eval": k * 16 * (n + m_sym),
    }
    if config.kind in ("optimize-moo", "optimize-constrained"):
        nfft = 1 << (2 * m - 1).bit_length()
        counts.update(
            acf_nfft=nfft,
            acf_useful_fraction=(2 * m - 1) / nfft,
            acf_buffer_kib=nfft * 16 / 1024,
        )
        counts["flops_per_eval"] += 2 * _fft_flops(nfft)
        counts["bytes_per_eval"] += 2 * 16 * (nfft + nfft)
    return counts
