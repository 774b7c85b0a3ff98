"""Command-line entry point: ``forge <subcommand> --config FILE``.

Exit codes: 0 on success, 2 on configuration errors, 1 on runtime failures.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields
from typing import get_args, get_type_hints

from ..errors import ConfigError, ForgeError
from ..evolve import GASchedule
from ..phasing import BASELINES
from .config import KIND_KEYS, ExperimentConfig, parse_config, read_config
from .runner import run_experiment

# the help's "%(key)s" defaults come from the dataclass fields
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}
_HINTS = get_type_hints(ExperimentConfig)

_COMMON_FIELDS = """\
common config fields:
  seed      master seed; replica r runs with mix64(seed, r)   (default %(seed)s)
  runs      number of independent replicas                    (default %(runs)s)
  workers   parallel replica processes                        (default %(workers)s)
  out_dir   output root; results land in <out_dir>/<kind>/    (default %(out_dir)s)
a key that only other kinds read is a config error
"""

_KIND_FIELDS = {
    "dimension": """\
  scenario  {target_extent_m, margin_m, min_range_m} - emits bandwidth,
            pulse-length bound and subcarrier cap as dimensions.json
""",
    "synthesize": """\
  pulse     {n_subcarriers, n_symbols, subcarrier_spacing_hz, oversampling}
  baseline  noncoded | random | newman                        (default %(baseline)s)
  alphabet  M-ary PSK lattice of baseline random (e.g. 4)     (default continuous)
  sparsity  fraction of active subcarriers                    (default %(sparsity)s)
            writes pulse.csv (t_s, re, im) and spectrum.csv (f_hz, magnitude)
""",
    "evaluate": """\
  pulse, baseline, alphabet, sparsity - as for synthesize; writes report.json
  {pmepr, pslr_db, islr_db, oversampling}
""",
    "baseline": """\
  pulse, baseline, alphabet, sparsity - Monte-Carlo over `runs` replicas
  (fresh mask/codes per run); aggregate PMEPR stats in summary.json
""",
    "optimize-pmepr": """\
  pulse, sparsity  - one random mask per replica when sparsity < 1
  bits_per_var     phase quantization bits (2 = QPSK, 18 = quasi-continuous)
            writes trace.csv, genome.json, summary.json per run
""",
    "optimize-moo": """\
  pulse, ga        NSGA-II on (PMEPR, PSLR); a population of 40 works well
  snapshot_every   front.csv snapshot period in generations   (default %(snapshot_every)s)
  n_random         size of the random comparison cloud        (default pop)
            writes front.csv (pmepr, pslr_db, islr_db, run_id, generation),
            genome.json sidecar, pareto.csv plot data
""",
    "optimize-constrained": """\
  pulse, ga        NSGA-II on (PSLR, ISLR) with a PMEPR cap
  pmepr_max        cap; null -> derived from the random-code PMEPR
                   distribution (threshold_samples draws, default %(threshold_samples)s)
            writes front.csv per run and constrained.csv with per-run
            compliance flags
""",
    "illuminate": """\
  pulse, carrier_hz  case-study dimensions (e.g. N=100, df=20 MHz, f_c=9 GHz)
  target             {n_scatterers, center_range_m, extent_m, reflectivity,
                      seed, scatterers} - explicit scatterers [[refl, range], ...]
                      win over the random box; a fixed target.seed pins the draw
  weight_bounds      [v_l, v_u] raw gene bounds               (default %(weight_bounds)s)
  weight_ga          GA for spectral weights (e.g. 20 x 5000, mutation_rate 0.2)
  phase_ga           GA for PMEPR phases (e.g. 12 x 600)
  bits_per_var       phase encoding bits                      (default %(bits_per_var)s)
            writes illumination.json {gain_db, pmepr_initial, pmepr_final},
            spectra.csv (n, reflectivity_norm_abs, w_opt), trace.csv and
            genome.json {bits_per_var, phases}, the designed phases
""",
}


def _ga_fields(section: str) -> str:
    """The help lines of a GA section: its dataclass's fields ("" if not a GA)."""
    cls = get_args(_HINTS[section])[0]  # the X of "X | None"
    if not issubclass(cls, GASchedule):
        return ""
    lines = [f"{section} ({cls.__name__}) fields:\n"]
    for f in fields(cls):
        default = "required" if f.default is MISSING else f"default {f.default}"
        lines.append(f"  {f.name:<24}{default}\n")
    return "".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forge",
        description="Design pulsed-OFDM radar waveforms by evolutionary optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, reads in KIND_KEYS.items():
        p = sub.add_parser(
            kind,
            help=_KIND_FIELDS[kind].splitlines()[0].strip(),
            description=f"Run the '{kind}' experiment.",
            epilog=(_COMMON_FIELDS + "kind-specific fields:\n" + _KIND_FIELDS[kind]) % _DEFAULTS
            + "".join(_ga_fields(section) for section in reads.sections),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override config out_dir")
        p.add_argument("--runs", type=int, default=None, help="override config runs")
        p.add_argument("--workers", type=int, default=None, help="override config workers")
        if "baseline" in reads.keys:
            p.add_argument(
                "--baseline",
                choices=BASELINES,
                default=None,
                help="override the baseline phasing kind",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # flags override the document's fields, so every parse-time check covers them
    overrides = {
        "seed": args.seed,
        "out_dir": args.out,
        "runs": args.runs,
        "workers": args.workers,
        "baseline": getattr(args, "baseline", None),
    }
    try:
        data = read_config(args.config)
        data.update((k, v) for k, v in overrides.items() if v is not None)
        config = parse_config(data, kind_override=args.command)
        results = run_experiment(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1

    brief = {
        "kind": config.kind,
        "runs": len(results),
        "out": str(config.out_path()),
        "objectives": {
            str(r.run_id): r.final_objectives for r in results[: min(len(results), 5)]
        },
    }
    print(json.dumps(brief, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
