"""Experiment configuration: one strict JSON document per experiment.

Unknown keys are rejected everywhere.  ``KIND_KEYS`` declares what each
experiment kind reads: a key that only other kinds read is rejected too, and
the kind's required sections must be present, all before any compute starts.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from ..design import ScenarioSpec
from ..errors import ConfigError
from ..evolve import GAConfig
from ..pareto import MIN_THRESHOLD_SAMPLES, ConstraintSpec
from ..waveform import PulseSpec

BASELINES = ("noncoded", "random", "newman")

_MISSING = object()


class _Section:
    """Dict wrapper that tracks consumed keys and rejects leftovers."""

    def __init__(self, data: object, name: str):
        if not isinstance(data, dict):
            raise ConfigError(f"'{name}' must be a JSON object")
        self._d = dict(data)
        self._name = name

    def take(self, key: str, default: object = _MISSING) -> object:
        if key in self._d:
            return self._d.pop(key)
        if default is _MISSING:
            raise ConfigError(f"missing required key '{key}' in {self._name}")
        return default

    def finish(self) -> None:
        if self._d:
            raise ConfigError(
                f"unknown keys in {self._name}: {sorted(self._d)}"
            )


def _as_int(value: object, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{name}' must be an integer, got {value!r}")
    return value


def _as_number(value: object, name: str) -> float:
    """A finite number; JSON also admits NaN, Infinity and overflowing 1e400."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{name}' must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"'{name}' must be finite, got {value!r}")
    return number


@dataclass(frozen=True)
class TargetSection:
    """Synthetic extended target description.

    Either explicit scatterers [[reflectivity, range_m], ...] or a random box
    (n_scatterers uniform over the along-range extent).  A fixed ``seed``
    pins the draw across runs; without one each run draws its own target.
    """

    n_scatterers: int = 50
    center_range_m: float = 10_000.0
    extent_m: float = 10.0
    reflectivity: float = 1.0
    seed: int | None = None
    scatterers: tuple[tuple[float, float], ...] | None = None


def _parse_pulse(data: object) -> PulseSpec:
    s = _Section(data, "pulse")
    spec = PulseSpec(
        n_subcarriers=_as_int(s.take("n_subcarriers"), "pulse.n_subcarriers"),
        n_symbols=_as_int(s.take("n_symbols", 1), "pulse.n_symbols"),
        subcarrier_spacing_hz=_as_number(
            s.take("subcarrier_spacing_hz", 1.0e5), "pulse.subcarrier_spacing_hz"
        ),
        oversampling=_as_int(s.take("oversampling", 20), "pulse.oversampling"),
    )
    s.finish()
    return spec


def _parse_ga(data: object, name: str) -> GAConfig:
    s = _Section(data, name)
    try:
        cfg = GAConfig(
            population_size=_as_int(s.take("population_size"), f"{name}.population_size"),
            generations=_as_int(s.take("generations"), f"{name}.generations"),
            elitism_fraction=_as_number(
                s.take("elitism_fraction", 0.5), f"{name}.elitism_fraction"
            ),
            mutation_every=_as_int(s.take("mutation_every", 1), f"{name}.mutation_every"),
            mutation_per_offspring=_as_number(
                s.take("mutation_per_offspring", 1.0), f"{name}.mutation_per_offspring"
            ),
            mutation_rate=_as_number(s.take("mutation_rate", 0.2), f"{name}.mutation_rate"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid {name}: {exc}") from exc
    s.finish()
    return cfg


def _parse_scenario(data: object) -> ScenarioSpec:
    s = _Section(data, "scenario")
    try:
        spec = ScenarioSpec(
            target_extent_m=_as_number(s.take("target_extent_m"), "scenario.target_extent_m"),
            margin_m=_as_number(s.take("margin_m", 0.0), "scenario.margin_m"),
            min_range_m=_as_number(s.take("min_range_m"), "scenario.min_range_m"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid scenario: {exc}") from exc
    s.finish()
    return spec


def _parse_target(data: object) -> TargetSection:
    s = _Section(data, "target")
    scatterers = s.take("scatterers", None)
    if scatterers is not None:
        try:
            scatterers = tuple(
                (float(sig), float(rng_m)) for sig, rng_m in scatterers
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(
                "target.scatterers must be [[reflectivity, range_m], ...]"
            ) from exc
        if not all(math.isfinite(v) for pair in scatterers for v in pair):
            raise ConfigError("target.scatterers must be finite numbers")
    seed = s.take("seed", None)
    if seed is not None:
        seed = _as_int(seed, "target.seed")
        if seed < 0:
            raise ConfigError("target.seed must be >= 0")
    n_scatterers = _as_int(s.take("n_scatterers", 50), "target.n_scatterers")
    if n_scatterers < 1:
        raise ConfigError("target.n_scatterers must be >= 1")
    section = TargetSection(
        n_scatterers=n_scatterers,
        center_range_m=_as_number(s.take("center_range_m", 1.0e4), "target.center_range_m"),
        extent_m=_as_number(s.take("extent_m", 10.0), "target.extent_m"),
        reflectivity=_as_number(s.take("reflectivity", 1.0), "target.reflectivity"),
        seed=seed,
        scatterers=scatterers,
    )
    s.finish()
    return section


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (one JSON document)."""

    kind: str
    seed: int = 0
    runs: int = 1
    workers: int = 1
    out_dir: str = "results"
    pulse: PulseSpec | None = None
    scenario: ScenarioSpec | None = None
    ga: GAConfig | None = None
    weight_ga: GAConfig | None = None
    phase_ga: GAConfig | None = None
    target: TargetSection | None = None
    baseline: str = "random"
    alphabet: int | None = None
    bits_per_var: int = 18
    sparsity: float = 1.0
    pmepr_max: float | None = None
    threshold_samples: int = 1000
    snapshot_every: int = 100
    n_random: int | None = None
    carrier_hz: float = 0.0
    weight_bounds: tuple[float, float] = (0.01, 10.0)

    def out_path(self) -> Path:
        return Path(self.out_dir) / self.kind


class KindKeys(NamedTuple):
    """The keys one experiment kind reads besides kind, seed, runs, workers
    and out_dir; a key that another kind reads is an error for this one."""

    sections: tuple[str, ...]  # required
    keys: tuple[str, ...] = ()  # optional
    masked: bool = True  # replicas score pulses over a SparsityMask (N >= 2)


KIND_KEYS = {
    "dimension": KindKeys(("scenario",), masked=False),
    "synthesize": KindKeys(("pulse",), ("baseline", "alphabet", "sparsity")),
    "evaluate": KindKeys(("pulse",), ("baseline", "alphabet", "sparsity")),
    "baseline": KindKeys(("pulse",), ("baseline", "alphabet", "sparsity")),
    "optimize-pmepr": KindKeys(("pulse", "ga"), ("sparsity", "bits_per_var")),
    "optimize-moo": KindKeys(("pulse", "ga"), ("snapshot_every", "n_random")),
    "optimize-constrained": KindKeys(("pulse", "ga"), ("pmepr_max", "threshold_samples")),
    "illuminate": KindKeys(
        ("pulse", "weight_ga", "phase_ga", "target"),
        ("carrier_hz", "weight_bounds", "bits_per_var"),
        masked=False,
    ),
}
KINDS = tuple(KIND_KEYS)
_KIND_SPECIFIC = {key for k in KIND_KEYS.values() for key in (*k.sections, *k.keys)}


def parse_config(data: dict, kind_override: str | None = None) -> ExperimentConfig:
    """Parse and validate a config dict; every unknown key is an error."""
    s = _Section(data, "config")
    kind = s.take("kind", kind_override)
    if kind is None:
        raise ConfigError("config needs a 'kind' (or pass one via the CLI subcommand)")
    if kind_override is not None and kind != kind_override:
        raise ConfigError(
            f"config kind '{kind}' does not match requested '{kind_override}'"
        )
    if kind not in KINDS:
        raise ConfigError(f"unknown kind '{kind}'; expected one of {list(KINDS)}")
    reads = KIND_KEYS[kind]
    unread = sorted(_KIND_SPECIFIC.intersection(data).difference(reads.sections, reads.keys))
    if unread:
        raise ConfigError(f"kind '{kind}' does not read {unread}")

    runs = _as_int(s.take("runs", 1), "runs")
    if runs < 1:
        raise ConfigError("runs must be >= 1")
    workers = _as_int(s.take("workers", 1), "workers")
    if workers < 1:
        raise ConfigError("workers must be >= 1")

    baseline = s.take("baseline", "random")
    if baseline not in BASELINES:
        raise ConfigError(f"baseline must be one of {list(BASELINES)}")

    alphabet = s.take("alphabet", None)
    if alphabet is not None:
        alphabet = _as_int(alphabet, "alphabet")
        if alphabet < 2:
            raise ConfigError("alphabet must be >= 2")

    sparsity = _as_number(s.take("sparsity", 1.0), "sparsity")
    if not 0 < sparsity <= 1:
        raise ConfigError("sparsity must be in (0, 1]")

    pmepr_max = s.take("pmepr_max", None)
    if pmepr_max is not None:
        pmepr_max = _as_number(pmepr_max, "pmepr_max")
        try:
            ConstraintSpec(pmepr_max)
        except ValueError as exc:
            raise ConfigError(f"invalid pmepr_max: {exc}") from exc

    bounds = s.take("weight_bounds", [0.01, 10.0])
    if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
        raise ConfigError("weight_bounds must be [v_l, v_u] with 0 < v_l < v_u")
    bounds = tuple(_as_number(b, "weight_bounds") for b in bounds)
    if not 0 < bounds[0] < bounds[1]:
        raise ConfigError("weight_bounds must be [v_l, v_u] with 0 < v_l < v_u")

    n_random = s.take("n_random", None)
    if n_random is not None:
        n_random = _as_int(n_random, "n_random")
        if n_random < 1:
            raise ConfigError("n_random must be >= 1")

    threshold_samples = _as_int(s.take("threshold_samples", 1000), "threshold_samples")
    if threshold_samples < 0:
        raise ConfigError("threshold_samples must be >= 0")
    snapshot_every = _as_int(s.take("snapshot_every", 100), "snapshot_every")
    if snapshot_every < 1:
        raise ConfigError("snapshot_every must be >= 1")
    carrier_hz = _as_number(s.take("carrier_hz", 0.0), "carrier_hz")
    if carrier_hz < 0:
        raise ConfigError("carrier_hz must be >= 0")

    pulse = s.take("pulse", None)
    scenario = s.take("scenario", None)
    ga = s.take("ga", None)
    weight_ga = s.take("weight_ga", None)
    phase_ga = s.take("phase_ga", None)
    target = s.take("target", None)

    cfg = ExperimentConfig(
        kind=kind,
        seed=_as_int(s.take("seed", 0), "seed"),
        runs=runs,
        workers=workers,
        out_dir=str(s.take("out_dir", "results")),
        pulse=_parse_pulse(pulse) if pulse is not None else None,
        scenario=_parse_scenario(scenario) if scenario is not None else None,
        ga=_parse_ga(ga, "ga") if ga is not None else None,
        weight_ga=_parse_ga(weight_ga, "weight_ga") if weight_ga is not None else None,
        phase_ga=_parse_ga(phase_ga, "phase_ga") if phase_ga is not None else None,
        target=_parse_target(target) if target is not None else None,
        baseline=baseline,
        alphabet=alphabet,
        bits_per_var=_as_int(s.take("bits_per_var", 18), "bits_per_var"),
        sparsity=sparsity,
        pmepr_max=pmepr_max,
        threshold_samples=threshold_samples,
        snapshot_every=snapshot_every,
        n_random=n_random,
        carrier_hz=carrier_hz,
        weight_bounds=bounds,
    )
    s.finish()

    for section in reads.sections:
        if getattr(cfg, section) is None:
            raise ConfigError(f"kind '{kind}' requires a '{section}' section")
    if kind == "illuminate" and cfg.pulse.n_symbols != 1:
        raise ConfigError("kind 'illuminate' designs single-symbol pulses (n_symbols 1)")
    # a sparsity mask keeps both extreme subcarriers
    if reads.masked and cfg.pulse.n_subcarriers < 2:
        raise ConfigError(f"kind '{kind}' needs pulse.n_subcarriers >= 2")
    # a key the kind does not read is at its default, so these checks pass
    if cfg.sparsity < 1 and int(round(cfg.pulse.n_subcarriers * cfg.sparsity)) < 2:
        raise ConfigError(
            f"sparsity {cfg.sparsity} keeps fewer than 2 of {cfg.pulse.n_subcarriers} subcarriers"
        )
    if cfg.baseline == "newman" and cfg.pulse.n_symbols > 1:
        raise ConfigError("baseline 'newman' is defined for single-symbol pulses (n_symbols 1)")
    if cfg.pmepr_max is None and cfg.threshold_samples < MIN_THRESHOLD_SAMPLES:
        raise ConfigError(
            f"threshold_samples must be >= {MIN_THRESHOLD_SAMPLES} to derive "
            "pmepr_max from the random-code PMEPR distribution"
        )
    if cfg.bits_per_var < 1 or cfg.bits_per_var > 30:
        raise ConfigError("bits_per_var must be in 1..30")
    return cfg


def read_config(path: str | Path) -> dict:
    """The JSON object in the config file at ``path``, not yet validated."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


def load_config(path: str | Path, kind_override: str | None = None) -> ExperimentConfig:
    return parse_config(read_config(path), kind_override)
