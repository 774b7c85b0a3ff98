"""Experiment configuration: one strict JSON document per experiment.

Unknown keys are rejected everywhere: a section takes the fields of its
dataclass (a GA section those of ``GASchedule``, or of ``GAConfig`` for the
weight GA), and ``KIND_KEYS`` declares what each kind reads, so a key that
only other kinds read is rejected too.  The kind's required sections must be
present, all before any compute starts.  Every default is its dataclass
field's: the parsers pass on only the keys that are present, then
range-check the result.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from functools import partial
from pathlib import Path
from typing import NamedTuple

from ..design import SPEED_OF_LIGHT, ScenarioSpec, dimension_pulse
from ..errors import ConfigError, InvalidScenarioError
from ..evolve import GAConfig, GASchedule
from ..pareto import MIN_THRESHOLD_SAMPLES, ConstraintSpec
from ..phasing import BASELINES
from ..waveform import PulseSpec


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


def _as_str(value: object, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"'{name}' must be a string, got {value!r}")
    return value


def _as_pair(value: object, name: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"'{name}' must be a pair of numbers, got {value!r}")
    return (_as_number(value[0], name), _as_number(value[1], name))


def _as_pairs(value: object, name: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"'{name}' must be a list of pairs, got {value!r}")
    return tuple(_as_pair(pair, name) for pair in value)


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

    def __post_init__(self) -> None:
        if self.n_scatterers < 1:
            raise ValueError("n_scatterers must be >= 1")
        if self.seed is not None and self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.scatterers == ():
            raise ValueError("scatterers must hold at least one [reflectivity, range_m]")
        if self.scatterers is not None:
            if any(refl < 0 or range_m <= 0 for refl, range_m in self.scatterers):
                raise ValueError("each scatterer needs reflectivity >= 0 and range_m > 0")
            if sum(refl for refl, _ in self.scatterers) <= 0:
                raise ValueError("the scatterers' reflectivities must sum to > 0")
        elif self.reflectivity <= 0 or self.extent_m < 0:
            raise ValueError("reflectivity must be > 0 and extent_m >= 0")
        elif self.center_range_m - self.extent_m / 2 <= 0:
            raise ValueError("the box's nearest range, center_range_m - extent_m / 2, must be > 0")


def _build(cls, data: object, name: str, **defaults):
    """A ``cls`` from the keys present in ``data`` (over ``defaults``); each
    other field keeps its dataclass default.  A value is cast by its field's
    annotation (None passes where it admits None), and a ValueError from
    ``cls`` becomes a ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError(f"'{name}' must be a JSON object")
    data = {**defaults, **data}
    types = {f.name: f.type for f in fields(cls)}
    unknown = sorted(set(data).difference(types))
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {unknown}")
    for f in fields(cls):
        if f.default is MISSING and f.name not in data:
            raise ConfigError(f"missing required key '{f.name}' in {name}")
    values = {}
    for key, value in data.items():
        optional = types[key].endswith(" | None")
        cast = _CASTS[types[key].removesuffix(" | None")]
        label = key if name == "config" else f"{name}.{key}"
        values[key] = None if optional and value is None else cast(value, label)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid {name}: {exc}") from exc


_CASTS = {
    "int": _as_int,
    "float": _as_number,
    "str": _as_str,
    "tuple[float, float]": _as_pair,
    "tuple[tuple[float, float], ...]": _as_pairs,
    **{cls.__name__: partial(_build, cls)
       for cls in (PulseSpec, TargetSection, GASchedule, GAConfig)},
    # margin_m sits between ScenarioSpec's required fields, so has no field default
    "ScenarioSpec": lambda value, name: _build(ScenarioSpec, value, name, margin_m=0.0),
}


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
    ga: GASchedule | None = None
    weight_ga: GAConfig | None = None
    phase_ga: GASchedule | None = None
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
        ("pulse", "target", "weight_ga", "phase_ga"),
        ("carrier_hz", "weight_bounds", "bits_per_var"),
        masked=False,
    ),
}
KINDS = tuple(KIND_KEYS)
_KIND_SPECIFIC = {key for k in KIND_KEYS.values() for key in (*k.sections, *k.keys)}


def parse_config(data: dict, kind_override: str | None = None) -> ExperimentConfig:
    """Parse and validate a config dict; every unknown key is an error."""
    if not isinstance(data, dict):
        raise ConfigError("'config' must be a JSON object")
    kind = data.get("kind", kind_override)
    if kind is None:
        raise ConfigError("config needs a 'kind' (or pass one via the CLI subcommand)")
    if kind_override is not None and kind != kind_override:
        raise ConfigError(
            f"config kind '{kind}' does not match requested '{kind_override}'"
        )
    if kind not in KINDS:
        raise ConfigError(f"unknown kind '{kind}'; expected one of {list(KINDS)}")
    reads = KIND_KEYS[kind]
    unread = _KIND_SPECIFIC.intersection(data).difference(reads.sections, reads.keys)
    if unread:
        raise ConfigError(f"kind '{kind}' does not read {sorted(unread)}")

    cfg = _build(ExperimentConfig, {**data, "kind": kind}, "config")
    v_l, v_u = cfg.weight_bounds
    for ok, message in (
        (cfg.runs >= 1, "runs must be >= 1"),
        (cfg.workers >= 1, "workers must be >= 1"),
        (cfg.baseline in BASELINES, f"baseline must be one of {list(BASELINES)}"),
        # the generator draws alphabet indices as int64
        (cfg.alphabet is None or 2 <= cfg.alphabet <= 2**63, "alphabet must be in 2..2**63"),
        (0 < cfg.sparsity <= 1, "sparsity must be in (0, 1]"),
        (0 < v_l < v_u, "weight_bounds must be [v_l, v_u] with 0 < v_l < v_u"),
        (cfg.n_random is None or cfg.n_random >= 1, "n_random must be >= 1"),
        (cfg.threshold_samples >= 0, "threshold_samples must be >= 0"),
        (cfg.snapshot_every >= 1, "snapshot_every must be >= 1"),
        (cfg.carrier_hz >= 0, "carrier_hz must be >= 0"),
        (1 <= cfg.bits_per_var <= 30, "bits_per_var must be in 1..30"),
    ):
        if not ok:
            raise ConfigError(message)
    if cfg.pmepr_max is not None:
        try:
            ConstraintSpec(cfg.pmepr_max)
        except ValueError as exc:
            raise ConfigError(f"invalid pmepr_max: {exc}") from exc

    for section in reads.sections:
        if getattr(cfg, section) is None:
            raise ConfigError(f"kind '{kind}' requires a '{section}' section")
    if kind == "dimension":
        try:  # cheap arithmetic: a scenario that admits no subcarriers fails here
            dimension_pulse(cfg.scenario)
        except InvalidScenarioError as exc:
            raise ConfigError(f"invalid scenario: {exc}") from exc
    if kind == "illuminate":
        if cfg.pulse.n_symbols != 1:
            raise ConfigError("kind 'illuminate' designs single-symbol pulses (n_symbols 1)")
        n, t = cfg.pulse.n_subcarriers, cfg.target
        # the weight GA sums v^2 g over genes v in [v_l, v_u], and sum g = N^2
        if not math.isfinite(n * n * v_u * v_u) or v_l * v_l == 0:
            raise ConfigError(f"weight_bounds {[v_l, v_u]} overflow or underflow when squared")
        # the largest target phase 4*pi*f*R/c: top subcarrier, farthest
        # scatterer (the far edge of a random box)
        r_max = max(r for _, r in t.scatterers or [(0, t.center_range_m + t.extent_m / 2)])
        f_max = cfg.carrier_hz + n * cfg.pulse.subcarrier_spacing_hz
        if not math.isfinite(4 * math.pi * f_max * r_max / SPEED_OF_LIGHT):
            raise ConfigError(f"carrier_hz {cfg.carrier_hz} overflows the phase 4*pi*f*R/c")
        # the spectrum's power sum |s_n|^2 is at most N (sum_i sqrt(sigma_i))^2
        try:
            amp = (sum(math.sqrt(refl) for refl, _ in t.scatterers) if t.scatterers
                   else t.n_scatterers * math.sqrt(t.reflectivity))
            power = n * amp * amp
        except OverflowError:  # an n_scatterers beyond the float range
            power = math.inf
        if not math.isfinite(power):
            raise ConfigError("the target's reflectivity spectrum power overflows")
    # a sparsity mask keeps both extreme subcarriers
    if reads.masked and cfg.pulse.n_subcarriers < 2:
        raise ConfigError(f"kind '{kind}' needs pulse.n_subcarriers >= 2")
    # a key the kind does not read is at its default, so these checks pass
    if cfg.sparsity < 1 and int(round(cfg.pulse.n_subcarriers * cfg.sparsity)) < 2:
        raise ConfigError(
            f"sparsity {cfg.sparsity} keeps fewer than 2 of {cfg.pulse.n_subcarriers} subcarriers"
        )
    if cfg.alphabet is not None and cfg.baseline != "random":
        raise ConfigError(f"alphabet sets random phases only; baseline {cfg.baseline!r} has none")
    if cfg.baseline == "newman" and cfg.pulse.n_symbols > 1:
        raise ConfigError("baseline 'newman' is defined for single-symbol pulses (n_symbols 1)")
    if cfg.pmepr_max is None and cfg.threshold_samples < MIN_THRESHOLD_SAMPLES:
        raise ConfigError(
            f"threshold_samples must be >= {MIN_THRESHOLD_SAMPLES} to derive "
            "pmepr_max from the random-code PMEPR distribution"
        )
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
