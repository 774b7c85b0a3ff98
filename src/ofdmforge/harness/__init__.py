"""Experiment orchestration: configuration, Monte-Carlo runner, CLI."""

from .config import ExperimentConfig, TargetSection, load_config, parse_config
from .runner import RunResult, mix64, run_experiment
from .plotdata import aggregate, emit_plot_data

__all__ = [
    "ExperimentConfig",
    "TargetSection",
    "load_config",
    "parse_config",
    "RunResult",
    "aggregate",
    "mix64",
    "run_experiment",
    "emit_plot_data",
]
