"""Per-layer tracing from outside the program.

``Tracer`` wraps the public functions named in ``TRACED`` for the duration of
a ``with`` block.  A module that did ``from .x import y`` holds its own
binding of ``y``, so the wrapper replaces every binding of the original
function object in every loaded ``ofdmforge`` module, and puts each back on
exit.  A span's self time is its duration minus the durations of the traced
spans it called; spans are folded into per-function totals as they close.
"""
from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# <layer>.<function> for every traced function; the layer is the module path
# below ``ofdmforge``.
TRACED = (
    "waveform.synthesize",
    "evolve.decode_phases",
    "metrics.pmepr",
    "metrics.autocorrelation",
    "metrics.pslr",
    "metrics.islr",
    "pareto.nsga2",
    "pareto.nondominated_sort",
    "pareto.crowding_distance",
    "evolve.sga_minimize",
    "evolve.continuous_minimize",
    "phasing.random_phases",
    "illumination.optimize_weights",
    "illumination.two_step_pipeline",
    "harness.plotdata.write_csv",
    "harness.plotdata.emit_plot_data",
    "harness.config.load_config",
    "harness.runner.run_experiment",
)


def _package_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "ofdmforge" or name.startswith("ofdmforge."))
    ]


class Tracer:
    """Call counts and self times of the ``TRACED`` functions inside a ``with`` block."""

    def __init__(self):
        self.calls = dict.fromkeys(TRACED, 0)
        self.self_s = dict.fromkeys(TRACED, 0.0)
        self.bindings: list[tuple[str, str]] = []
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return traced

    def __enter__(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for name in TRACED:
            module_name, attr = name.rsplit(".", 1)
            fn = getattr(importlib.import_module(f"ofdmforge.{module_name}"), attr)
            wrappers[id(fn)] = (fn, self._span(name, fn))
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
                    self.bindings.append((module.__name__, attr))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in self._saved:
            setattr(module, attr, value)
        self._saved.clear()
