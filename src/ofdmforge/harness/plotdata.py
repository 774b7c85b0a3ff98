"""Plot-data emission: the experiments' cross-run CSV files.

Every figure-style output of the experiments is a plain CSV so plotting
stays outside the package.  Each replica hands over its rows for each
aggregate file of its kind, and an aggregate file is the runs' rows in run
order: for pareto.csv and constrained.csv every run's, for envelope.csv,
spectrum.csv and illumination.csv run 0's alone.  convergence.csv is the
one exception: it is the pointwise mean of the runs' traces.
"""
from __future__ import annotations

import contextlib
import csv
import itertools
import os
from pathlib import Path

import numpy as np

from ..evolve import ConvergenceTrace

TRACE_HEADER = ("generation", "best", "mean")


@contextlib.contextmanager
def atomic_open(path: Path | str, newline: str | None = None):
    """Open ``path`` for writing through a sibling temporary file that
    replaces it on a clean exit, so a failed or killed writer never leaves a
    partial file at ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_csv(path: Path | str, header: tuple, rows) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def trace_rows(trace: ConvergenceTrace):
    return zip(range(len(trace)), trace.best.tolist(), trace.mean.tolist())


def write_trace(path: Path | str, trace: ConvergenceTrace) -> None:
    write_csv(path, TRACE_HEADER, trace_rows(trace))


def aggregate(traces: list[ConvergenceTrace]) -> ConvergenceTrace:
    """Pointwise mean of per-run traces (best and mean curves)."""
    if not traces:
        raise ValueError("no traces to aggregate")
    lengths = {len(t) for t in traces}
    if len(lengths) != 1:
        raise ValueError(f"ragged traces: lengths {sorted(lengths)}")
    return ConvergenceTrace(
        best=np.mean([t.best for t in traces], axis=0),
        mean=np.mean([t.mean for t in traces], axis=0),
    )


def emit_plot_data(runs: list, name: str, header: tuple, out_dir: Path | str) -> None:
    """Write the aggregate file ``name`` into the existing ``out_dir`` from
    what the runs handed over for it, in run order: their traces for
    convergence.csv, their rows for any other file."""
    if name == "convergence.csv":
        runs = [trace_rows(aggregate(runs))]
    write_csv(Path(out_dir) / name, header, itertools.chain.from_iterable(runs))
