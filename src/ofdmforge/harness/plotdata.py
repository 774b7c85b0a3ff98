"""Plot-data emission: turn run payloads into flat CSV files.

Every figure-style output of the experiments is a plain CSV so plotting
stays outside the package.  Schemas:

* convergence  -> convergence.csv   (generation, best, mean), runs averaged
* pareto       -> pareto.csv        (pmepr, pslr_db, source in {optimized, random})
* envelope     -> envelope.csv      (t_s, abs)
* spectrum     -> spectrum.csv      (f_hz, magnitude)
* constrained  -> constrained.csv   (run_id, pmepr, pslr_db, islr_db, compliant)
* illumination -> illumination.csv  (n, reflectivity_norm_abs, w_opt)
"""
from __future__ import annotations

import contextlib
import csv
import os
from pathlib import Path

from ..errors import ConfigError

PLOT_KINDS = (
    "convergence",
    "pareto",
    "envelope",
    "spectrum",
    "constrained",
    "illumination",
)


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


def emit_plot_data(payloads: list[dict], kind: str, out_dir: Path | str) -> list[Path]:
    """Write the plot CSV(s) for one experiment's collected run payloads."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if kind == "convergence":
        from .runner import aggregate  # local import: runner imports this module

        agg = aggregate([p["trace"] for p in payloads])
        path = out / "convergence.csv"
        write_csv(
            path,
            ("generation", "best", "mean"),
            zip(range(len(agg)), agg.best.tolist(), agg.mean.tolist()),
        )
        return [path]

    if kind == "pareto":
        rows = []
        for p in payloads:
            for pm, ps, *_ in p["front"]:
                rows.append((pm, ps, "optimized"))
            for pm, ps, *_ in p["random"]:
                rows.append((pm, ps, "random"))
        path = out / "pareto.csv"
        write_csv(path, ("pmepr", "pslr_db", "source"), rows)
        return [path]

    if kind == "envelope":
        p = payloads[0]
        path = out / "envelope.csv"
        write_csv(
            path,
            ("t_s", "abs"),
            zip(p["times_s"].tolist(), p["envelope"].tolist()),
        )
        return [path]

    if kind == "spectrum":
        p = payloads[0]
        path = out / "spectrum.csv"
        write_csv(
            path,
            ("f_hz", "magnitude"),
            zip(p["freqs_hz"].tolist(), p["spectrum"].tolist()),
        )
        return [path]

    if kind == "constrained":
        rows = []
        for p in payloads:
            flag = int(bool(p["compliant"]))
            for pm, ps, il in p["front"]:
                rows.append((p["run_id"], pm, ps, il, flag))
        path = out / "constrained.csv"
        write_csv(path, ("run_id", "pmepr", "pslr_db", "islr_db", "compliant"), rows)
        return [path]

    if kind == "illumination":
        p = payloads[0]
        path = out / "illumination.csv"
        write_csv(
            path,
            ("n", "reflectivity_norm_abs", "w_opt"),
            zip(
                range(len(p["w_opt"])),
                p["reflectivity"].tolist(),
                p["w_opt"].tolist(),
            ),
        )
        return [path]

    raise ConfigError(f"unknown plot kind '{kind}'; expected one of {list(PLOT_KINDS)}")
