"""Golden outputs: small pinned experiments must reproduce recorded values.

Every CSV cell and JSON value (wall-clock times aside) of each case is
compared with ``golden_outputs.json`` at 1e-12 relative tolerance.  A CSV
cell may also lie within 1e-12 of the peak |value| of its column: a
spectrum's masked-off bins are zero in exact arithmetic and hold rounding
noise some 1e-17 below the in-band peak, which no relative tolerance pins.
The cases cover every kind.

The NSGA-II kinds (``optimize-moo``, ``optimize-constrained``) select on
PSLR/ISLR, so a change that moves those scores in the last bit can break a
near-tie in the non-dominated sort or the crowding and send a run down
another path.  Such a change re-records their cases and says why the
designs are no worse.

Re-record (only for a change that means to alter these outputs, and say so
in CHANGES.md); naming cases records just those and keeps the others::

    PYTHONPATH=src python tests/test_golden.py [case ...]
"""
from __future__ import annotations

import csv
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from ofdmforge.harness import parse_config, run_experiment

GOLDEN = Path(__file__).with_name("golden_outputs.json")
REL_TOL = 1e-12

_PULSE = {"n_subcarriers": 12, "n_symbols": 1, "subcarrier_spacing_hz": 1e5, "oversampling": 4}
_GA = {"population_size": 8, "generations": 30}

CASES = {
    "dimension": {
        "kind": "dimension",
        "scenario": {"target_extent_m": 2.0, "margin_m": 1.0, "min_range_m": 1500.0},
    },
    "synthesize-multisymbol-sparse": {
        "kind": "synthesize", "pulse": {**_PULSE, "n_symbols": 2},
        "sparsity": 0.75, "runs": 2, "seed": 3,
    },
    "evaluate-sparse": {
        "kind": "evaluate", "pulse": _PULSE, "sparsity": 0.75, "runs": 3, "seed": 4,
    },
    "evaluate-multisymbol": {
        "kind": "evaluate", "pulse": {**_PULSE, "n_symbols": 3}, "runs": 2, "seed": 5,
    },
    "baseline-newman-sparse": {
        "kind": "baseline", "pulse": _PULSE, "baseline": "newman",
        "sparsity": 0.75, "runs": 4, "seed": 6,
    },
    "optimize-pmepr-sparse": {
        "kind": "optimize-pmepr", "pulse": _PULSE, "ga": _GA, "bits_per_var": 6,
        "sparsity": 0.75, "runs": 2, "seed": 7,
    },
    "optimize-pmepr-multisymbol": {
        "kind": "optimize-pmepr", "pulse": {**_PULSE, "n_symbols": 2}, "ga": _GA,
        "bits_per_var": 2, "runs": 2, "seed": 8,
    },
    "illuminate": {
        "kind": "illuminate",
        "pulse": {**_PULSE, "subcarrier_spacing_hz": 2e7},
        "carrier_hz": 9e9,
        "target": {"n_scatterers": 6, "center_range_m": 10000.0, "extent_m": 8.0, "seed": 4},
        "weight_ga": {"population_size": 8, "generations": 40},
        "phase_ga": _GA,
        "bits_per_var": 6,
        "runs": 2,
        "seed": 9,
    },
    "optimize-moo-multisymbol": {
        "kind": "optimize-moo", "pulse": {**_PULSE, "n_symbols": 2},
        "ga": {"population_size": 8, "generations": 12}, "snapshot_every": 4,
        "n_random": 5, "runs": 2, "seed": 10,
    },
    "optimize-constrained-fixed-cap": {
        "kind": "optimize-constrained", "pulse": _PULSE, "ga": _GA, "pmepr_max": 4.0,
        "runs": 2, "workers": 2, "seed": 11,
    },
    "optimize-constrained-derived-cap": {
        "kind": "optimize-constrained", "pulse": _PULSE, "ga": _GA,
        "threshold_samples": 100, "runs": 2, "workers": 2, "seed": 12,
    },
}


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _strip_wall_times(value):
    if isinstance(value, dict):
        return {k: _strip_wall_times(v) for k, v in value.items() if k != "wall_time_s"}
    if isinstance(value, list):
        return [_strip_wall_times(v) for v in value]
    return value


def run_case(config: dict, out_dir: Path) -> dict:
    """Run one case; return every artifact keyed by its path under the kind dir."""
    cfg = parse_config({**config, "out_dir": str(out_dir)})
    run_experiment(cfg)
    root = cfg.out_path()
    outputs = {}
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root).as_posix()
        if path.suffix == ".csv":
            with open(path, newline="") as fh:
                outputs[rel] = [[_cell(c) for c in row] for row in csv.reader(fh)]
        elif path.suffix == ".json":
            outputs[rel] = _strip_wall_times(json.loads(path.read_text()))
    return outputs


def mismatches(got, want, where: str = "", abs_tol: float = 0.0) -> list[str]:
    """Places where ``got`` differs from ``want`` beyond REL_TOL relative
    and, for a number, beyond ``abs_tol`` absolute."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"]
        return [m for k in want for m in (csv_mismatches if k.endswith(".csv") else mismatches)(
            got[k], want[k], f"{where}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=abs_tol) or (math.isnan(got) and math.isnan(want)):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def csv_mismatches(got, want: list, where: str) -> list[str]:
    """``mismatches`` of a CSV's rows, where each cell may also lie within
    REL_TOL times the peak finite |value| of its column."""
    if not isinstance(got, list) or len(got) != len(want):
        return [f"{where}: length differs"]
    peaks = [0.0] * max(map(len, want), default=0)
    for row in want:
        for j, cell in enumerate(row):
            if isinstance(cell, float) and math.isfinite(cell):
                peaks[j] = max(peaks[j], abs(cell))
    problems = []
    for i, (got_row, want_row) in enumerate(zip(got, want)):
        if not isinstance(got_row, list) or len(got_row) != len(want_row):
            problems.append(f"{where}[{i}]: length differs")
            continue
        for j, (g, w) in enumerate(zip(got_row, want_row)):
            problems += mismatches(g, w, f"{where}[{i}][{j}]", REL_TOL * peaks[j])
    return problems


def test_column_floor_passes_noise_and_pins_the_band():
    case = json.loads(GOLDEN.read_text())["synthesize-multisymbol-sparse"]
    rows = case["0/spectrum.csv"]
    peak = max(abs(row[1]) for row in rows[1:])
    masked = next(i for i in range(1, len(rows)) if 0 < rows[i][1] < 1e-15 * peak)
    in_band = next(i for i in range(1, len(rows)) if rows[i][1] > 0.5 * peak)

    def changed(i, value):
        return {**case, "0/spectrum.csv": [
            [row[0], value] if k == i else row for k, row in enumerate(rows)
        ]}

    # rounding noise in a masked-off bin, even 3x its recorded value
    assert mismatches(changed(masked, rows[masked][1] * 3 + 1e-20), case) == []
    # a 1e-9 relative change of an in-band bin
    assert mismatches(changed(in_band, rows[in_band][1] * (1 + 1e-9)), case) != []
    # JSON values keep the pure relative check
    assert mismatches({"a.csv": [["x"], [2e-20], [1.0]]}, {"a.csv": [["x"], [1e-20], [1.0]]}) == []
    assert mismatches({"a.json": [2e-20, 1.0]}, {"a.json": [1e-20, 1.0]}) != []


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_recorded_values(name, tmp_path):
    want = json.loads(GOLDEN.read_text())[name]
    got = run_case(CASES[name], tmp_path)
    problems = mismatches(got, want)
    assert not problems, "\n".join(problems[:20])


if __name__ == "__main__":
    names = sys.argv[1:] or sorted(CASES)
    recorded = json.loads(GOLDEN.read_text()) if sys.argv[1:] else {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in names:
            recorded[case] = run_case(CASES[case], Path(tmp) / case)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"recorded {len(names)} cases in {GOLDEN}\n")
