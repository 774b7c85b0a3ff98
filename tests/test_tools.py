"""The layer-timing tool runs end to end on this tree and prints its JSON."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# evaluator probes and the genomes per block each reports
BLOCK_ROWS = {
    "pmepr N=100 K=1 L=20": 40, "objectives N=100 K=1 L=20": 40,
    "pmepr N=100 K=1 L=20 P=1000": 40, "pmepr N=100 K=1 L=20 P=6": 40,
    "pmepr N=125 K=4 L=20": 8, "objectives N=125 K=4 L=20": 8,
    "objectives N=25 K=4 L=20": 40,
}
PROBES = [
    *BLOCK_ROWS, "nsga2", "rank_and_crowd", "sga_phases", "sga_phases full band",
    "continuous_minimize",
]


def run_tool(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "layer_speed.py"), str(ROOT / "src"), *args],
        capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def report() -> dict:
    done = run_tool("--rounds", "2")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)[str(ROOT / "src")]


def test_two_rounds_report_every_probe(report):
    assert list(report) == PROBES


@pytest.mark.parametrize("probe", PROBES)
def test_two_rounds_report_quartiles(report, probe):
    timing = {
        k: v for k, v in report[probe].items() if k not in ("rows_per_generation", "block_rows")
    }
    assert set(timing) == {"median_us", "q1_us", "q3_us", "minor_faults"}
    assert 0 < timing["median_us"]
    assert timing["q1_us"] <= timing["median_us"] <= timing["q3_us"]
    assert timing["minor_faults"] >= 0


def test_sga_phases_counts_rows_per_generation(report):
    assert [p for p in PROBES if "rows_per_generation" in report[p]] == ["sga_phases"]
    # P = 12 keeps 6, so at most 6 offspring rows reach the evaluator
    assert 0 < report["sga_phases"]["rows_per_generation"] <= 6


def test_evaluator_probes_report_block_rows(report):
    assert {p: report[p]["block_rows"] for p in PROBES if "block_rows" in report[p]} == BLOCK_ROWS


def test_one_round_is_a_usage_error():
    done = run_tool("--rounds", "1")
    assert done.returncode == 2
    assert "--rounds must be >= 2" in done.stderr
