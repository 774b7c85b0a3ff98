"""The timing tools run end to end on this tree and print their JSON."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ["evaluator_speed.py", "nsga2_speed.py", "sga_speed.py"]


def run_tool(tool: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / tool), str(ROOT / "src"), *args],
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("tool", TOOLS)
def test_two_rounds_report_quartiles(tool):
    done = run_tool(tool, "--rounds", "2")
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)[str(ROOT / "src")]
    timings = report.values() if tool == "evaluator_speed.py" else [report]
    for timing in timings:
        # sga_speed.py also counts the evaluator rows each generation scores
        extra = {"rows_per_generation"} if tool == "sga_speed.py" else set()
        assert set(timing) == {"median_us", "q1_us", "q3_us"} | extra
        assert 0 < timing["median_us"]
    if tool == "sga_speed.py":
        # P = 12 keeps 6, so at most 6 offspring rows reach the evaluator
        assert 0 < report["rows_per_generation"] <= 6


@pytest.mark.parametrize("tool", TOOLS)
def test_one_round_is_a_usage_error(tool):
    done = run_tool(tool, "--rounds", "1")
    assert done.returncode == 2
    assert "--rounds must be >= 2" in done.stderr
