"""The benchmark's own checks run in the suite: each workload of
``perfbench/run.py`` at its tiny self-test size must check every output
against its reference and fail no operation."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("desk-normal", "top-lognormal", "suite-t2")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_is_correct(workload):
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--size", "tiny", "--trace", "0", "--seconds", "0.5"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
