"""``tools/bench_record.py`` at a self-test size, with HEAD as its own parent:
the file it writes holds every end-to-end metric of ``BENCHMARK.json`` for
each side, finite, with a verdict; and no gain is claimed from fewer than
ten pairs."""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def in_git_checkout() -> bool:
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                              capture_output=True).returncode == 0
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not in_git_checkout(), reason="the recorder reads the parent from git")
def test_recorder_writes_every_end_to_end_metric(tmp_path):
    out = tmp_path / "BENCH.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "bench_record.py"), "--parent", "HEAD",
                    "--workloads", "desk-normal", "--pairs", "1", "--seconds", "0.5",
                    "--size", "tiny", "--out", str(out)], check=True, capture_output=True)
    record = json.loads(out.read_text())
    entry = record["workloads"]["desk-normal"]
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(entry["metrics"]) == {spec["name"] for spec in specs}
    for metric in entry["metrics"].values():
        values = metric["parent"] + metric["change"] + [metric["parent_median"],
                                                        metric["change_median"]]
        assert len(values) == 4 and all(math.isfinite(v) for v in values)
        assert metric["verdict"] in ("improved", "no worse", "worse", "unresolved")
    assert entry["failed"] == {"parent": [0], "change": [0]}
    assert min(entry["attempted"]["parent"] + entry["attempted"]["change"]) > 0
    assert entry["run_env"]["numpy"] and entry["run_env"]["nproc"] >= 1
    assert len(record["change"]["src_sha256"]) == 64


@pytest.mark.parametrize("pairs, word", [(9, "no worse"), (10, "improved")])
def test_gain_is_claimed_from_ten_pairs(pairs, word):
    parent = [1.0 + 0.01 * i for i in range(pairs)]
    change = [0.5 * v for v in parent]
    assert bench_record.verdict(parent, change, 1.0, 0.25, False) == (pairs, word)
