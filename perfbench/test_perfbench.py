"""Self-test of the benchmark at tiny sizes:

    python3 -m pytest perfbench/test_perfbench.py -q

Each test runs ``perfbench/run.py`` end to end in a subprocess.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("desk-normal", "top-lognormal", "suite-t2")
TIMEOUT = 180


def run_bench(workload, trace, seed=7, extra=(), cwd=ROOT, script=None):
    script = script or os.path.join(HERE, "run.py")
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    tagged = {line.split(" ", 1)[0]: json.loads(line.split(" ", 1)[1])
              for line in lines[:-1] if line.split(" ", 1)[0] in ("env", "detail", "trace")}
    return json.loads(lines[-1]), tagged


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_metric_names_match_benchmark_json(spec, workload, trace):
    result, tagged = parse(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert tagged["trace"]["untraced"] == []
    else:
        assert tagged["env"]["x_bytes_computed_from_shape"] > 0


def test_workloads_declared(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", ("desk-normal", "suite-t2"))
def test_injected_failure_is_counted_not_fatal(workload):
    result, tagged = parse(run_bench(workload, 0, extra=("--inject-failure",)))
    assert result["failed"] == 1
    assert result["attempted"] > 1
    assert result["correct"] is True
    failures = [f for op in tagged["detail"]["ops"].values() for f in op["failures"]]
    assert failures == ["SketchlsError: injected failure"]


def test_same_seed_same_iterations():
    first = [parse(run_bench("desk-normal", 1, seed=5)) for _ in range(2)]
    (res_a, tag_a), (res_b, tag_b) = first
    for method in ("ihs", "acc-ihs", "pw-gradient", "aopt-ihs"):
        name = f"solvers.{method}.iters"
        assert res_a["metrics"][name]["value"] > 0
        assert res_a["metrics"][name] == res_b["metrics"][name]
        iters_a = tag_a["detail"]["ops"][method]["iters"]
        iters_b = tag_b["detail"]["ops"][method]["iters"]
        common = min(len(iters_a), len(iters_b))
        assert iters_a[:common] == iters_b[:common]
    assert tag_a["detail"]["rounds"] >= 1


def test_same_seed_same_suite_csv_bytes():
    digests = [parse(run_bench("suite-t2", 0, seed=5))[1]["detail"]["csv_sha256"]
               for _ in range(2)]
    assert digests[0][0] == digests[1][0]
    other = parse(run_bench("suite-t2", 0, seed=6))[1]["detail"]["csv_sha256"]
    assert other[0] != digests[0][0]


def test_fails_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("desk-normal", 0, cwd=tmp_path,
                     script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
