"""Quick-size smoke test of the benchmark harness itself.

Runs every workload of ``BENCHMARK.json`` at ``--size quick`` for one
second, untraced and traced, and checks the output contract: every
metric the file names is emitted with its unit, the results are
correct, and both modes cover the same workloads.  Run with::

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results() -> dict:
    return {(workload, trace): run_bench(workload, trace)
            for workload in WORKLOAD_NAMES for trace in (0, 1)}


def test_harness_registers_exactly_the_benchmark_workloads():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import LAYER_METRICS, WORKLOADS

    assert sorted(WORKLOADS) == sorted(WORKLOAD_NAMES)
    assert [m["name"] for m in SPEC["per_layer"]] == list(LAYER_METRICS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(results, trace, section):
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    for workload in WORKLOAD_NAMES:
        result = results[(workload, trace)]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        emitted = {name: metric["unit"]
                   for name, metric in result["metrics"].items()}
        assert emitted == expected, workload
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name


def test_traced_and_untraced_runs_cover_the_same_workloads(results):
    untraced = {workload for workload, trace in results if trace == 0}
    traced = {workload for workload, trace in results if trace == 1}
    assert untraced == traced == set(WORKLOAD_NAMES)


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1", "--trace",
         "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
