"""Smoke test of the harness on tiny runs.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload reports every metric BENCHMARK.json names, with its unit, and
no op fails; the harness refuses to run without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def results(workload: str, trace: int):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["summary"], json.loads(lines[-1])


def assert_metrics(result, declared) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    summary, result = results(workload, trace=0)
    assert_metrics(result, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    six = {"ops_per_s", "op_p50_ms", "op_p90_ms", "error_rate", "setup_s", "peak_rss_mb"}
    assert set(summary["metrics"]) == six
    assert summary["metrics"]["error_rate"]["value"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    summary, result = results(workload, trace=1)
    assert_metrics(result, BENCH["per_layer"])
    assert summary["traced_ops"] >= 1
    assert (ROOT / summary["spans"]).is_file()


def test_refuses_without_package_source():
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("out"))
        proc = run("states8", 0, cwd=Path(bare))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_children():
    sys.path.insert(0, str(HERE))
    import spans

    tracer = spans.Tracer()

    def outer():
        tracer.call("inner", time.sleep, 0.02)
        time.sleep(0.01)

    tracer.call("outer", outer)
    totals = tracer.self_times_ns()
    assert totals["inner"] >= 20e6
    assert 10e6 <= totals["outer"] < 20e6


def test_scale_divides_by_nearby_reference():
    sys.path.insert(0, str(HERE))
    import speed

    ref_ns = speed.REFERENCE_MS * 1e6
    # the machine runs at half speed for the second half: samples and
    # references both double, and the scaled samples do not move
    samples = [10e6] * 20 + [20e6] * 20
    references = [ref_ns] * 20 + [2 * ref_ns] * 20
    scaled = speed.scale(samples, references)
    assert scaled[:16] == [10e6] * 16 and scaled[-16:] == [10e6] * 16
