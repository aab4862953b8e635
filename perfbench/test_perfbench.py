"""Tests of the benchmark itself; run with ``python -m pytest perfbench`` from the repository root."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import expected_metrics  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_mode_checks_outputs_and_schema(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"]
    assert [r["attempted"] for r in summary["results"]] == [2 if trace == "1" else 1] * 3


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rmt_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.spans[0] = [
        ["cli", 0.0, 10.0, None],
        ["htsr.analyze_snapshot", 1.0, 9.0, 0],
        ["esd.compute_esd", 2.0, 5.0, 1],
        ["esd.compute_esd", 5.0, 8.0, 1],
    ]
    tracer.spans[0] += [["cli", 10.0, 11.0, None]]  # a second CLI call of the same op
    tracer.counters[0] = {"esd.compute_esd.mb": 1.5}
    names = [name for name in expected_metrics(True) if name != "trace.overhead_s"]
    metrics = tracer.op_metrics(0, names)
    assert set(metrics) == set(names)
    assert metrics["trace.op_s"] == 11.0
    assert metrics["cli.self_s"] == 3.0
    assert metrics["htsr.analyze_snapshot.self_s"] == 2.0
    assert metrics["esd.compute_esd.s"] == 6.0
    assert metrics["esd.compute_esd.calls"] == 2
    assert metrics["esd.compute_esd.mb"] == 1.5
