"""Smoke test of the benchmark on a tiny corpus.

Run from the root of a checkout:

    python3 -m pytest -q benchmark/smoke.py

Each workload runs untraced and traced on 200 passages. Every run must print
every metric BENCHMARK.json names for its mode, with its unit, and finish
with no failed operation and no network attempt.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_no_errors(workload: str, trace: str) -> None:
    done = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", trace, "--passages", "200",
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads("\n".join(lines[:-1]))

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert report["error_rate"] == 0.0
    assert report["network_attempts"] == 0

    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert math.isfinite(printed["value"])

    assert report["samples"]["query"] >= 100
    assert report["samples"]["append"] >= 100
    if workload == "graph-query":
        assert report["graph_path_share"] >= 0.9


def test_fails_without_the_sources() -> None:
    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(bare, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
