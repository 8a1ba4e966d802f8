"""Smoke test of the benchmark: every workload at a tiny length.

Run from the repository root:

    python3 -m pytest -q benchmarks/tests

Each workload runs for one second in both modes, prints every metric that
BENCHMARK.json names with its unit, and passes its output check. A
perturbed reference value must make the check fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
BENCH_DIR = REPO / "benchmarks"
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())

sys.path[:0] = [str(BENCH_DIR), str(REPO / "src")]

import bench  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def run_cli(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def test_spec_workloads_are_defined():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_prints_every_metric_and_passes(workload, trace):
    out = run_cli("--workload", workload, "--seed", str(DEFAULT_SEED),
                  "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stdout
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert "output check: PASS against stored references" in out.stdout


@pytest.mark.parametrize("key, delta", [("final_loss", 1e-6),
                                        ("eval_seq_error", 3 / 512),
                                        ("mean_steps", 0.02)])
def test_perturbed_reference_fails_the_check(key, delta):
    reference = dict(WORKLOADS["parity-small"].reference)
    reference[key] += delta
    result = bench.run("parity-small", DEFAULT_SEED, 0.5, False, reference)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_without_package_source_exits_nonzero(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", ".work",
                                                  "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    out = run_cli("--workload", "parity-small", "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
