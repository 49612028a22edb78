"""Self-test of the benchmark at reduced sizes (not part of the tier-1 suite).

Run with: python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _files(top: Path) -> dict:
    return {str(p.relative_to(top)): p.read_bytes() for p in sorted(top.rglob("*")) if p.is_file()}


def _bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_trace_leaves_reports_byte_identical(workload, tmp_path):
    runner = run.Runner(workload, 3, True, tmp_path, deadline=time.perf_counter() + 170)
    plain = runner.spawn(0)
    traced = runner.spawn(0, trace=True)
    assert "crash" not in plain and "crash" not in traced
    assert plain["verdicts"] == traced["verdicts"] == [None] * len(plain["errors"])
    plain_files, traced_files = _files(Path(plain["out"])), _files(Path(traced["out"]))
    assert plain_files and plain_files == traced_files
    assert traced["layers"]["experiments.run_experiment.calls"] == len(plain["errors"])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", trace, "--small")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert sum(line.startswith("digest ") for line in lines) == 8
    assert any(line.startswith("error_rate ") for line in lines)


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "pcf_d3", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_inputs_follow_seed_and_run_index():
    for name in workloads.WORKLOADS:
        assert workloads.configs(name, 11, 2) == workloads.configs(name, 11, 2)
    first = workloads.configs("pcf_d3", 1, 0)
    assert first != workloads.configs("pcf_d3", 2, 0)
    assert first != workloads.configs("pcf_d3", 1, 1)
