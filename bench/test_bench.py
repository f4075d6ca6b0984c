"""Smoke tests for the benchmark itself; no wall-time gates.

    python -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import cycle_count
from workloads import SMOKE_CYCLE_S, WORKLOADS, make_workload

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root: Path, workload: str, trace: int, seed: int = 7) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 3
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert "mech_csv_sha256" in proc.stdout


def test_calls_are_fixed_before_the_run():
    # The cycle count follows from --seconds and the workload, not the
    # clock: a warm-up cycle plus the timed ones, three calls each.
    proc = run_bench(ROOT, "grid-stripes", 0)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] == 3 * (1 + cycle_count(SMOKE_CYCLE_S, 0.2, smoke=True))
    assert cycle_count(5.0, 16, smoke=False) == 3
    assert cycle_count(7.5, 1, smoke=False) == 3


def test_deep_path_round_trip_defect_is_counted():
    # verify rejects build's own 12-digit CSV on deep paths; the benchmark
    # counts those calls as failed instead of hiding them. The 400-node
    # smoke path hits the defect on seed 3 (the 50k-node path on most seeds).
    proc = run_bench(ROOT, "deep-path", 0, seed=3)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert 0 < result["failed"] < result["attempted"]
    assert "failed_share" in proc.stdout


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "grid-stripes", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_follow_the_seed(workload):
    assert make_workload(workload, 3)[1] == make_workload(workload, 3)[1]
    assert make_workload(workload, 3)[1] != make_workload(workload, 4)[1]


def test_tracer_restores_the_program():
    sys.path.insert(0, str(ROOT / "src"))
    import rainbowdp.cli.main
    import rainbowdp.mechanism
    from tracing import Tracer

    before = rainbowdp.mechanism.verify_dp, rainbowdp.cli.main.verify_dp
    tracer = Tracer()
    tracer.install()
    try:
        assert rainbowdp.mechanism.verify_dp is not before[0]
        assert rainbowdp.cli.main.verify_dp is not before[1]
        assert rainbowdp.cli.main.main(["demo-no-optimal", "--homogenized"]) == 0
        assert tracer.counts["core.simplex_vectors"] > 0
        assert any(span[0] == "mechanism.verify_dp" for span in tracer.spans)
    finally:
        tracer.uninstall()
    assert (rainbowdp.mechanism.verify_dp, rainbowdp.cli.main.verify_dp) == before
