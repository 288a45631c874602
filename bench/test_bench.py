"""The benchmark's own test: every workload at smoke size, every check.

    python3 -m pytest bench/test_bench.py -q

Each workload runs twice with one seed; the runs must pass their checks and
write byte-identical dataset.jsonl, policy.json and traces.jsonl. A traced
run must report every per-layer metric BENCHMARK.json names, and the
benchmark must refuse to run where the program's sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ARTIFACTS = ("dataset.jsonl", "policy.json", "traces.jsonl")


def _run(workload: str, work: Path, trace: int = 0, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke", "--work", str(work)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_checks_pass_and_artifacts_repeat(workload, tmp_path):
    outputs = []
    for attempt in ("a", "b"):
        result = _result(_run(workload, tmp_path / attempt))
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        out = tmp_path / attempt / "setup2" / "out"
        outputs.append({name: (out / name).read_bytes() for name in ARTIFACTS})
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_layer(workload, tmp_path):
    result = _result(_run(workload, tmp_path, trace=1))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = _run("pipeline", tmp_path / "work", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
