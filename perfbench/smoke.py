"""Smoke test of the benchmark itself, at a tiny size.

Run from the root of the repository (the default test run does not
collect it: it starts the benchmark 25 times, about 15 s on two cores):

    python3 -m pytest -q perfbench/smoke.py

It runs every workload for a few commands with tracing off and on, and
checks that every metric named in BENCHMARK.json is printed with its
unit, that traced and untraced runs print byte-identical outputs, and that
a wrong recorded digest is counted as a failed command.  Scratch files go
under `.perfbench/` in the repository.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COMMANDS = 3
SCRATCH = ROOT / ".perfbench" / "smoke"


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(run.DEFAULT_SEED), "--seconds", "0", "--trace", str(trace),
         "--max-commands", str(COMMANDS), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def parsed(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return json.loads(record_line)["record"], result


def assert_metrics(result: dict, specs: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for spec in specs:
        printed = result["metrics"][spec["name"]]
        assert printed["unit"] == spec["unit"], spec["name"]
        assert isinstance(printed["value"], (int, float)), spec["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    record, result = parsed(bench(workload, 0))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == COMMANDS
    assert record["digest_checked"] == COMMANDS
    assert_metrics(result, SPEC["end_to_end"])
    assert result["metrics"]["ok_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_matches_untraced_bytes_and_attributes_layers(workload):
    record, result = parsed(bench(workload, 1))
    assert result["correct"], "traced output differs or a check failed"
    assert record["traced_commands"] == record["cmd_p50_samples"] == COMMANDS
    assert record["traced_mismatches"] == 0
    assert record["absent_functions"] == []
    assert_metrics(result, SPEC["per_layer"])
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    if workload in ("equality", "vanishing"):
        assert layers["tensor.apply_element_calls"] == 0
        assert layers["group_algebra.isotypic_projector_calls"] == 0
    if workload == "oracle":
        assert layers["linalg.rank_calls"] == 0
        assert layers["tensor.apply_element_calls"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_recorded_digest_counts_as_failure(workload):
    stored = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    first = run.plan_commands(workload, run.DEFAULT_SEED, 0, 1)[0]
    key = run.command_key(first)
    assert key in stored["digests"][workload]
    stored["digests"][workload][key] = "0" * 16
    SCRATCH.mkdir(parents=True, exist_ok=True)
    wrong = SCRATCH / f"wrong-{workload}.json"
    wrong.write_text(json.dumps(stored))
    record, result = parsed(bench(workload, 0, "--expected", str(wrong)))
    assert record["failed_frac"] == pytest.approx(1 / COMMANDS)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == COMMANDS
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(1 - 1 / COMMANDS)


def test_command_times_are_divided_by_the_reference_mean_around_them():
    # Host at one speed for the first second, half as fast from t = 5 s.
    reference = [[0.0, 0.002], [0.1, 0.002], [0.2, 0.004], [5.0, 0.004], [5.1, 0.004], [5.2, 0.004]]
    executed = [{"start": 0.05, "seconds": 0.03}, {"start": 5.15, "seconds": 0.04}, {"start": 9.0, "seconds": 0.004}]
    # The first window holds 0.002, 0.002, 0.004; the last command has no
    # sample within the window, so it takes the three nearest.
    assert run.normalized_times(executed, reference) == pytest.approx([11.25, 10.0, 1.0])


def test_refuses_to_run_without_the_program():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
