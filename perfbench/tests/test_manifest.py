"""BENCHMARK.json names exactly the workloads and metrics the command prints."""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

import run
from spans import LAYER_UNITS
from workloads import WORKLOADS

ROOT = Path(run.__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def _metric_units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in MANIFEST[kind]}


def test_manifest_fields():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["perfbench"]
    assert all(set(w) == {"name", "why"} for w in MANIFEST["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in MANIFEST["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in MANIFEST["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    setup = [m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


def test_manifest_matches_the_code():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    assert _metric_units("end_to_end") == run.E2E_UNITS
    assert _metric_units("per_layer") == LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_manifest_metrics(trace):
    cmd = MANIFEST["command"] + ["--workload", "compgen", "--seed", "3",
                                 "--seconds", "0.01", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {k: m["unit"] for k, m in result["metrics"].items()}
    assert printed == _metric_units("per_layer" if trace else "end_to_end")


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    cmd = MANIFEST["command"] + ["--workload", "certify", "--seed", "0",
                                 "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
