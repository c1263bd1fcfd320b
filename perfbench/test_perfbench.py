"""The benchmark's own test: every workload at smoke size, traced and not.

Run from the root of the repository:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1"]
    cmd += ["--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_declared_metrics(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert info["outcomes"]["wrong"] == 0
    assert result["failed"] == info["outcomes"]["known-fault"]
    # a classify-mix round is 35 operations, the known faults among them
    assert result["failed"] * 35 == result["attempted"] * len(info["known_faults"])
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert {"nproc", "python", "numpy", "git_commit", "source_sha256"} <= set(info["machine"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_same_zspan():
    basis = [(1 + 0j, 0j), (0j, 1 + 0j)]
    assert oracle.same_zspan([(1, 0), (1, 1), (0, 1)], basis)
    assert not oracle.same_zspan([(2, 0), (0, 1)], basis)  # index 2
    assert not oracle.same_zspan([(0.5, 0), (0, 1)], basis)  # not inside


def test_uaff_model_is_a_homomorphism():
    g, h, x = (0.3 + 1j, -0.2 + 0.5j), (1.1 - 0.4j, 0.7j), (-0.6 + 0.2j, 1.5 + 0j)
    assert oracle.rel_dist(oracle.act_uaff(oracle.uaff_mul(g, h), x), oracle.act_uaff(g, oracle.act_uaff(h, x))) < 1e-12
    assert oracle.rel_dist(oracle.uaff_mul(g, oracle.uaff_inv(g)), (0j, 0j)) < 1e-12
