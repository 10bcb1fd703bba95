"""Smoke test of the benchmark itself, each workload at a tiny size.

Run from the repository root with `python3 -m pytest bench/test_smoke.py -q`.
"""

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY_TRACE_OPS = {"transient": 2, "tracking": 40, "certify": 10}


def _corrupt_transient(out):
    report = dataclasses.replace(out.report, hypotheses_hold=True, conclusion_margin=-1e300)
    return dataclasses.replace(out, report=report)


def _corrupt_tracking(out):
    diag = dataclasses.replace(out.diag, fallback=False, eq6_residual=1e-3)
    return dataclasses.replace(out, diag=diag)


def _corrupt_certify(reports):
    first = dataclasses.replace(reports[0], hypotheses_hold=True, conclusion_margin=-1.0)
    return (first, *reports[1:])


CORRUPT = {"transient": _corrupt_transient, "tracking": _corrupt_tracking,
           "certify": _corrupt_certify}


def test_spec_names_match_the_code():
    assert WORKLOADS == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.E2E_UNITS)
    import tracing
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.UNITS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_corrupted_output_counts_as_failed(name):
    workload = run.load_workloads().WORKLOADS[name](3)
    clean = run.run_ops(workload, count=3)
    assert (clean["attempted"], clean["failed"]) == (3, 0)

    workload = run.load_workloads().WORKLOADS[name](3)
    op = workload.op
    workload.op = lambda i: CORRUPT[name](op(i)) if i == 1 else op(i)
    corrupted = run.run_ops(workload, count=3)
    assert (corrupted["attempted"], corrupted["failed"]) == (3, 1)
    # The corrupted op no longer matches a clean replay of it.
    assert corrupted["digests"][1] != clean["digests"][1]
    assert corrupted["digests"][::2] == clean["digests"][::2]


@pytest.mark.parametrize("name", WORKLOADS)
def test_passes_replay_every_op(name):
    workload = run.load_workloads().WORKLOADS[name](4, size=4)
    clean = run.run_ops(workload, seconds=0.0, min_passes=2)
    assert (clean["passes"], clean["attempted"], clean["failed"]) == (2, 8, 0)
    assert clean["mismatched"] == []
    assert sorted(i for i, _, _ in clean["timings"]) == [0, 0, 1, 1, 2, 2, 3, 3]
    # An op whose second run differs from its first makes the run incorrect.
    workload = run.load_workloads().WORKLOADS[name](4, size=4)
    clean_op, runs = workload.op, {}

    def op(i):
        runs[i] = runs.get(i, 0) + 1
        out = clean_op(i)
        return CORRUPT[name](out) if i == 2 and runs[i] > 1 else out

    workload.op = op
    drifting = run.run_ops(workload, seconds=0.0, min_passes=2)
    assert drifting["mismatched"] == [2] and drifting["failed"] == 1


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_counts_repeat_exactly(name, monkeypatch):
    module = run.load_workloads()
    monkeypatch.setattr(module.WORKLOADS[name], "trace_ops", TINY_TRACE_OPS[name])
    args = argparse.Namespace(workload=name, seed=5, size=None)
    originals = (module.lqr.solve_dare, module.lqr.riccati.solve_dare,
                 module.lqr.estimation.solve_dare, np.linalg.norm,
                 module.lqr.PlantModel.__post_init__)
    first, info, correct, _ = run.measure_traced(args, module.WORKLOADS[name](5), module)
    second, _, _, _ = run.measure_traced(args, module.WORKLOADS[name](5), module)
    assert correct and info["failed"] == 0
    assert list(first) == [m["name"] for m in SPEC["per_layer"]]
    counts = [k for k in first if not k.endswith("self_s") and k != "trace.overhead_ratio"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["riccati.riccati_step.calls"] > 0
    # The tracer restored every function it wrapped.
    assert originals == (module.lqr.solve_dare, module.lqr.riccati.solve_dare,
                         module.lqr.estimation.solve_dare, np.linalg.norm,
                         module.lqr.PlantModel.__post_init__)


def test_last_line_is_the_json_result():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "certify",
                           "--seed", "2", "--seconds", "0.3", "--trace", "0", "--size", "27"],
                          capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify",
                           "--seed", "2", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
