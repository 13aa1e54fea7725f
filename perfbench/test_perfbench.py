"""Tests of the benchmark itself: tiny-scale runs of the runner plus the gate.

    python3 -m pytest perfbench -q

The two runs (untraced and traced) take about two minutes on four cores.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
from tracing import TARGETS
from workloads import SEED_FIELDS, SEED_STRIDE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=400,
    )


def last_two_lines(out: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


@pytest.fixture(scope="module")
def untraced_run():
    return last_two_lines(run(ROOT, "--workload", "tiny", "--seed", "0", "--seconds", "1", "--trace", "0"))


@pytest.fixture(scope="module")
def traced_run():
    result, info = last_two_lines(run(ROOT, "--workload", "tiny", "--seed", "0", "--seconds", "1", "--trace", "1"))
    return result, json.loads((ROOT / info["trace_file"]).read_text())


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_metric_present_with_its_unit(untraced_run, traced_run, spec):
    untraced = untraced_run[0]["metrics"]
    assert {n: m["unit"] for n, m in untraced.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert all(m["value"] > 0 for m in untraced.values())
    assert {n: m["unit"] for n, m in traced_run[0]["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }


def test_no_experiment_failed(untraced_run, traced_run):
    for result, info in (untraced_run, traced_run):
        # The warm-up pass and at least one pass on the workload's inputs.
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        assert info["checked_by"] == ["reference"] and info["warmup_s"] > 0
    assert untraced_run[0]["metrics"]["passed_frac"]["value"] == 1.0
    assert traced_run[1]["untraced_pipeline_s"] > 0 and traced_run[1]["untraced_source"]


def test_child_spans_lie_inside_their_parents(traced_run):
    _, trace = traced_run
    spans = {s["id"]: s for s in trace["spans"]}
    assert {name for _, _, name, _ in TARGETS} | {"kde.fit"} <= {s["name"] for s in spans.values()}
    nested = 0
    for s in spans.values():
        assert s["run_id"] == trace["run_id"]
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            p = spans[s["parent"]]
            assert p["start"] <= s["start"] and s["end"] <= p["end"], (p, s)
            nested += 1
    assert nested >= len(TARGETS)


def test_gate_counts_any_changed_digit():
    refs = {"w": {"0": {"table3": {"fixy_p10": 0.5, "dataset": "lyft"}}}}
    ok = gate.check(refs, "w", 0, "table3", {"fixy_p10": 0.5, "dataset": "lyft"}, "lyft", 2)
    assert ok == ("reference", [])
    how, problems = gate.check(refs, "w", 0, "table3", {"fixy_p10": 0.5000001, "dataset": "lyft"}, "lyft", 2)
    assert how == "reference" and problems


def test_gate_checks_invariants_without_a_reference():
    refs = gate.load_references()
    for name, seeds in refs.items():
        w = WORKLOADS[name]
        for results in seeds.values():
            if "table3" in results:
                assert gate.invariant_problems("table3", results["table3"], w.dataset, 46) == []
    stored = refs["tiny"]["0"]["table3"]
    assert gate.check({}, "tiny", 7, "table3", stored, "lyft", 2) == ("invariants", [])
    bad = {**stored, "fixy_p10": 1.5}
    how, problems = gate.check({}, "tiny", 7, "table3", bad, "lyft", 2)
    assert how == "invariants" and problems


def test_seed_moves_all_five_config_seeds(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from repro.perception.datasets import lyft_config

    from workloads import config_seeds, shift_seeds

    base = lyft_config(0.05)
    assert shift_seeds(base, 0) == base
    moved = config_seeds(shift_seeds(base, 3))
    assert moved == {f: s + 3 * SEED_STRIDE for f, s in config_seeds(base).items()}
    assert set(moved) == set(SEED_FIELDS)


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    shutil.copy(HERE / "reference.json", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run(tmp_path, "--workload", "tiny", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
