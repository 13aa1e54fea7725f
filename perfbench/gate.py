"""Result gate: compare each experiment's dict with a stored reference.

References live in ``reference.json`` next to this file, keyed by
workload, seed and application. No run writes that file: ``record.py``
rewrites it only when asked. (``benchmarks/results/`` is not read,
because ``pytest benchmarks/`` overwrites it on every run.) The
``internal_paper`` seed-0 Table 3 entry equals the committed
``benchmarks/results/table3_internal.json``.

A seed without a stored reference is checked against invariants every
correct Table 3 result satisfies; other applications need a reference. A result that differs from its reference in
any digit, for instance a tie broken differently between runs, is a
failure.
"""
from __future__ import annotations

import json
import math
import traceback
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

TABLE3_KEYS = {
    "dataset", "n_scenes_with_errors", "fixy_scene_hit_rate",
    *(f"{m}_p{k}" for m in ("fixy", "ma_rand", "ma_conf") for k in (10, 5, 1)),
}


def normalise(result: dict) -> dict:
    """The dict as JSON stores it (numpy scalars become Python numbers)."""
    return json.loads(json.dumps(result, default=float))


def load_references() -> dict:
    with open(REFERENCE_FILE) as f:
        return json.load(f)


def reference_for(refs: dict, workload: str, seed: int, app: str) -> dict | None:
    return refs.get(workload, {}).get(str(seed), {}).get(app)


def invariant_problems(app: str, result: dict, dataset: str, n_scenes: int) -> list[str]:
    if app != "table3":
        return [f"no invariants for application {app!r}"]
    problems = []
    if set(result) != TABLE3_KEYS:
        problems.append(f"keys {sorted(set(result) ^ TABLE3_KEYS)} differ")
        return problems
    if result["dataset"] != dataset:
        problems.append(f"dataset {result['dataset']!r} != {dataset!r}")
    n = result["n_scenes_with_errors"]
    limit = 1 if dataset == "internal" else n_scenes
    if not isinstance(n, int) or not 1 <= n <= limit:
        problems.append(f"n_scenes_with_errors {n!r} outside 1..{limit}")
    for k in sorted(TABLE3_KEYS - {"dataset", "n_scenes_with_errors"}):
        v = result[k]
        if not isinstance(v, (int, float)) or not math.isfinite(v) or not 0.0 <= v <= 1.0:
            problems.append(f"{k} = {v!r} is not a fraction")
    return problems


def check(refs: dict, workload: str, seed: int, app: str, result: dict,
          dataset: str, n_scenes: int) -> tuple[str, list[str]]:
    """Return ``(how, problems)``: ``how`` is ``reference`` or ``invariants``."""
    got = normalise(result)
    ref = reference_for(refs, workload, seed, app)
    if ref is None:
        return "invariants", invariant_problems(app, got, dataset, n_scenes)
    problems = [
        f"{k}: got {got.get(k)!r}, reference {ref.get(k)!r}"
        for k in sorted(set(got) | set(ref))
        if got.get(k) != ref.get(k)
    ]
    return "reference", problems


class Gate:
    """Counts experiments attempted and failed, with the reason for each failure."""

    def __init__(self, workload: str, dataset: str, seed: int, n_scenes: int,
                 compare: bool = True):
        """With ``compare`` false, only experiments that raise fail."""
        self.refs = load_references()
        self.compare = compare
        self.workload, self.dataset, self.seed, self.n_scenes = workload, dataset, seed, n_scenes
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.checked_by: set[str] = set()

    def run(self, app: str, call) -> dict | None:
        self.attempted += 1
        try:
            result = call()
        except Exception:  # an experiment that raises is a failed experiment
            traceback.print_exc()
            self.failed += 1
            self.problems.append(f"{app}: raised")
            return None
        if not self.compare:
            return result
        how, problems = check(self.refs, self.workload, self.seed, app, result,
                              self.dataset, self.n_scenes)
        self.checked_by.add(how)
        if problems:
            self.failed += 1
            self.problems += [f"{app}: {p}" for p in problems]
        return result
