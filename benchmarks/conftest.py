"""Benchmark fixtures: paper-scale datasets prepared once per session.

Benchmarks run the experiment drivers at the paper's full scale (Lyft:
46 eval scenes, internal: 13) — preparation (generation, distribution
learning, association) is shared across benchmarks via session fixtures
so each benchmark times its experiment's dataflow, and single-round
pedantic mode keeps wall-clock sane (each round is a full Spark job).
"""
import os

import pytest

from repro.eval import harness

#: Paper scale.
BENCH_SCALE = 1.0

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(scope="session")
def record_result():
    """Persist each benchmark's experiment numbers to
    ``benchmarks/results/<name>.json`` (pytest captures stdout, so the
    printed JSON lines are not enough for EXPERIMENTS.md readers)."""
    import json

    os.makedirs(RESULTS_DIR, exist_ok=True)

    def _record(name: str, result: dict) -> None:
        with open(os.path.join(RESULTS_DIR, f"{name}.json"), "w") as f:
            json.dump(result, f, indent=2, default=float)

    return _record


@pytest.fixture(scope="session")
def prep_lyft(spark):
    return harness.prepare(spark, "lyft", BENCH_SCALE)


@pytest.fixture(scope="session")
def prep_internal(spark):
    return harness.prepare(spark, "internal", BENCH_SCALE)
