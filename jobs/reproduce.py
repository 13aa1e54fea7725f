"""Reproduce every §8 result: Table 3 on both datasets, §8.2 recall on
the audited internal scene, §8.3 missing observation within a track and
§8.4 novel model-prediction errors. Each dataset is prepared once.

A paper-scale run (scale 1.0, the default) also records each result dict
as ``benchmarks/results/<name>.json``, the files ``EXPERIMENTS.md``
cites; a reduced-scale run only prints.

Usage: spark-submit jobs/reproduce.py [scale]
"""
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
from jobs._common import emit, get_spark  # noqa: E402

from repro.eval import harness  # noqa: E402

RESULTS_DIR = os.path.join(ROOT, "benchmarks", "results")


def results(spark, scale: float):
    """Yield ``(name, result dict)`` for every §8 experiment at ``scale``;
    ``name`` is the stem of the experiment's results file."""
    lyft = harness.prepare(spark, "lyft", scale)
    internal = harness.prepare(spark, "internal", scale)
    yield "table3_lyft", harness.run_missing_tracks_prepared(spark, lyft, "lyft")
    yield "table3_internal", harness.run_missing_tracks_prepared(spark, internal, "internal")
    yield "recall", harness.run_recall(spark, internal)
    yield "missing_obs", harness.run_missing_obs(spark, lyft)
    yield "model_errors", harness.run_model_errors(spark, lyft)


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    spark = get_spark("reproduce")
    for name, result in results(spark, scale):
        emit(name, result)
        if scale == 1.0:
            with open(os.path.join(RESULTS_DIR, f"{name}.json"), "w") as f:
                json.dump(result, f, indent=2, default=float)


if __name__ == "__main__":
    main()
