"""Reproduce every §8 result: Table 3 on both datasets, §8.2 recall on
the audited internal scene, §8.3 missing observation within a track and
§8.4 novel model-prediction errors. Each dataset is prepared once.

Usage: spark-submit jobs/reproduce.py [scale]
"""
import sys

sys.path.insert(0, ".")
from jobs._common import emit, get_spark  # noqa: E402

from repro.eval import harness  # noqa: E402


def results(spark, scale: float):
    """Yield ``(title, result dict)`` for every §8 experiment at ``scale``."""
    lyft = harness.prepare(spark, "lyft", scale)
    internal = harness.prepare(spark, "internal", scale)
    yield "Table 3 — lyft", harness.run_missing_tracks_prepared(spark, lyft, "lyft")
    yield "Table 3 — internal", harness.run_missing_tracks_prepared(spark, internal, "internal")
    yield "§8.2 recall (audited internal scene)", harness.run_recall(spark, internal)
    yield "§8.3 missing observation within track", harness.run_missing_obs(spark, lyft)
    yield "§8.4 novel model-prediction errors", harness.run_model_errors(spark, lyft)


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    spark = get_spark("reproduce")
    for title, result in results(spark, scale):
        emit(title, result)


if __name__ == "__main__":
    main()
