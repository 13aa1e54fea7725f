"""Reproduce every §8 result: Table 3 on both datasets, §8.2 recall on
the audited internal scene, §8.3 missing observation within a track and
§8.4 novel model-prediction errors. Each dataset is prepared once.

Usage: spark-submit jobs/reproduce.py [scale]
"""
import sys

sys.path.insert(0, ".")
from jobs._common import emit, get_spark  # noqa: E402

from repro.eval import harness  # noqa: E402


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    spark = get_spark("reproduce")
    lyft = harness.prepare(spark, "lyft", scale)
    internal = harness.prepare(spark, "internal", scale)
    emit("Table 3 — lyft", harness.run_missing_tracks_prepared(spark, lyft, "lyft"))
    emit("Table 3 — internal", harness.run_missing_tracks_prepared(spark, internal, "internal"))
    emit("§8.2 recall (audited internal scene)", harness.run_recall(spark, internal))
    emit("§8.3 missing observation within track", harness.run_missing_obs(spark, lyft))
    emit("§8.4 novel model-prediction errors", harness.run_model_errors(spark, lyft))


if __name__ == "__main__":
    main()
