"""Shared SparkSession construction for the spark-submit entrypoints.

``jobs/reproduce.py`` is a thin wrapper over :mod:`repro.eval.harness`
functions, which take a SparkSession and return plain dicts — the same
functions the tests and ``perfbench/`` drive.
"""
from __future__ import annotations

import json

from pyspark.sql import SparkSession


def get_spark(app_name: str) -> SparkSession:
    """The Spark SQL settings every entry point shares: the jobs, the
    test fixture and the benchmark.

    Shuffles get ``2 × defaultParallelism`` partitions (8 on 4 cores).
    A pass runs the same jobs at any partition count, but each shuffle
    stage runs one task per partition, and on inputs of this size
    per-task overhead, not data, sets the stage time: on 14 Lyft scenes
    scoring ran the same 13 jobs as 643 tasks at a fixed 64 partitions
    and as 83 tasks at 8. Twice the core count rather than once keeps
    the cores busy when one task runs long. The count is derived, not an
    option.

    Broadcast joins are disabled so joins take the shuffle path at every
    scale; measured at 8 partitions, broadcasting was no faster on Lyft
    and slower on the internal dataset. AQE keeps its default.
    ``tests/test_layout_invariance.py`` checks that every result is the
    same under other partition counts, AQE off, broadcast on and
    reordered input.
    """
    spark = (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.conf.set(
        "spark.sql.shuffle.partitions", str(2 * spark.sparkContext.defaultParallelism)
    )
    return spark


def emit(title: str, result: dict) -> None:
    """Print a result dict as aligned rows plus machine-readable JSON."""
    print(f"== {title} ==")
    for k, v in result.items():
        print(f"  {k:28s} {v}")
    print(json.dumps(result, default=float))
