"""Shared SparkSession construction for the spark-submit entrypoints.

Jobs are thin wrappers over :mod:`repro.eval.harness` functions, which
take a SparkSession and return plain dicts — the same functions the
tests and benchmarks drive.
"""
from __future__ import annotations

import json

from pyspark.sql import SparkSession


def get_spark(app_name: str) -> SparkSession:
    """The Spark SQL settings every entry point shares: the jobs, the
    test fixture and the benchmark.

    Broadcast joins are disabled so joins take the shuffle path at every
    scale.
    """
    return (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def emit(title: str, result: dict) -> None:
    """Print a result dict as aligned rows plus machine-readable JSON."""
    print(f"== {title} ==")
    for k, v in result.items():
        print(f"  {k:28s} {v}")
    print(json.dumps(result, default=float))
