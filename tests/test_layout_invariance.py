"""Layout invariance: every §8 result is the same under any legal
physical layout of the data (DESIGN.md §7).

Computes the five result dicts of ``jobs/reproduce.py`` at scale 0.05
in the default session, then again under each layout below, and asserts
that every dict is equal:

- one shuffle partition, adaptive query execution off;
- 64 shuffle partitions, broadcast joins on (10 MB threshold);
- the default settings with every generated input frame reordered by
  descending ``scene_id`` and ``obs_id`` after the ids are assigned.

Partition count, AQE and broadcast decide how rows are split and in
which order each step sees them, so a tie broken by arrival order, or
a window or rank without a total order, shows up here as a changed
dict. Each layout reruns everything from data generation on.

The default-layout pass is also the test suite's one run of the whole
reproduction, so the shape of its five dicts is checked here.
"""
import json

import pytest
from pyspark.sql import functions as F

from jobs import reproduce
from jobs._common import get_spark
from repro.perception import datasets

SCALE = 0.05

LAYOUTS = {
    "1-partition-no-aqe": (
        {"spark.sql.shuffle.partitions": "1", "spark.sql.adaptive.enabled": "false"},
        False,
    ),
    "64-partitions-broadcast": (
        {
            "spark.sql.shuffle.partitions": "64",
            "spark.sql.autoBroadcastJoinThreshold": str(10 * 1024 * 1024),
        },
        False,
    ),
    "reordered-rows": ({}, True),
}


def _results(spark) -> dict:
    # Cached frames of an earlier layout must not stand in for this one's.
    spark.catalog.clearCache()
    return dict(reproduce.results(spark, SCALE))


@pytest.fixture(scope="module")
def default_results(spark) -> dict:
    return _results(spark)


def test_default_results_shape(default_results):
    assert list(default_results) == [
        "table3_lyft", "table3_internal", "recall", "missing_obs", "model_errors"
    ]
    # As jobs/reproduce.py prints them.
    results = [json.loads(json.dumps(r, default=float)) for r in default_results.values()]
    assert [r["dataset"] for r in results[:2]] == ["lyft", "internal"]
    for table3 in results[:2]:
        assert table3["fixy_p10"] is not None
        assert 0.0 <= table3["fixy_p10"] <= 1.0


def test_get_spark_derives_shuffle_partitions(spark):
    s = get_spark("repro")
    assert s.conf.get("spark.sql.shuffle.partitions") == str(
        2 * s.sparkContext.defaultParallelism
    )


@pytest.mark.parametrize("layout", LAYOUTS)
def test_results_equal_under_layout(spark, default_results, monkeypatch, layout):
    settings, reorder = LAYOUTS[layout]
    if reorder:
        to_spark = datasets._to_spark

        def reordered(*args, **kwargs):
            return to_spark(*args, **kwargs).orderBy(F.desc("scene_id"), F.desc("obs_id"))

        monkeypatch.setattr(datasets, "_to_spark", reordered)
    old = {key: spark.conf.get(key) for key in settings}
    try:
        for key, value in settings.items():
            spark.conf.set(key, value)
        got = _results(spark)
    finally:
        for key, value in old.items():
            spark.conf.set(key, value)
    assert got == default_results
