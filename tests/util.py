"""Shared test helpers: compact observation-row builders and the DuckDB
correctness oracle.

``make_obs_df`` lets tests construct canonical observation DataFrames
from terse dicts — unspecified fields get physically sensible defaults
(a car-sized box at the origin).

``assert_equivalent(spark_df, sql, **tables)`` runs ``sql`` in DuckDB
over ``tables`` and asserts the sorted rows match ``spark_df`` (the
Spark result). This catches wrong results from a rewritten plan or a
custom operator — "it ran" is not "it is correct".

``tables`` may be Spark or pandas DataFrames; Spark inputs are
collected via ``.toPandas()``. Alias every output column identically
on both sides (Spark names ``count(*)`` as ``count(1)``, DuckDB as
``count_star()``) and project to scalar columns — array/map/struct
columns are not orderable so cannot be compared here.
"""
from __future__ import annotations

import duckdb
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.schema import ERR_NONE, OBS_COLUMNS, OBS_SCHEMA

_DEFAULTS = {
    "scene_id": "s0",
    "frame_id": 0,
    "t": None,  # derived from frame_id at 5 Hz unless given
    "source": "model",
    "obs_id": None,  # derived from row position unless given
    "cls": "car",
    "cx": 0.0,
    "cy": 0.0,
    "cz": 0.8,
    "length": 4.5,
    "width": 1.9,
    "height": 1.6,
    "confidence": 0.9,
    "gt_track_id": 0,
    "err_type": ERR_NONE,
}


def make_obs_rows(rows: list[dict]) -> pd.DataFrame:
    """Fill defaults into compact row dicts; returns canonical pandas."""
    full = []
    for i, r in enumerate(rows):
        d = dict(_DEFAULTS, **r)
        if d["t"] is None:
            d["t"] = d["frame_id"] * 0.2
        if d["obs_id"] is None:
            d["obs_id"] = i
        full.append(d)
    pdf = pd.DataFrame(full)[list(OBS_COLUMNS)]
    pdf["frame_id"] = pdf["frame_id"].astype("int32")
    pdf["obs_id"] = pdf["obs_id"].astype("int64")
    pdf["gt_track_id"] = pdf["gt_track_id"].astype("int64")
    return pdf


def make_obs_df(spark: SparkSession, rows: list[dict]) -> DataFrame:
    """Spark observation DataFrame from compact row dicts."""
    return spark.createDataFrame(make_obs_rows(rows), schema=OBS_SCHEMA)


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    # Canonical column order first, then row order by those columns, so
    # two results that differ only in projection order compare equal.
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include=["float", "float64"]).columns:
        pdf[c] = pdf[c].round(6)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def assert_equivalent(spark_df: DataFrame, sql: str, **tables) -> None:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t.toPandas() if isinstance(t, DataFrame) else t)
        expected = con.execute(sql).fetchdf()
    finally:
        con.close()
    got = spark_df.toPandas()
    assert set(expected.columns) == set(got.columns), (
        f"column mismatch: {sorted(got.columns)} vs {sorted(expected.columns)} "
        "— alias every output column identically on both sides"
    )
    pd.testing.assert_frame_equal(
        _canon(got), _canon(expected), check_dtype=False
    )
