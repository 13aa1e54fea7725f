"""Feature transforms over observation DataFrames (paper §5.1).

The paper's four feature types and the concrete features of Table 2:

- observation features: class-conditional **volume**, **distance** to AV;
- bundle features: **model only** (selects bundles with model
  predictions only);
- transition features: class-conditional **velocity** (estimated by box
  center offset between adjacent timesteps in a track);
- track features: **count** (filters tracks with two or fewer
  observations).

Each is a pure ``DataFrame -> DataFrame``/aggregation expressed in the
Spark SQL API so feature computation scales with partitions; the
per-row math is Catalyst expressions, the transition feature a window
function.

Volume and velocity are the *learned* features: :data:`LEARNED_FEATURES`
names them and :func:`with_learned_features` computes them, for both
distribution learning (§5.2) and scoring (§6).
"""
from __future__ import annotations

from pyspark.sql import Column, DataFrame, Window
from pyspark.sql import functions as F

from repro.core.schema import SOURCE_HUMAN, SOURCE_MODEL


def with_volume(df: DataFrame) -> DataFrame:
    """Observation feature: box volume (§3's worked example —
    ``vol = box.width * box.height * box.length``)."""
    return df.withColumn("volume", F.col("length") * F.col("width") * F.col("height"))


def with_distance(df: DataFrame) -> DataFrame:
    """Observation feature: planar distance from the AV (at the origin)."""
    return df.withColumn(
        "distance", F.sqrt(F.col("cx") * F.col("cx") + F.col("cy") * F.col("cy"))
    )


def with_velocity(df: DataFrame) -> DataFrame:
    """Transition feature: instantaneous speed from box-center offsets
    between adjacent observations of the same source within a track
    (§4.2: "a transition feature for the estimated instantaneous
    velocity").

    The first observation of each (track, source) has no predecessor and
    gets a null ``velocity`` — nulls contribute no factor when scoring.
    """
    w = Window.partitionBy("track_id", "source").orderBy("frame_id")
    dx = F.col("cx") - F.lag("cx").over(w)
    dy = F.col("cy") - F.lag("cy").over(w)
    dt = F.col("t") - F.lag("t").over(w)
    return df.withColumn(
        "velocity", F.when(dt > 0, F.sqrt(dx * dx + dy * dy) / dt)
    )


#: Features with a learned class-conditional distribution (Table 2), in
#: the column names :func:`with_learned_features` gives them.
LEARNED_FEATURES = ("volume", "velocity")


def with_learned_features(df: DataFrame) -> DataFrame:
    """Attach every column of :data:`LEARNED_FEATURES`."""
    return with_velocity(with_volume(df))


def track_stat_columns() -> list[Column]:
    """Track-level aggregates used by AOF filters and baselines, as
    aggregate Columns over a track's observations.

    ``track_n_obs`` feeds the *count* track feature (filter tracks with
    two or fewer observations); ``track_has_human`` feeds the
    missing-track AOF (zero any track containing a human proposal);
    ``track_mean_conf`` feeds the confidence-ordered baseline and
    ``track_max_conf`` the §8.4 report of the most confident error found.
    """
    model_conf = F.when(F.col("source") == SOURCE_MODEL, F.col("confidence"))
    return [
        F.count("*").alias("track_n_obs"),
        F.max((F.col("source") == SOURCE_HUMAN).cast("int")).alias("track_has_human"),
        F.avg(model_conf).alias("track_mean_conf"),
        F.max(model_conf).alias("track_max_conf"),
    ]


def track_stats(df: DataFrame) -> DataFrame:
    """One row per ``(scene_id, track_id)`` of ``df`` with the
    :func:`track_stat_columns`."""
    return df.groupBy("scene_id", "track_id").agg(*track_stat_columns())
