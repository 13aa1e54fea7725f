"""Hand-crafted ad-hoc model assertions from Kang et al. [11].

The paper's baselines (§8.2, §8.4):

- **consistency**: for finding labels missed by humans — a temporally
  consistent set of model predictions with no matching human label
  suggests a missing label. Candidates are model-only tracks with at
  least two observations; the MA has no principled severity score, so
  the paper orders candidates either randomly ("Ad-hoc MA (rand)") or
  by model confidence ("Ad-hoc MA (conf)").
- **appear**: "an observation should have observations in nearby
  timestamps" — flags tracks of at most two observations.
- **flicker**: "an observation should not appear and disappear rapidly"
  — flags tracks with missing timestamps (gaps in the frame sequence).
- **multibox**: "3 boxes should not overlap" — flags tracks containing
  an observation that overlaps at least two other same-frame model
  boxes.

The flags are DataFrame transforms over the tracked observation set;
the consistency candidates are a filter over per-track aggregates.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.association.iou import iou_expr
from repro.core.schema import SOURCE_MODEL

#: Same-frame model boxes overlapping above this IOU count toward multibox.
MULTIBOX_IOU_THRESHOLD = 0.1


def consistency_candidates(tracks: DataFrame) -> DataFrame:
    """Model-only tracks with >= 2 observations, with the two ad-hoc
    orderings attached.

    ``tracks`` holds one row per track with the
    :func:`repro.core.features.track_stat_columns` (``track_stats`` of
    the tracked observations, or a wider per-track aggregate). Returns
    its candidate rows, every column kept, plus ``rand_order``: a
    deterministic pseudo-random key (hash of the track id) implementing
    the paper's random ordering reproducibly. ``track_mean_conf`` is the
    confidence ordering.
    """
    return tracks.where(
        (F.col("track_has_human") == 0) & (F.col("track_n_obs") >= 2)
    ).withColumn("rand_order", F.xxhash64(F.col("track_id")))


def appear_flags(obs_tracked: DataFrame) -> DataFrame:
    """Tracks violating the *appear* assertion (<= 2 observations)."""
    model = obs_tracked.where(F.col("source") == SOURCE_MODEL)
    return (
        model.groupBy("scene_id", "track_id")
        .agg(F.countDistinct("frame_id").alias("n"))
        .where(F.col("n") <= 2)
        .select("scene_id", "track_id")
    )


def flicker_flags(obs_tracked: DataFrame) -> DataFrame:
    """Tracks violating the *flicker* assertion: the model's frame
    sequence has holes (appears, disappears, reappears)."""
    model = obs_tracked.where(F.col("source") == SOURCE_MODEL)
    return (
        model.groupBy("scene_id", "track_id")
        .agg(
            F.countDistinct("frame_id").alias("n"),
            (F.max("frame_id") - F.min("frame_id") + 1).alias("span"),
        )
        .where(F.col("span") > F.col("n"))
        .select("scene_id", "track_id")
    )


def multibox_flags(obs_tracked: DataFrame) -> DataFrame:
    """Tracks violating the *multibox* assertion: a model box overlapping
    >= 2 other model boxes in the same frame above IOU
    :data:`MULTIBOX_IOU_THRESHOLD`."""
    model = obs_tracked.where(F.col("source") == SOURCE_MODEL)
    a = model.select(
        "scene_id", "frame_id", "track_id",
        *[F.col(c).alias("a_" + c) for c in ("obs_id", "cx", "cy", "cz", "length", "width", "height")],
    )
    b = model.select(
        "scene_id", "frame_id",
        *[F.col(c).alias("b_" + c) for c in ("obs_id", "cx", "cy", "cz", "length", "width", "height")],
    )
    pairs = (
        a.join(b, on=["scene_id", "frame_id"])
        .where(F.col("a_obs_id") != F.col("b_obs_id"))
        .withColumn("iou", iou_expr("a_", "b_"))
        .where(F.col("iou") > MULTIBOX_IOU_THRESHOLD)
    )
    return (
        pairs.groupBy("scene_id", "track_id", "a_obs_id")
        .agg(F.count("*").alias("n_partners"))
        .where(F.col("n_partners") >= 2)
        .select("scene_id", "track_id")
        .distinct()
    )
