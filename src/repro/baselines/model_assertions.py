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

*appear* and *flicker* are predicates over one row per track carrying
:func:`track_frame_columns`, as are the consistency candidates over the
track statistics; only *multibox*, which compares same-frame boxes, is a
DataFrame transform over the tracked observations.
"""
from __future__ import annotations

from pyspark.sql import Column, DataFrame
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


def track_frame_columns() -> list[Column]:
    """Per-track aggregates of the model's frame sequence, as aggregate
    Columns over a track's observations: ``track_n_frames`` distinct
    model frames and ``track_frame_span`` frames from the first to the
    last. Only model observations count; a track without one has
    ``track_n_frames`` 0 and a null span."""
    frame = F.when(F.col("source") == SOURCE_MODEL, F.col("frame_id"))
    return [
        F.countDistinct(frame).alias("track_n_frames"),
        (F.max(frame) - F.min(frame) + 1).alias("track_frame_span"),
    ]


def appear() -> Column:
    """The *appear* assertion's violation over :func:`track_frame_columns`
    rows: the model saw the track in at most two frames."""
    return F.col("track_n_frames") <= 2


def flicker() -> Column:
    """The *flicker* assertion's violation over :func:`track_frame_columns`
    rows: the model's frame sequence has holes (appears, disappears,
    reappears)."""
    return F.col("track_frame_span") > F.col("track_n_frames")


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
