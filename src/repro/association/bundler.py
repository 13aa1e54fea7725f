"""Within-frame association of observations into bundles (paper §4.2).

An *observation bundle* groups observations of the same object from
different sources within one time step. Following the paper's default
(§3's ``TrackBundler``), two boxes are associated when their IOU exceeds
0.5; association is resolved to *mutual-best* pairs so one human label
never absorbs two model predictions.

The association is expressed as a Catalyst join: human and model
observations of the same ``(scene_id, frame_id)`` are equi-joined, a
center-distance band-join predicate prunes the pairs that cannot overlap,
the exact IOU is computed as a column expression, and mutual-best
matching is two window ranks. Everything stays in the DataFrame API.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.association.iou import BOX_COLS, iou_expr
from repro.core.schema import SOURCE_HUMAN, SOURCE_MODEL, validate_observations

#: Paper default: ``compute_iou(box1, box2) > 0.5``.
DEFAULT_IOU_THRESHOLD = 0.5
#: Any overlap above this counts for :func:`overlapping_model_obs`.
OVERLAP_IOU_THRESHOLD = 0.05


def _candidate_pairs(obs: DataFrame, iou_threshold: float) -> DataFrame:
    """Human×model pairs of the same ``(scene_id, frame_id)`` whose
    ``iou`` exceeds ``iou_threshold``; a centre band drops the pairs
    that cannot overlap in x or y before the exact IOU is computed."""
    validate_observations(obs)

    def side(source: str, prefix: str) -> DataFrame:
        sel = [F.col(c).alias(prefix + c) for c in ("obs_id", *BOX_COLS)]
        return obs.where(F.col("source") == source).select("scene_id", "frame_id", *sel)

    return (
        side(SOURCE_HUMAN, "h_")
        .join(side(SOURCE_MODEL, "m_"), on=["scene_id", "frame_id"])
        .where(
            (F.abs(F.col("h_cx") - F.col("m_cx")) < (F.col("h_length") + F.col("m_length")) / 2)
            & (F.abs(F.col("h_cy") - F.col("m_cy")) < (F.col("h_width") + F.col("m_width")) / 2)
        )
        .withColumn("iou", iou_expr("h_", "m_"))
        .where(F.col("iou") > iou_threshold)
    )


def match_human_model(
    obs: DataFrame, iou_threshold: float = DEFAULT_IOU_THRESHOLD
) -> DataFrame:
    """Mutual-best human↔model matches per frame.

    Returns:
        DataFrame ``(scene_id, frame_id, h_obs_id, m_obs_id, iou)`` with
        at most one row per human observation and per model observation.
    """
    pairs = _candidate_pairs(obs, iou_threshold)
    # Mutual-best: keep a pair only if it is each side's top match.
    # Ties break on the partner's id so the matching is deterministic.
    by_model = Window.partitionBy("scene_id", "frame_id", "m_obs_id").orderBy(
        F.desc("iou"), F.asc("h_obs_id")
    )
    by_human = Window.partitionBy("scene_id", "frame_id", "h_obs_id").orderBy(
        F.desc("iou"), F.asc("m_obs_id")
    )
    return (
        pairs.withColumn("r_m", F.row_number().over(by_model))
        .withColumn("r_h", F.row_number().over(by_human))
        .where((F.col("r_m") == 1) & (F.col("r_h") == 1))
        .select("scene_id", "frame_id", "h_obs_id", "m_obs_id", "iou")
    )


def overlapping_model_obs(obs: DataFrame) -> DataFrame:
    """Model observations overlapping ANY human observation in their
    frame above :data:`OVERLAP_IOU_THRESHOLD` (no mutual-best
    restriction).

    Used by the §8.3 AOF: a model box that touches any human label —
    even one already associated to another prediction — is evidence the
    object is labeled, so it is not a missing-observation candidate.

    Returns:
        DataFrame with a single ``obs_id`` column (distinct model ids).
    """
    return (
        _candidate_pairs(obs, OVERLAP_IOU_THRESHOLD)
        .select(F.col("m_obs_id").alias("obs_id"))
        .distinct()
    )


def assign_bundles(
    obs: DataFrame, iou_threshold: float = DEFAULT_IOU_THRESHOLD
) -> DataFrame:
    """Attach a ``bundle_id`` column to every observation.

    A matched human–model pair shares the human observation's id as its
    bundle id; unmatched observations form singleton bundles keyed by
    their own id. Bundle ids are therefore stable, unique within a
    scene, and independent of partitioning.
    """
    matches = match_human_model(obs, iou_threshold).select(
        F.col("m_obs_id").alias("obs_id"), F.col("h_obs_id").alias("_match")
    )
    return (
        obs.join(matches, on="obs_id", how="left")
        .withColumn("bundle_id", F.coalesce(F.col("_match"), F.col("obs_id")))
        .drop("_match")
    )
