"""Cross-frame association of bundles into tracks (paper §4.2).

A *track* is an indexed sequence of observation bundles — the same
object followed through time. The paper associates "observations within
a track by box overlap across time" (§8.2). We implement the standard
greedy IOU tracker used throughout the MOT literature, with a
constant-velocity motion model: per frame each active track's box is
predicted forward by its estimated velocity, candidate (active-track,
bundle) pairs are matched greedily in descending IOU against the
predictions, unmatched bundles open new tracks, and tracks expire after
``max_gap`` unseen frames. (Without motion compensation, an object
moving more than its own length per frame has zero adjacent-frame IOU
and fragments into many single-frame tracks.)

Scenes are independent, so the tracker is a classic
partition-per-group dataflow: ``groupBy("scene_id").applyInPandas`` runs
the sequential per-scene tracker in parallel across scenes and returns
each scene's rows with their ``track_id`` attached, so the observations
are shuffled once and never joined back. The per-scene inner loop is
vectorized numpy over the frame's IOU matrix.

Track ids are strings ``"<scene_id>#<k>"`` — unique across the dataset
and deterministic (frames visited in order, bundles in id order).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from repro.association.iou import BOX_COLS, iou_matrix
from repro.core.schema import SOURCE_MODEL

#: Default IOU for linking across adjacent frames. Lower than the
#: within-frame 0.5: an object moves between frames, so self-overlap
#: across one step is smaller than cross-source overlap at one instant.
TRACK_IOU_THRESHOLD = 0.05

#: A track survives this many frames without a match before expiring.
DEFAULT_MAX_GAP = 3

#: Metres added to each box extent during matching ("buffered IOU").
#: Small boxes moving a large fraction of their own size per frame have
#: near-zero raw IOU before a velocity estimate exists; dilating both
#: boxes keeps the first link findable without affecting well-separated
#: objects.
MATCH_BUFFER_M = 0.8


def _representative_boxes(pdf: pd.DataFrame) -> pd.DataFrame:
    """One representative box per (frame, bundle): prefer the model box
    (present for every bundle Fixy scores), else the human box."""
    pdf = pdf.copy()
    pdf["_pref"] = (pdf["source"] != SOURCE_MODEL).astype(int)
    pdf = pdf.sort_values(["frame_id", "bundle_id", "_pref", "obs_id"])
    return pdf.drop_duplicates(subset=["frame_id", "bundle_id"], keep="first")


def _track_scene(pdf: pd.DataFrame, iou_threshold: float, max_gap: int) -> pd.DataFrame:
    scene_id = pdf["scene_id"].iloc[0]
    reps = _representative_boxes(pdf)
    out_bundle, out_track = [], []
    # Active tracks, one row each: last box, per-frame velocity
    # (constant-velocity motion model — without it a fast object that
    # moves more than its own length per frame has zero adjacent-frame
    # IOU and fragments into many tracks), last frame, track index.
    box, vel = np.empty((0, 6)), np.empty((0, 2))
    last, tid = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    next_tid = 0
    buffer = np.array([0.0, 0.0, 0.0, MATCH_BUFFER_M, MATCH_BUFFER_M, MATCH_BUFFER_M])
    for frame_id, grp in reps.groupby("frame_id", sort=True):
        # Expire stale tracks BEFORE matching: a track unseen for more
        # than max_gap frames must not capture this frame's bundles.
        keep = frame_id - last <= max_gap
        box, vel, last, tid = box[keep], vel[keep], last[keep], tid[keep]
        grp = grp.sort_values("bundle_id")
        boxes = grp[list(BOX_COLS)].to_numpy(dtype=np.float64)
        # Predict each active track's box forward to this frame, and
        # match on buffered boxes (extents dilated by MATCH_BUFFER_M).
        gap = frame_id - last
        pred = box.copy()
        pred[:, 0:2] += vel * gap[:, None]
        m = iou_matrix(pred + buffer, boxes + buffer)
        assigned = np.full(len(grp), -1, dtype=np.int64)
        # Greedy: repeatedly take the best remaining pair.
        while m.size:
            i, j = np.unravel_index(np.argmax(m), m.shape)
            if m[i, j] <= iou_threshold:
                break
            assigned[j] = i
            m[i, :] = -1.0
            m[:, j] = -1.0
        hit = assigned >= 0
        i = assigned[hit]
        vel[i] = (boxes[hit, 0:2] - box[i, 0:2]) / np.maximum(gap[i], 1)[:, None]
        box[i], last[i] = boxes[hit], frame_id
        # Unmatched bundles open new tracks, appended in bundle order.
        new = ~hit
        n_new = int(new.sum())
        ids = np.empty(len(grp), dtype=np.int64)
        ids[hit] = tid[i]
        ids[new] = next_tid + np.arange(n_new)
        next_tid += n_new
        box = np.vstack([box, boxes[new]])
        vel = np.vstack([vel, np.zeros((n_new, 2))])
        last = np.append(last, np.full(n_new, frame_id, dtype=np.int64))
        tid = np.append(tid, ids[new])
        out_bundle.append(grp["bundle_id"].to_numpy(dtype=np.int64))
        out_track.append(ids)
    return pd.DataFrame(
        {
            "scene_id": scene_id,
            "bundle_id": np.concatenate(out_bundle),
            "track_id": [f"{scene_id}#{t}" for t in np.concatenate(out_track)],
        }
    )


def assign_tracks(
    obs_with_bundles: DataFrame,
    iou_threshold: float = TRACK_IOU_THRESHOLD,
    max_gap: int = DEFAULT_MAX_GAP,
) -> DataFrame:
    """Attach a ``track_id`` column by linking bundles across frames.

    Args:
        obs_with_bundles: observations carrying a ``bundle_id`` column
            (from :func:`repro.association.bundler.assign_bundles`).
        iou_threshold: minimum adjacent-frame IOU to link.
        max_gap: frames a track may go unseen before expiring.

    Returns:
        the input rows, columns and types, with one extra ``track_id``
        string column.
    """
    if "bundle_id" not in obs_with_bundles.columns:
        raise ValueError("assign_tracks requires a bundle_id column; run assign_bundles first")
    cols = ["scene_id", "frame_id", "bundle_id", "obs_id", "source", *BOX_COLS]

    def track(pdf: pd.DataFrame) -> pd.DataFrame:
        mapping = _track_scene(pdf[cols], iou_threshold, max_gap)
        return pdf.merge(mapping[["bundle_id", "track_id"]], on="bundle_id", how="left")

    schema = T.StructType([*obs_with_bundles.schema, T.StructField("track_id", T.StringType())])
    return obs_with_bundles.groupBy("scene_id").applyInPandas(track, schema=schema)
