"""Unit tests for cross-frame tracking (repro.association.tracker)."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.association.bundler import assign_bundles
from repro.association.tracker import (
    DEFAULT_MAX_GAP,
    TRACK_IOU_THRESHOLD,
    _track_scene,
    assign_tracks,
)
from tests.util import make_obs_df


def _tracks(df):
    return {r["obs_id"]: r["track_id"] for r in df.select("obs_id", "track_id").collect()}


def _with_singleton_bundles(obs):
    return obs.withColumn("bundle_id", F.col("obs_id"))


class TestAssignTracks:
    def test_requires_bundles(self, spark):
        obs = make_obs_df(spark, [{"obs_id": 1}])
        with pytest.raises(ValueError):
            assign_tracks(obs)

    def test_stationary_object_single_track(self, spark):
        obs = make_obs_df(spark, [
            {"obs_id": i, "frame_id": i, "cx": 0.0} for i in range(6)
        ])
        t = _tracks(assign_tracks(_with_singleton_bundles(obs)))
        assert len(set(t.values())) == 1

    def test_moving_object_tracked(self, spark):
        # 1 m/frame on a 4.5 m box: adjacent-frame IOU well above 0.1.
        obs = make_obs_df(spark, [
            {"obs_id": i, "frame_id": i, "cx": float(i)} for i in range(8)
        ])
        t = _tracks(assign_tracks(_with_singleton_bundles(obs)))
        assert len(set(t.values())) == 1

    def test_two_far_objects_two_tracks(self, spark):
        obs = make_obs_df(spark, [
            {"obs_id": i, "frame_id": i % 4, "cx": 0.0 if i < 4 else 40.0}
            for i in range(8)
        ])
        t = _tracks(assign_tracks(_with_singleton_bundles(obs)))
        assert len(set(t.values())) == 2
        assert len({t[i] for i in range(4)}) == 1
        assert len({t[i] for i in range(4, 8)}) == 1

    def test_teleporting_box_splits(self, spark):
        obs = make_obs_df(spark, [
            {"obs_id": 0, "frame_id": 0, "cx": 0.0},
            {"obs_id": 1, "frame_id": 1, "cx": 50.0},
        ])
        t = _tracks(assign_tracks(_with_singleton_bundles(obs)))
        assert t[0] != t[1]

    def test_gap_within_tolerance_links(self, spark):
        # Missing frame 1; max_gap=2 keeps the track alive.
        obs = make_obs_df(spark, [
            {"obs_id": 0, "frame_id": 0, "cx": 0.0},
            {"obs_id": 1, "frame_id": 2, "cx": 0.0},
        ])
        t = _tracks(assign_tracks(_with_singleton_bundles(obs), max_gap=2))
        assert t[0] == t[1]

    def test_gap_beyond_tolerance_splits(self, spark):
        obs = make_obs_df(spark, [
            {"obs_id": 0, "frame_id": 0, "cx": 0.0},
            {"obs_id": 1, "frame_id": 5, "cx": 0.0},
        ])
        t = _tracks(assign_tracks(_with_singleton_bundles(obs), max_gap=2))
        assert t[0] != t[1]

    def test_bundle_members_share_track(self, spark):
        # Human+model pair bundled in each frame: all four obs one track.
        obs = make_obs_df(spark, [
            {"obs_id": 0, "frame_id": 0, "source": "human"},
            {"obs_id": 1, "frame_id": 0, "source": "model"},
            {"obs_id": 2, "frame_id": 1, "source": "human"},
            {"obs_id": 3, "frame_id": 1, "source": "model"},
        ])
        t = _tracks(assign_tracks(assign_bundles(obs)))
        assert len(set(t.values())) == 1

    def test_track_ids_scene_scoped(self, spark):
        obs = make_obs_df(spark, [
            {"obs_id": 0, "scene_id": "a"},
            {"obs_id": 1, "scene_id": "b"},
        ])
        t = _tracks(assign_tracks(_with_singleton_bundles(obs)))
        assert t[0].startswith("a#") and t[1].startswith("b#")
        assert t[0] != t[1]

    def test_deterministic(self, spark):
        import numpy as np

        rng = np.random.default_rng(0)
        rows = [
            {"obs_id": i, "frame_id": int(i % 10),
             "cx": float(rng.uniform(-20, 20)), "cy": float(rng.uniform(-20, 20))}
            for i in range(50)
        ]
        obs = make_obs_df(spark, rows)
        a = _tracks(assign_tracks(_with_singleton_bundles(obs)))
        b = _tracks(assign_tracks(_with_singleton_bundles(obs)))
        assert a == b

    def test_crossing_objects_stay_separate(self, spark):
        # Two objects approach on y = ±8 → never overlap: two tracks.
        rows = []
        for f in range(8):
            rows.append({"obs_id": 2 * f, "frame_id": f, "cy": 8.0, "cx": float(f)})
            rows.append({"obs_id": 2 * f + 1, "frame_id": f, "cy": -8.0, "cx": float(f)})
        t = _tracks(assign_tracks(_with_singleton_bundles(make_obs_df(spark, rows))))
        assert len(set(t.values())) == 2

    def test_keeps_input_rows_and_columns(self, spark):
        # Two scenes, singleton bundles as §8.4 passes them, and a column
        # the tracker does not read.
        rows = [
            {"obs_id": 10 * s + f, "scene_id": scene, "frame_id": f, "cx": float(f) + 30.0 * s}
            for s, scene in enumerate(("a", "b"))
            for f in range(5)
        ] + [{"obs_id": 99, "scene_id": "b", "frame_id": 2, "cx": -40.0}]
        obs = _with_singleton_bundles(make_obs_df(spark, rows)).withColumn(
            "note", F.concat(F.lit("n"), F.col("obs_id").cast("string"))
        )
        got = assign_tracks(obs)
        assert got.dtypes == [*obs.dtypes, ("track_id", "string")]
        got_pdf = got.toPandas().sort_values("obs_id", ignore_index=True)
        assert got_pdf["track_id"].notna().all()
        inp = obs.toPandas()
        mapping = pd.concat(
            _track_scene(g, TRACK_IOU_THRESHOLD, DEFAULT_MAX_GAP)
            for _, g in inp.groupby("scene_id")
        )
        want = inp.merge(mapping, on=["scene_id", "bundle_id"]).sort_values(
            "obs_id", ignore_index=True
        )
        pd.testing.assert_frame_equal(got_pdf, want)
