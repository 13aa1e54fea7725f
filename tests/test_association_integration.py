"""Integration tests: bundler + tracker over generated perception data.

These check the association substrate's quality properties on realistic
input — the properties the paper's §8.2 pipeline depends on (human and
model observations of one object end up in one track; distinct objects
stay separate; missing-track objects produce model-only tracks).
"""
import pytest
from pyspark.sql import functions as F

from repro.association.bundler import assign_bundles
from repro.association.tracker import assign_tracks
from repro.perception.datasets import build_dataset, internal_config


@pytest.fixture(scope="module")
def tracked(spark):
    ds = build_dataset(spark, internal_config(scale=0.16, duration_s=5.0))
    df = assign_tracks(assign_bundles(ds.eval_obs)).cache()
    df.count()
    yield ds, df
    df.unpersist()


class TestAssociationQuality:
    def test_every_observation_gets_a_track(self, tracked):
        _, df = tracked
        assert df.where(F.col("track_id").isNull()).count() == 0

    def test_labeled_objects_mostly_one_track(self, tracked):
        ds, df = tracked
        man = ds.manifest.missing_tracks
        missing = {(r.scene_id, r.gt_track_id) for r in man.itertuples()}
        pdf = (
            df.where(F.col("gt_track_id") >= 0)
            .groupBy("scene_id", "gt_track_id")
            .agg(F.countDistinct("track_id").alias("n"))
            .toPandas()
        )
        pdf = pdf[[(r.scene_id, r.gt_track_id) not in missing for r in pdf.itertuples()]]
        # Fragmentation must be the exception, not the rule.
        assert (pdf["n"] == 1).mean() > 0.7
        assert pdf["n"].mean() < 1.6

    def test_human_and_model_share_track_for_labeled_objects(self, tracked):
        ds, df = tracked
        both = (
            df.where(F.col("gt_track_id") >= 0)
            .groupBy("scene_id", "gt_track_id", "track_id")
            .agg(F.countDistinct("source").alias("n_src"))
            .groupBy("scene_id", "gt_track_id")
            .agg(F.max("n_src").alias("max_src"))
            .toPandas()
        )
        man = ds.manifest.missing_tracks
        missing = {(r.scene_id, r.gt_track_id) for r in man.itertuples()}
        labeled = both[[(r.scene_id, r.gt_track_id) not in missing for r in both.itertuples()]]
        # For most labeled+detected objects the two sources merge.
        assert (labeled["max_src"] == 2).mean() > 0.7

    def test_missing_objects_form_model_only_tracks(self, tracked):
        ds, df = tracked
        man = ds.manifest.missing_tracks
        missing = {(r.scene_id, r.gt_track_id) for r in man.itertuples()}
        per_track = (
            df.groupBy("scene_id", "track_id")
            .agg(
                F.max((F.col("source") == "human").cast("int")).alias("has_human"),
                F.mode("gt_track_id", deterministic=True).alias("maj_gt"),
            )
            .toPandas()
        )
        miss_tracks = per_track[
            [(r.scene_id, r.maj_gt) in missing for r in per_track.itertuples()]
        ]
        assert not miss_tracks.empty
        assert (miss_tracks["has_human"] == 0).mean() > 0.95

    def test_tracks_never_span_scenes(self, tracked):
        _, df = tracked
        spans = df.groupBy("track_id").agg(F.countDistinct("scene_id").alias("n"))
        assert spans.where(F.col("n") > 1).count() == 0

    def test_one_bundle_per_track_frame(self, tracked):
        # A track holds at most one bundle per time step (§4.2: a track
        # is an indexed *sequence* of bundles).
        _, df = tracked
        dup = (
            df.groupBy("scene_id", "track_id", "frame_id")
            .agg(F.countDistinct("bundle_id").alias("n"))
            .where(F.col("n") > 1)
        )
        assert dup.count() == 0
