"""Unit tests for dataset configs and the Spark dataset builder."""
import pytest
from pyspark.sql import functions as F

from repro.core.schema import OBS_COLUMNS, validate_observations
from repro.perception.datasets import (
    CONFIGS,
    INTERNAL_AUDIT_MISSING,
    INTERNAL_AUDIT_SCENE,
    build_dataset,
    internal_config,
    lyft_config,
)


@pytest.fixture(scope="module")
def small_internal(spark):
    return build_dataset(spark, internal_config(scale=0.16, duration_s=5.0))


class TestConfigs:
    def test_scale_controls_scene_count(self):
        assert lyft_config(1.0).world.n_scenes == 46
        assert internal_config(1.0).world.n_scenes == 13
        assert lyft_config(0.1).world.n_scenes == 5

    def test_min_two_scenes(self):
        assert lyft_config(0.001).world.n_scenes == 2

    def test_sampling_rates_differ(self):
        # §8.1: datasets differ in sampling rate and scene length.
        assert lyft_config().world.hz != internal_config().world.hz
        assert lyft_config().world.duration_s != internal_config().world.duration_s

    def test_internal_carries_audit_scene(self):
        cfg = internal_config()
        assert cfg.labels.forced_missing[INTERNAL_AUDIT_SCENE] == INTERNAL_AUDIT_MISSING

    def test_lyft_noisier_than_internal(self):
        # "the Lyft dataset is very noisy" — both labels and detector.
        assert lyft_config().labels.p_missing_track > internal_config().labels.p_missing_track
        assert lyft_config().detector.conf[1] > internal_config().detector.conf[1]

    def test_registry(self):
        assert set(CONFIGS) == {"lyft", "internal"}


class TestBuildDataset:
    def test_eval_obs_schema(self, small_internal):
        validate_observations(small_internal.eval_obs)
        assert set(small_internal.eval_obs.columns) == set(OBS_COLUMNS)

    def test_both_sources_present(self, small_internal):
        srcs = {
            r["source"]
            for r in small_internal.eval_obs.select("source").distinct().collect()
        }
        assert srcs == {"human", "model"}

    def test_obs_ids_unique(self, small_internal):
        df = small_internal.eval_obs
        assert df.count() == df.select("obs_id").distinct().count()

    def test_train_scenes_disjoint_from_eval(self, small_internal):
        ev = {r["scene_id"] for r in small_internal.eval_obs.select("scene_id").distinct().collect()}
        tr = {r["scene_id"] for r in small_internal.train_labels.select("scene_id").distinct().collect()}
        assert not ev & tr

    def test_train_labels_human_only(self, small_internal):
        assert (
            small_internal.train_labels.where(F.col("source") != "human").count() == 0
        )

    def test_audit_scene_missing_count(self, small_internal):
        man = small_internal.manifest.missing_tracks
        audit = man[man["scene_id"] == INTERNAL_AUDIT_SCENE]
        assert len(audit) == INTERNAL_AUDIT_MISSING

    def test_deterministic(self, spark, small_internal):
        again = build_dataset(spark, internal_config(scale=0.16, duration_s=5.0))
        a = small_internal.eval_obs.orderBy("obs_id").toPandas()
        b = again.eval_obs.orderBy("obs_id").toPandas()
        assert a.equals(b)
