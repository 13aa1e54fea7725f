"""Unit tests for offline distribution learning (repro.core.distributions)."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core import distributions
from repro.core.distributions import learn_feature_distributions
from repro.perception.datasets import build_dataset, internal_config
from tests.util import make_obs_df


@pytest.fixture(scope="module")
def ds(spark):
    return build_dataset(spark, internal_config(scale=0.16, duration_s=5.0))


@pytest.fixture(scope="module")
def fd(ds):
    return learn_feature_distributions(ds.train_labels)


class TestLearnFeatureDistributions:
    def test_learns_major_classes(self, fd):
        # Cars dominate the mix; at minimum the frequent classes get
        # both a volume and a velocity distribution.
        assert "car" in fd.volume
        assert "car" in fd.velocity

    def test_volume_peaks_near_class_geometry(self, fd):
        # Car body volume is 4.5 × 1.9 × 1.6 ≈ 13.7 m³; yaw-folded AABB
        # extents put the observed volume in [13.7, ~2 × 13.7]. The
        # distribution must peak inside that band and vanish far out.
        import numpy as np

        band = np.linspace(13.0, 30.0, 60)
        assert fd.volume["car"].relative_likelihood(band).max() > 0.5
        assert fd.volume["car"].relative_likelihood([300.0])[0] < 1e-6
        assert fd.volume["car"].relative_likelihood([1.0])[0] < 1e-3

    def test_class_conditioning_separates(self, fd):
        if "pedestrian" not in fd.volume:
            pytest.skip("no pedestrians in this sample")
        # A car-sized volume must be implausible under the pedestrian
        # distribution — the separation Fixy's features exploit.
        assert fd.volume["pedestrian"].relative_likelihood([13.7])[0] < 1e-3

    def test_velocity_support_nonnegative(self, fd):
        kde = fd.velocity["car"]
        assert kde.points.min() >= 0.0

    def test_min_samples_skips_rare_classes(self, ds, monkeypatch):
        monkeypatch.setattr(distributions, "MIN_FIT_SAMPLES", 10**9)
        fd = learn_feature_distributions(ds.train_labels)
        assert not fd.volume and not fd.velocity

    def test_velocity_excludes_cross_track_transitions(self, spark, ds):
        # Learned velocities must be physical: no cross-object jumps.
        # All learned sample points stay below the max class speed plus
        # jitter slack.
        fd = learn_feature_distributions(ds.train_labels)
        assert fd.velocity["car"].points.max() < 25.0


class TestFitIgnoresLayout:
    def test_subsampled_fit_same_under_any_layout(self, spark):
        # 50 car tracks of 100 frames: 5000 volumes and 4950 velocities,
        # more than GaussianKDE.fit keeps, so its subsample sees the order
        # in which the values reach the driver.
        rng = np.random.default_rng(3)
        rows = [
            {
                "obs_id": i, "frame_id": i % 100, "source": "human",
                "gt_track_id": i // 100, "cx": rng.normal(0.0, 3.0),
                "length": rng.normal(4.5, 0.3), "width": rng.normal(1.9, 0.1),
            }
            for i in range(5000)
        ]
        labels = make_obs_df(spark, rows)
        expected = learn_feature_distributions(labels)
        keys = ("spark.sql.shuffle.partitions", "spark.sql.adaptive.enabled")
        old = {key: spark.conf.get(key) for key in keys}
        try:
            spark.conf.set("spark.sql.shuffle.partitions", "7")
            spark.conf.set("spark.sql.adaptive.enabled", "false")
            fits = [
                learn_feature_distributions(labels),
                learn_feature_distributions(labels.orderBy(F.desc("obs_id"))),
            ]
        finally:
            for key, value in old.items():
                spark.conf.set(key, value)
        for name in ("volume", "velocity"):
            assert getattr(expected, name)["car"].points.size == 4096
        for fd in fits:
            for name in ("volume", "velocity"):
                np.testing.assert_array_equal(
                    getattr(fd, name)["car"].points, getattr(expected, name)["car"].points
                )
