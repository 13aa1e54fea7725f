"""Unit tests for harness internals: truth attachment and dedup."""
from types import SimpleNamespace

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.schema import SOURCE_MODEL
from repro.eval.harness import _dedupe_errors


class TestDedupeErrors:
    def _pdf(self, rows):
        return pd.DataFrame(rows, columns=["scene_id", "rank", "maj_gt", "is_error"])

    def test_first_flag_kept_repeats_demoted(self):
        pdf = self._pdf([
            ("s", 1, 7, True),
            ("s", 2, 7, True),   # duplicate report of object 7
            ("s", 3, 8, True),
        ])
        got = _dedupe_errors(pdf)
        assert list(got["is_error"]) == [True, False, True]

    def test_dedupe_is_rank_ordered_not_row_ordered(self):
        pdf = self._pdf([
            ("s", 2, 7, True),
            ("s", 1, 7, True),
        ])
        got = _dedupe_errors(pdf).sort_values("rank")
        assert list(got["is_error"]) == [True, False]

    def test_scenes_independent(self):
        pdf = self._pdf([
            ("a", 1, 7, True),
            ("b", 1, 7, True),  # same gt id, different scene: both count
        ])
        got = _dedupe_errors(pdf)
        assert got["is_error"].all()

    def test_non_errors_untouched(self):
        pdf = self._pdf([
            ("s", 1, -3, False),
            ("s", 2, -3, False),
        ])
        got = _dedupe_errors(pdf)
        assert not got["is_error"].any()


def _track_truth(prep, tracked):
    """The truth columns of every track of ``tracked`` with a model
    observation, flagged against ``prep``'s missing-track manifest."""
    from repro.eval import harness

    model = tracked.where(F.col("source") == SOURCE_MODEL)
    truth = model.groupBy("scene_id", "track_id").agg(*harness._track_truth_columns())
    return harness._flag_missing(truth.toPandas(), prep)


class TestTrackTruth:
    @pytest.fixture(scope="class")
    def prep(self, spark):
        from repro.eval import harness

        return harness.prepare(spark, "internal", 0.16)

    def test_majority_and_missing_flags(self, prep):
        truth = _track_truth(prep, prep.tracked)
        assert {"scene_id", "track_id", "maj_gt", "maj_cls", "err_frac", "is_error"} <= set(truth.columns)
        # Every injected missing track that the model detected appears
        # flagged somewhere.
        man = prep.ds.manifest.missing_tracks
        flagged = set(truth.loc[truth["is_error"], "maj_gt"])
        injected = set(man["gt_track_id"])
        assert flagged <= injected
        assert len(flagged) > 0

    def test_ghost_tracks_never_missing(self, prep):
        truth = _track_truth(prep, prep.tracked)
        ghosts = truth[truth["maj_gt"] < 0]
        assert not ghosts["is_error"].any()

    def test_err_frac_bounds(self, prep):
        truth = _track_truth(prep, prep.tracked)
        assert truth["err_frac"].between(0, 1).all()

    @pytest.mark.parametrize("partitions", [1, 7])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_majority_tie_takes_lower_id(self, spark, partitions, reverse):
        # Model observations tie 2-2 between objects 9 and 5 (and classes
        # truck and car); the human observation of 9 does not vote.
        rows = [
            ("s", 1, 9, "truck", "model", "none"),
            ("s", 1, 9, "truck", "model", "none"),
            ("s", 1, 9, "truck", "human", "none"),
            ("s", 1, 5, "car", "model", "none"),
            ("s", 1, 5, "car", "model", "none"),
        ]
        if reverse:
            rows = rows[::-1]
        tracked = spark.createDataFrame(
            rows, "scene_id string, track_id long, gt_track_id long, cls string, source string, err_type string"
        )
        missing = pd.DataFrame({"scene_id": ["s"], "gt_track_id": [5]})
        prep = SimpleNamespace(ds=SimpleNamespace(manifest=SimpleNamespace(missing_tracks=missing)))
        key = "spark.sql.shuffle.partitions"
        old = spark.conf.get(key)
        spark.conf.set(key, str(partitions))
        try:
            truth = _track_truth(prep, tracked)
        finally:
            spark.conf.set(key, old)
        got = list(zip(truth["maj_gt"], truth["maj_cls"], truth["is_error"]))
        assert got == [(5, "car", True)]


class TestMaRanked:
    @pytest.mark.parametrize("partitions", [1, 7])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_confidence_tie_breaks_on_track_id(self, spark, partitions, reverse):
        from repro.baselines.model_assertions import consistency_candidates
        from repro.core.features import track_stats
        from repro.eval import harness

        # Tracks b and a tie on mean confidence 0.8; c is less confident.
        rows = [
            ("s", "s#b", "model", 0.8),
            ("s", "s#b", "model", 0.8),
            ("s", "s#a", "model", 0.8),
            ("s", "s#a", "model", 0.8),
            ("s", "s#c", "model", 0.6),
            ("s", "s#c", "model", 0.6),
        ]
        tracked = spark.createDataFrame(
            rows, "scene_id string, track_id string, source string, confidence double"
        )
        key = "spark.sql.shuffle.partitions"
        old = spark.conf.get(key)
        spark.conf.set(key, str(partitions))
        try:
            ma_pdf = consistency_candidates(track_stats(tracked)).toPandas()
        finally:
            spark.conf.set(key, old)
        if reverse:
            ma_pdf = ma_pdf.iloc[::-1]
        got = harness._ma_ranked(ma_pdf, "track_mean_conf", False)
        assert dict(zip(got["track_id"], got["rank"])) == {"s#a": 1, "s#b": 2, "s#c": 3}


class TestMissingObsAof:
    """§8.3's AOF on a hand-built tracked frame: one row per filter."""

    @pytest.fixture(scope="class")
    def out(self, spark):
        import numpy as np

        from repro.core.distributions import FeatureDistributions
        from repro.core.kde import GaussianKDE
        from repro.eval import harness
        from tests.util import make_obs_rows

        def obs(obs_id, frame, source, track, gt, bundle=None, **box):
            return {"obs_id": obs_id, "frame_id": frame, "source": source,
                    "gt_track_id": gt, "track": track,
                    "bundle": obs_id if bundle is None else bundle, **box}

        rows = [
            # Track a follows labeled object 1; the label of frame 2 was
            # dropped, so its model row stands alone: the injected drop.
            *(obs(o, f, "human", "a", 1) for o, f in ((0, 0), (1, 1), (2, 3))),
            *(obs(o, f, "model", "a", 1, bundle=h) for o, f, h in ((10, 0, 0), (11, 1, 1), (12, 3, 2))),
            obs(13, 2, "model", "a", 1),
            # Track b is model-only: no human proposal in the track.
            *(obs(20 + f, f, "model", "b", 2, cx=30.0) for f in range(3)),
            # Track c's frame-1 model box grazes its label at IOU 0.2.
            obs(30, 0, "human", "c", 3, cx=-30.0),
            obs(31, 1, "human", "c", 3, cx=-30.0),
            obs(32, 0, "model", "c", 3, bundle=30, cx=-30.0),
            obs(33, 1, "model", "c", 3, cx=-27.0),
            # Track e chains a model row of missing track 4 onto labeled
            # object 5: a missing-track leak.
            obs(40, 0, "human", "e", 5, cy=30.0),
            obs(41, 0, "model", "e", 5, bundle=40, cy=30.0),
            obs(42, 1, "model", "e", 4, cy=30.5),
            # Track f's lone model row has a truck's length: a clean
            # candidate, less plausible than the drop.
            obs(50, 0, "human", "f", 6, cy=-30.0),
            obs(51, 0, "model", "f", 6, bundle=50, cy=-30.0),
            obs(52, 1, "model", "f", 6, cy=-30.0, length=9.0),
        ]
        extra = pd.DataFrame({"bundle_id": [r.pop("bundle") for r in rows],
                              "track_id": [r.pop("track") for r in rows]})
        tracked = spark.createDataFrame(pd.concat([make_obs_rows(rows), extra], axis=1))
        volumes = np.random.default_rng(0).normal(4.5 * 1.9 * 1.6, 0.5, 500)
        manifest = SimpleNamespace(
            missing_obs=pd.DataFrame({"scene_id": ["s0"], "gt_track_id": [1], "frame_id": [2]}),
            missing_tracks=pd.DataFrame({"scene_id": ["s0"], "gt_track_id": [4]}),
        )
        prep = SimpleNamespace(
            tracked=tracked,
            fd=FeatureDistributions(volume={"car": GaussianKDE.fit(volumes)}),
            ds=SimpleNamespace(manifest=manifest),
        )
        return harness.run_missing_obs(spark, prep)

    def test_drop_ranked_first(self, out):
        assert out["n_found"] == 1
        assert out["ranks"] == [1]
        assert out["best_rank"] == 1

    def test_filters_leave_drop_and_clean_candidate(self, out):
        # Matched, model-only-track and grazing rows are zeroed; the
        # drop and track f's lone row remain.
        assert out["n_candidates"] == 2
        assert out["expected_random_rank"] == 1.5

    def test_missing_track_leak_counted_not_ranked(self, out):
        assert out["n_missing_track_leaks"] == 1
