"""Unit tests for harness internals: truth attachment and dedup."""
from types import SimpleNamespace

import pandas as pd
import pytest
from pyspark.sql import functions as F

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


class TestTrackTruth:
    @pytest.fixture(scope="class")
    def prep(self, spark):
        from repro.eval import harness

        return harness.prepare(spark, "internal", 0.16)

    def test_majority_and_missing_flags(self, spark, prep):
        from repro.eval import harness

        truth = harness._track_truth(spark, prep, prep.tracked).toPandas()
        assert {"scene_id", "track_id", "maj_gt", "maj_cls", "err_frac", "is_missing"} <= set(truth.columns)
        # Every injected missing track that the model detected appears
        # flagged somewhere.
        man = prep.ds.manifest.missing_tracks
        flagged = set(truth.loc[truth["is_missing"], "maj_gt"])
        injected = set(man["gt_track_id"])
        assert flagged <= injected
        assert len(flagged) > 0

    def test_ghost_tracks_never_missing(self, spark, prep):
        from repro.eval import harness

        truth = harness._track_truth(spark, prep, prep.tracked).toPandas()
        ghosts = truth[truth["maj_gt"] < 0]
        assert not ghosts["is_missing"].any()

    def test_err_frac_bounds(self, spark, prep):
        from repro.eval import harness

        truth = harness._track_truth(spark, prep, prep.tracked).toPandas()
        assert truth["err_frac"].between(0, 1).all()

    @pytest.mark.parametrize("partitions", [1, 7])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_majority_tie_takes_lower_id(self, spark, partitions, reverse):
        from repro.eval import harness

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
            truth = harness._track_truth(spark, prep, tracked).collect()
        finally:
            spark.conf.set(key, old)
        assert [(r.maj_gt, r.maj_cls, r.is_missing) for r in truth] == [(5, "car", True)]


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
