"""Unit tests for the baseline error finders."""
import pytest
from pyspark.sql import functions as F

from repro.baselines import uncertainty
from repro.baselines.model_assertions import (
    appear,
    consistency_candidates,
    flicker,
    multibox_flags,
    track_frame_columns,
)
from repro.baselines.uncertainty import rank_by_uncertainty
from repro.core.features import track_stats
from tests.util import make_obs_df


def _tracked(spark, rows):
    """Attach explicit track ids carried in the row dicts."""
    import pandas as pd

    track = [r.pop("track") for r in rows]
    df = make_obs_df(spark, rows)
    tmap = spark.createDataFrame(
        pd.DataFrame({"obs_id": [r.get("obs_id", i) for i, r in enumerate(rows)],
                      "track_id": track})
    )
    return df.join(tmap, "obs_id")


def _candidates(spark, rows):
    """The consistency MA's candidates among the tracks of ``rows``."""
    return consistency_candidates(track_stats(_tracked(spark, rows)))


class TestConsistencyCandidates:
    def test_model_only_tracks_selected(self, spark):
        rows = [
            {"obs_id": 0, "frame_id": 0, "source": "model", "track": "a"},
            {"obs_id": 1, "frame_id": 1, "source": "model", "track": "a"},
            {"obs_id": 2, "frame_id": 0, "source": "human", "track": "b", "cx": 30.0},
            {"obs_id": 3, "frame_id": 1, "source": "model", "track": "b", "cx": 30.0},
        ]
        got = [r["track_id"] for r in _candidates(spark, rows).collect()]
        assert got == ["a"]

    def test_single_obs_tracks_excluded(self, spark):
        rows = [{"obs_id": 0, "source": "model", "track": "solo"}]
        assert _candidates(spark, rows).count() == 0

    def test_rand_order_deterministic(self, spark):
        rows = [
            {"obs_id": i, "frame_id": i % 3, "source": "model", "track": f"t{i // 3}"}
            for i in range(9)
        ]
        a = {r["track_id"]: r["rand_order"]
             for r in _candidates(spark, [dict(r) for r in rows]).collect()}
        b = {r["track_id"]: r["rand_order"]
             for r in _candidates(spark, [dict(r) for r in rows]).collect()}
        assert a == b


def _flagged(spark, rows, predicate):
    """The tracks of ``rows`` whose :func:`track_frame_columns` row
    violates ``predicate``."""
    tracks = _tracked(spark, rows).groupBy("scene_id", "track_id").agg(*track_frame_columns())
    return {r["track_id"] for r in tracks.where(predicate).collect()}


class TestAppearFlicker:
    def test_appear_flags_short_tracks(self, spark):
        rows = [
            {"obs_id": 0, "frame_id": 0, "track": "short"},
            {"obs_id": 1, "frame_id": 1, "track": "short"},
            {"obs_id": 2, "frame_id": 0, "track": "long"},
            {"obs_id": 3, "frame_id": 1, "track": "long"},
            {"obs_id": 4, "frame_id": 2, "track": "long"},
        ]
        assert _flagged(spark, rows, appear()) == {"short"}

    def test_flicker_flags_gappy_tracks(self, spark):
        rows = [
            {"obs_id": 0, "frame_id": 0, "track": "gappy"},
            {"obs_id": 1, "frame_id": 2, "track": "gappy"},
            {"obs_id": 2, "frame_id": 0, "track": "solid"},
            {"obs_id": 3, "frame_id": 1, "track": "solid"},
        ]
        assert _flagged(spark, rows, flicker()) == {"gappy"}

    def test_flicker_ignores_human_rows(self, spark):
        # The assertion audits model predictions; human gaps don't count.
        rows = [
            {"obs_id": 0, "frame_id": 0, "source": "human", "track": "t"},
            {"obs_id": 1, "frame_id": 2, "source": "human", "track": "t"},
        ]
        assert _flagged(spark, rows, flicker()) == set()


class TestMultibox:
    def test_three_overlapping_boxes_flagged(self, spark):
        rows = [
            {"obs_id": 0, "frame_id": 0, "cx": 0.0, "track": "a"},
            {"obs_id": 1, "frame_id": 0, "cx": 0.4, "track": "b"},
            {"obs_id": 2, "frame_id": 0, "cx": 0.8, "track": "c"},
        ]
        got = {r["track_id"] for r in multibox_flags(_tracked(spark, rows)).collect()}
        # The middle box overlaps both others strongly; with a 4.5 m box
        # all three mutually overlap above the 0.1 threshold.
        assert got == {"a", "b", "c"}

    def test_two_overlapping_boxes_not_flagged(self, spark):
        rows = [
            {"obs_id": 0, "frame_id": 0, "cx": 0.0, "track": "a"},
            {"obs_id": 1, "frame_id": 0, "cx": 0.4, "track": "b"},
        ]
        assert multibox_flags(_tracked(spark, rows)).count() == 0

    def test_cross_frame_overlap_not_flagged(self, spark):
        rows = [
            {"obs_id": 0, "frame_id": 0, "cx": 0.0, "track": "a"},
            {"obs_id": 1, "frame_id": 1, "cx": 0.2, "track": "b"},
            {"obs_id": 2, "frame_id": 2, "cx": 0.4, "track": "c"},
        ]
        assert multibox_flags(_tracked(spark, rows)).count() == 0


class TestUncertainty:
    def test_rank_orders_by_closeness_to_threshold(self, spark):
        rows = [
            {"obs_id": 0, "confidence": 0.52},
            {"obs_id": 1, "confidence": 0.9},
            {"obs_id": 2, "confidence": 0.45},
            {"obs_id": 3, "confidence": 0.1},
        ]
        got = rank_by_uncertainty(make_obs_df(spark, rows), 10)
        # Obs 1 and 3 tie at |conf − 0.5| = 0.4; obs_id breaks the tie.
        assert list(got["obs_id"]) == [0, 2, 1, 3]
        assert list(got["rank"]) == [1, 2, 3, 4]

    def test_top_k_only(self, spark):
        rows = [{"obs_id": i, "confidence": 0.5 + i / 100} for i in range(5)]
        got = rank_by_uncertainty(make_obs_df(spark, rows), 2)
        assert list(got["obs_id"]) == [0, 1]
        assert list(got["rank"]) == [1, 2]

    def test_custom_threshold(self, spark, monkeypatch):
        rows = [
            {"obs_id": 0, "confidence": 0.9},
            {"obs_id": 1, "confidence": 0.5},
        ]
        monkeypatch.setattr(uncertainty, "DEFAULT_THRESHOLD", 0.9)
        got = rank_by_uncertainty(make_obs_df(spark, rows), 10)
        assert got["obs_id"].iloc[0] == 0

    def test_human_rows_excluded(self, spark):
        rows = [
            {"obs_id": 0, "source": "human", "confidence": 0.5},
            {"obs_id": 1, "source": "model", "confidence": 0.9},
        ]
        got = rank_by_uncertainty(make_obs_df(spark, rows), 10)
        assert list(got["obs_id"]) == [1]
