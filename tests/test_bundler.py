"""Unit tests for within-frame bundling (repro.association.bundler)."""
import pytest
from pyspark.sql import functions as F

from repro.association.bundler import assign_bundles, match_human_model
from tests.util import make_obs_df


def _bundles(df):
    return {r["obs_id"]: r["bundle_id"] for r in df.select("obs_id", "bundle_id").collect()}


class TestMatchHumanModel:
    def test_perfect_overlap_matches(self, spark):
        obs = make_obs_df(spark, [
            {"obs_id": 1, "source": "human"},
            {"obs_id": 2, "source": "model"},
        ])
        m = match_human_model(obs).collect()
        assert len(m) == 1
        assert m[0]["h_obs_id"] == 1 and m[0]["m_obs_id"] == 2
        assert m[0]["iou"] == pytest.approx(1.0)

    def test_below_threshold_no_match(self, spark):
        # Offset by 2/3 length: IOU well under 0.5.
        obs = make_obs_df(spark, [
            {"obs_id": 1, "source": "human"},
            {"obs_id": 2, "source": "model", "cx": 3.0},
        ])
        assert match_human_model(obs).count() == 0

    def test_cross_frame_never_matches(self, spark):
        obs = make_obs_df(spark, [
            {"obs_id": 1, "source": "human", "frame_id": 0},
            {"obs_id": 2, "source": "model", "frame_id": 1},
        ])
        assert match_human_model(obs).count() == 0

    def test_cross_scene_never_matches(self, spark):
        obs = make_obs_df(spark, [
            {"obs_id": 1, "source": "human", "scene_id": "a"},
            {"obs_id": 2, "source": "model", "scene_id": "b"},
        ])
        assert match_human_model(obs).count() == 0

    def test_mutual_best_one_to_one(self, spark):
        # Two humans near one model box: the model matches only the
        # closer human, and each human at most one model.
        obs = make_obs_df(spark, [
            {"obs_id": 1, "source": "human", "cx": 0.0},
            {"obs_id": 2, "source": "human", "cx": 0.8},
            {"obs_id": 3, "source": "model", "cx": 0.1},
        ])
        m = match_human_model(obs).collect()
        assert len(m) == 1
        assert m[0]["h_obs_id"] == 1

    def test_two_pairs_both_match(self, spark):
        obs = make_obs_df(spark, [
            {"obs_id": 1, "source": "human", "cx": 0.0},
            {"obs_id": 2, "source": "model", "cx": 0.1},
            {"obs_id": 3, "source": "human", "cx": 30.0},
            {"obs_id": 4, "source": "model", "cx": 30.1},
        ])
        m = {r["h_obs_id"]: r["m_obs_id"] for r in match_human_model(obs).collect()}
        assert m == {1: 2, 3: 4}

    def test_threshold_parameter(self, spark):
        # IOU(shift 2 of length 4) = 1/3: matched at 0.2, not at 0.5.
        obs = make_obs_df(spark, [
            {"obs_id": 1, "source": "human", "length": 4.0, "width": 2.0, "height": 1.5, "cz": 0.75},
            {"obs_id": 2, "source": "model", "cx": 2.0, "length": 4.0, "width": 2.0, "height": 1.5, "cz": 0.75},
        ])
        assert match_human_model(obs, iou_threshold=0.2).count() == 1
        assert match_human_model(obs, iou_threshold=0.5).count() == 0


class TestAssignBundles:
    def test_pair_shares_human_id(self, spark):
        obs = make_obs_df(spark, [
            {"obs_id": 1, "source": "human"},
            {"obs_id": 2, "source": "model"},
        ])
        b = _bundles(assign_bundles(obs))
        assert b[1] == 1 and b[2] == 1

    def test_unmatched_are_singletons(self, spark):
        obs = make_obs_df(spark, [
            {"obs_id": 1, "source": "human", "cx": 0.0},
            {"obs_id": 2, "source": "model", "cx": 40.0},
        ])
        b = _bundles(assign_bundles(obs))
        assert b[1] == 1 and b[2] == 2

    def test_row_count_preserved(self, spark):
        obs = make_obs_df(spark, [
            {"obs_id": i, "source": "human" if i % 2 else "model", "cx": float(5 * i)}
            for i in range(10)
        ])
        assert assign_bundles(obs).count() == 10

    def test_deterministic(self, spark):
        rows = [
            {"obs_id": i, "source": "human" if i % 2 else "model",
             "cx": float(i // 2) * 0.3}
            for i in range(8)
        ]
        obs = make_obs_df(spark, rows)
        assert _bundles(assign_bundles(obs)) == _bundles(assign_bundles(obs))


class TestOverlappingModelObs:
    def test_any_overlap_counts_even_if_not_mutual_best(self, spark):
        from repro.association.bundler import overlapping_model_obs

        # Human 1 is strongly matched by model 2; model 3 only grazes
        # human 1 — mutual-best would miss it, any-overlap must not.
        obs = make_obs_df(spark, [
            {"obs_id": 1, "source": "human", "cx": 0.0},
            {"obs_id": 2, "source": "model", "cx": 0.05},
            {"obs_id": 3, "source": "model", "cx": 3.0},
        ])
        got = {r["obs_id"] for r in overlapping_model_obs(obs).collect()}
        assert got == {2, 3}

    def test_long_boxes_far_apart_still_overlap(self, spark):
        from repro.association.bundler import overlapping_model_obs

        # Two aligned 13 m trucks 11 m apart overlap by 2 m in x:
        # IOU = 2/24 ≈ 0.083 > 0.05, though their centres are > 10 m apart.
        truck = {"length": 13.0, "width": 2.5, "height": 3.5, "cz": 1.75}
        obs = make_obs_df(spark, [
            {"obs_id": 1, "source": "human", "cx": 0.0, **truck},
            {"obs_id": 2, "source": "model", "cx": 11.0, **truck},
        ])
        assert {r["obs_id"] for r in overlapping_model_obs(obs).collect()} == {2}

    def test_disjoint_model_obs_not_flagged(self, spark):
        from repro.association.bundler import overlapping_model_obs

        obs = make_obs_df(spark, [
            {"obs_id": 1, "source": "human", "cx": 0.0},
            {"obs_id": 2, "source": "model", "cx": 40.0},
        ])
        assert overlapping_model_obs(obs).count() == 0

    def test_cross_frame_not_flagged(self, spark):
        from repro.association.bundler import overlapping_model_obs

        obs = make_obs_df(spark, [
            {"obs_id": 1, "source": "human", "frame_id": 0},
            {"obs_id": 2, "source": "model", "frame_id": 1},
        ])
        assert overlapping_model_obs(obs).count() == 0
