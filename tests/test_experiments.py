"""Experiment-shape tests: the paper's qualitative results must hold on
reduced-scale runs of the full dataflow.

These run every driver end to end at a reduced scene count (the same
code paths the paper-scale ``jobs/reproduce.py`` run uses). Assertions target the
*shape* of the paper's results — which method wins, roughly by how much,
and where the recall sits — not exact numbers; EXPERIMENTS.md records
the paper-scale measured values next to the paper's.
"""
import pytest

from repro.eval import harness

SCALE = 0.15  # lyft: 7 scenes, internal: 2 scenes (incl. audit scene)


@pytest.fixture(scope="module")
def prep_lyft(spark):
    return harness.prepare(spark, "lyft", SCALE)


@pytest.fixture(scope="module")
def prep_internal(spark):
    return harness.prepare(spark, "internal", 0.31)  # 4 scenes


@pytest.fixture(scope="module")
def lyft_table3(spark, prep_lyft):
    return harness.run_missing_tracks_prepared(spark, prep_lyft, "lyft")


@pytest.fixture(scope="module")
def internal_table3(spark, prep_internal):
    return harness.run_missing_tracks_prepared(spark, prep_internal, "internal")


class TestTable3Shape:
    def test_lyft_fixy_beats_random(self, lyft_table3):
        # Paper: 69% vs 32% — Fixy clearly above random ordering.
        assert lyft_table3["fixy_p10"] > lyft_table3["ma_rand_p10"] + 0.05

    def test_lyft_fixy_beats_confidence(self, lyft_table3):
        # Paper: 69% vs 39%.
        assert lyft_table3["fixy_p10"] > lyft_table3["ma_conf_p10"]

    def test_lyft_fixy_precision_reasonable(self, lyft_table3):
        assert lyft_table3["fixy_p10"] > 0.35

    def test_lyft_scene_hit_rate(self, lyft_table3):
        # Paper: errors found in 100% of scenes-with-errors in top 10.
        assert lyft_table3["fixy_scene_hit_rate"] >= 0.9

    def test_internal_fixy_top5_perfect(self, internal_table3):
        # Paper: 100% at top 5 and top 1 on the audited scene.
        assert internal_table3["fixy_p5"] == 1.0
        assert internal_table3["fixy_p1"] == 1.0

    def test_internal_fixy_beats_random(self, internal_table3):
        # Paper: 76% vs 49%.
        assert internal_table3["fixy_p10"] > internal_table3["ma_rand_p10"]

    def test_internal_cleaner_than_lyft(self, lyft_table3, internal_table3):
        # §8.2: "our internal model does better than the public model".
        assert internal_table3["fixy_p10"] >= lyft_table3["fixy_p10"]

    def test_all_precisions_valid(self, lyft_table3, internal_table3):
        for out in (lyft_table3, internal_table3):
            for k, v in out.items():
                if k.endswith(("_p10", "_p5", "_p1")):
                    assert v is None or 0.0 <= v <= 1.0, (k, v)


class TestRecallShape:
    def test_recall_in_paper_band(self, spark, prep_internal):
        # Paper: 75% (18/24). The ceiling is the detector's track-level
        # recall; assert a clearly-useful band rather than the point value.
        out = harness.run_recall(spark, prep=prep_internal)
        assert out["n_injected"] == 24
        assert 0.5 <= out["recall"] <= 1.0


class TestMissingObsShape:
    def test_injected_missing_obs_ranked_near_top(self, spark, prep_lyft):
        # Paper: the single found example ranked first. Dataset-wide
        # rank within the top handful out of hundreds of candidates.
        out = harness.run_missing_obs(spark, prep=prep_lyft)
        assert out["found"]
        assert out["best_rank"] <= 3
        # The weak-overlap AOF shrinks the candidate pool to a handful,
        # as in the paper ("we were only able to find a single example").
        assert out["n_candidates"] <= 50


class TestModelErrorsShape:
    @pytest.fixture(scope="class")
    def result(self, spark, prep_lyft):
        return harness.run_model_errors(spark, prep=prep_lyft)

    def test_fixy_beats_uncertainty(self, result):
        # Paper: 82% vs 42% — roughly 2x.
        assert result["fixy_p10"] >= result["uncertainty_p10"] + 0.2

    def test_fixy_precision_high(self, result):
        assert result["fixy_p10"] >= 0.6

    def test_high_confidence_errors_found(self, result):
        # Paper: errors with confidence as high as 95%, which
        # uncertainty sampling structurally misses.
        assert result["max_conf_found_error"] is not None
        assert result["max_conf_found_error"] >= 0.85
