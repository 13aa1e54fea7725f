"""Unit tests for evaluation metrics."""
import pandas as pd
import pytest

from repro.eval.metrics import mean_scene_precision_at_k, precision_at_k, recall


class TestPrecisionAtK:
    def test_basic(self):
        assert precision_at_k([1, 1, 0, 0], 4) == 0.5

    def test_truncates_to_k(self):
        assert precision_at_k([1, 1, 0, 0], 2) == 1.0

    def test_fewer_than_k_uses_max_available(self):
        # Paper: "we use the maximum number in these cases".
        assert precision_at_k([1, 0], 10) == 0.5

    def test_empty_is_none(self):
        assert precision_at_k([], 10) is None

    def test_bool_flags(self):
        assert precision_at_k([True, False], 2) == 0.5


class TestMeanScenePrecision:
    def _ranked(self):
        return pd.DataFrame(
            {
                "scene_id": ["a"] * 3 + ["b"] * 2,
                "rank": [1, 2, 3, 1, 2],
                "is_error": [True, True, False, False, True],
            }
        )

    def test_average_over_scenes(self):
        got = mean_scene_precision_at_k(self._ranked(), 10)
        assert got == pytest.approx((2 / 3 + 1 / 2) / 2)

    def test_k_truncation_per_scene(self):
        got = mean_scene_precision_at_k(self._ranked(), 1)
        assert got == pytest.approx((1.0 + 0.0) / 2)

    def test_scene_subset(self):
        got = mean_scene_precision_at_k(self._ranked(), 10, scenes=["a"])
        assert got == pytest.approx(2 / 3)

    def test_missing_scene_skipped(self):
        got = mean_scene_precision_at_k(self._ranked(), 10, scenes=["a", "zzz"])
        assert got == pytest.approx(2 / 3)

    def test_empty_none(self):
        got = mean_scene_precision_at_k(self._ranked().iloc[0:0], 10)
        assert got is None


class TestRecall:
    def test_basic(self):
        assert recall({1, 2}, {1, 2, 3, 4}) == 0.5

    def test_extraneous_found_ignored(self):
        assert recall({1, 2, 99}, {1, 2}) == 1.0

    def test_empty_truth_none(self):
        assert recall({1}, set()) is None
