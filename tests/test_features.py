"""Unit tests for feature transforms, including DuckDB-oracle checks of
the window/aggregation dataflow."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.features import track_stats, with_distance, with_velocity, with_volume
from tests.util import assert_equivalent, make_obs_df, make_obs_rows


class TestVolumeDistance:
    def test_volume_value(self, spark):
        df = with_volume(make_obs_df(spark, [{"length": 2.0, "width": 3.0, "height": 4.0}]))
        assert df.first()["volume"] == pytest.approx(24.0)

    def test_distance_value(self, spark):
        df = with_distance(make_obs_df(spark, [{"cx": 3.0, "cy": 4.0}]))
        assert df.first()["distance"] == pytest.approx(5.0)

    def test_volume_oracle(self, spark):
        rows = make_obs_rows(
            [{"obs_id": i, "length": 1.0 + i, "width": 2.0, "height": 0.5}
             for i in range(20)]
        )
        got = with_volume(spark.createDataFrame(rows)).select("obs_id", "volume")
        assert_equivalent(
            got,
            "SELECT obs_id, length * width * height AS volume FROM obs",
            obs=rows,
        )

    def test_distance_oracle(self, spark):
        rows = make_obs_rows(
            [{"obs_id": i, "cx": float(i) - 5, "cy": 2.0 * i} for i in range(20)]
        )
        got = with_distance(spark.createDataFrame(rows)).select("obs_id", "distance")
        assert_equivalent(
            got,
            "SELECT obs_id, sqrt(cx * cx + cy * cy) AS distance FROM obs",
            obs=rows,
        )


class TestVelocity:
    def _tracked(self, spark, rows):
        df = make_obs_df(spark, rows)
        return with_velocity(df.withColumn("track_id", F.lit("t0")))

    def test_constant_speed(self, spark):
        # 1 m per 0.2 s frame → 5 m/s.
        rows = [{"obs_id": i, "frame_id": i, "cx": float(i)} for i in range(5)]
        got = self._tracked(spark, rows).orderBy("frame_id").collect()
        assert got[0]["velocity"] is None
        for r in got[1:]:
            assert r["velocity"] == pytest.approx(5.0)

    def test_stationary_zero(self, spark):
        rows = [{"obs_id": i, "frame_id": i} for i in range(4)]
        got = self._tracked(spark, rows).orderBy("frame_id").collect()
        assert all(r["velocity"] == pytest.approx(0.0) for r in got[1:])

    def test_partitioned_by_source(self, spark):
        # Human and model streams get independent transitions.
        rows = [
            {"obs_id": 0, "frame_id": 0, "source": "human", "cx": 0.0},
            {"obs_id": 1, "frame_id": 1, "source": "model", "cx": 100.0},
        ]
        got = self._tracked(spark, rows).collect()
        assert all(r["velocity"] is None for r in got)

    def test_velocity_oracle(self, spark):
        rng = np.random.default_rng(3)
        rows = make_obs_rows(
            [{"obs_id": i, "frame_id": i, "cx": float(rng.uniform(-10, 10)),
              "cy": float(rng.uniform(-10, 10))} for i in range(30)]
        )
        rows["track_id"] = "t0"
        df = with_velocity(spark.createDataFrame(rows))
        assert_equivalent(
            df.select("obs_id", "velocity"),
            """
            SELECT obs_id,
                   CASE WHEN t - lag(t) OVER w > 0 THEN
                     sqrt(pow(cx - lag(cx) OVER w, 2) + pow(cy - lag(cy) OVER w, 2))
                     / (t - lag(t) OVER w)
                   END AS velocity
            FROM obs
            WINDOW w AS (PARTITION BY track_id, source ORDER BY frame_id)
            """,
            obs=rows,
        )

    def test_gap_uses_actual_dt(self, spark):
        # Frames 0 and 2 (gap): dt = 0.4 s, 2 m → 5 m/s.
        rows = [
            {"obs_id": 0, "frame_id": 0, "cx": 0.0},
            {"obs_id": 1, "frame_id": 2, "cx": 2.0},
        ]
        got = self._tracked(spark, rows).orderBy("frame_id").collect()
        assert got[1]["velocity"] == pytest.approx(5.0)


class TestStats:
    def _df(self, spark):
        rows = [
            # track a: a human and a model box, then one model-only frame.
            {"obs_id": 0, "frame_id": 0, "source": "human", "confidence": 1.0},
            {"obs_id": 1, "frame_id": 0, "source": "model", "confidence": 0.8},
            {"obs_id": 2, "frame_id": 1, "source": "model", "confidence": 0.6},
            # track b: model only.
            {"obs_id": 3, "frame_id": 0, "source": "model", "confidence": 0.4, "cx": 30.0},
        ]
        track = F.when(F.col("obs_id") <= 2, "a").otherwise("b")
        return make_obs_df(spark, rows).withColumn("track_id", track)

    def test_track_stats_values(self, spark):
        got = {r["track_id"]: r for r in track_stats(self._df(spark)).collect()}
        assert got["a"]["track_n_obs"] == 3
        assert got["a"]["track_has_human"] == 1
        assert got["a"]["track_mean_conf"] == pytest.approx(0.7)
        assert got["a"]["track_max_conf"] == pytest.approx(0.8)
        assert got["b"]["track_has_human"] == 0
        assert got["b"]["track_mean_conf"] == pytest.approx(0.4)

    def test_track_stats_oracle(self, spark):
        rng = np.random.default_rng(4)
        rows = make_obs_rows(
            [{"obs_id": i, "frame_id": int(i % 7),
              "source": "human" if rng.random() < 0.4 else "model",
              "confidence": float(rng.random())} for i in range(60)]
        )
        rows["track_id"] = [f"t{i % 5}" for i in range(60)]
        got = track_stats(spark.createDataFrame(rows)).select(
            "track_id", "track_n_obs", "track_has_human", "track_mean_conf"
        )
        assert_equivalent(
            got,
            """
            SELECT track_id,
                   count(*) AS track_n_obs,
                   max(CASE WHEN source = 'human' THEN 1 ELSE 0 END) AS track_has_human,
                   avg(CASE WHEN source = 'model' THEN confidence END) AS track_mean_conf
            FROM obs GROUP BY track_id
            """,
            obs=rows,
        )
