"""Unit tests for the scoring dataflow (repro.core.scoring)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.distributions import FeatureDistributions
from repro.core.factor_graph import aof_identity, aof_invert
from repro.core.kde import EPS, GaussianKDE
from repro.core.scoring import (
    make_logp_udf,
    rank_components,
    score_components,
    with_distance_logp,
    with_feature_logps,
)
from tests.util import assert_equivalent, make_obs_df


@pytest.fixture(scope="module")
def car_kde():
    rng = np.random.default_rng(0)
    return GaussianKDE.fit(rng.normal(13.7, 1.5, 500))


@pytest.fixture(scope="module")
def fd(car_kde):
    rng = np.random.default_rng(1)
    return FeatureDistributions(
        volume={"car": car_kde},
        velocity={"car": GaussianKDE.fit(np.abs(rng.normal(5, 3, 500)))},
    )


class TestLogpUdf:
    def test_matches_driver_side(self, spark, car_kde):
        vals = [10.0, 13.7, 20.0, 50.0]
        df = spark.createDataFrame(
            pd.DataFrame({"cls": ["car"] * 4, "v": vals, "i": range(4)})
        )
        udf = make_logp_udf({"car": car_kde})
        got = (
            df.withColumn("logp", udf(F.col("cls"), F.col("v")))
            .orderBy("i").select("logp").toPandas()["logp"].to_numpy()
        )
        np.testing.assert_allclose(
            got, np.log(car_kde.relative_likelihood(vals)), rtol=1e-9
        )

    def test_unknown_class_null(self, spark, car_kde):
        df = spark.createDataFrame(pd.DataFrame({"cls": ["bike"], "v": [13.7]}))
        udf = make_logp_udf({"car": car_kde})
        assert df.select(udf(F.col("cls"), F.col("v")).alias("lp")).first()["lp"] is None

    def test_null_value_null(self, spark, car_kde):
        df = spark.createDataFrame(pd.DataFrame({"cls": ["car"], "v": [None]}))
        udf = make_logp_udf({"car": car_kde})
        assert df.select(udf(F.col("cls"), F.col("v")).alias("lp")).first()["lp"] is None

    def test_invert_aof(self, spark, car_kde):
        df = spark.createDataFrame(pd.DataFrame({"cls": ["car"], "v": [13.7]}))
        udf = make_logp_udf({"car": car_kde}, aof=aof_invert)
        got = df.select(udf(F.col("cls"), F.col("v")).alias("lp")).first()["lp"]
        p = car_kde.relative_likelihood([13.7])[0]
        assert got == pytest.approx(np.log(max(1 - p, EPS)))

    def test_identity_and_invert_rank_oppositely(self, spark, car_kde):
        vals = [13.7, 30.0]
        df = spark.createDataFrame(
            pd.DataFrame({"cls": ["car"] * 2, "v": vals, "i": range(2)})
        )
        ident = make_logp_udf({"car": car_kde}, aof_identity)
        inv = make_logp_udf({"car": car_kde}, aof_invert)
        got = (
            df.withColumn("a", ident(F.col("cls"), F.col("v")))
            .withColumn("b", inv(F.col("cls"), F.col("v")))
            .orderBy("i").collect()
        )
        assert got[0]["a"] > got[1]["a"]  # typical more likely
        assert got[0]["b"] < got[1]["b"]  # and less "anomalous"


class TestWithFeatureLogps:
    def test_adds_columns(self, spark, fd):
        df = make_obs_df(spark, [{"obs_id": 0}]).withColumn("track_id", F.lit("t0"))
        out = with_feature_logps(df, fd)
        assert {"volume", "velocity", "volume_logp", "velocity_logp"} <= set(out.columns)

    def test_empty_distributions_no_columns(self, spark):
        df = make_obs_df(spark, [{"obs_id": 0}]).withColumn("track_id", F.lit("t0"))
        out = with_feature_logps(df, FeatureDistributions())
        assert "volume_logp" not in out.columns


class TestScoreComponents:
    def _scored_df(self, spark):
        pdf = pd.DataFrame(
            {
                "gid": ["a", "a", "a", "b", "b"],
                "volume_logp": [-1.0, -2.0, None, -4.0, -6.0],
                "velocity_logp": [None, -3.0, None, None, -2.0],
            }
        )
        return spark.createDataFrame(pdf)

    def test_normalization_by_factor_count(self, spark):
        got = {
            r["gid"]: r
            for r in score_components(self._scored_df(spark), ["gid"]).collect()
        }
        # a: (-1 - 2 - 3) / 3 factors; b: (-4 - 6 - 2) / 3 factors.
        assert got["a"]["n_factors"] == 3
        assert got["a"]["score"] == pytest.approx(-2.0)
        assert got["b"]["score"] == pytest.approx(-4.0)

    def test_component_with_no_factors_dropped(self, spark):
        pdf = pd.DataFrame({"gid": ["z"], "volume_logp": [None], "velocity_logp": [None]})
        assert score_components(spark.createDataFrame(pdf), ["gid"]).count() == 0

    def test_missing_columns_raise(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"gid": ["a"]}))
        with pytest.raises(ValueError):
            score_components(df, ["gid"])

    def test_subset_of_columns(self, spark):
        got = score_components(
            self._scored_df(spark), ["gid"], logp_cols=("volume_logp",)
        ).collect()
        got = {r["gid"]: r for r in got}
        assert got["a"]["score"] == pytest.approx(-1.5)

    def test_extra_aggregates_per_component(self, spark):
        got = score_components(
            self._scored_df(spark), ["gid"],
            extra_aggs=[F.count("*").alias("rows"), F.min("volume_logp").alias("worst")],
        )
        got = {r["gid"]: (r["rows"], r["worst"], r["score"]) for r in got.collect()}
        assert got == {"a": (3, -2.0, -2.0), "b": (2, -6.0, -4.0)}

    def test_oracle(self, spark):
        rng = np.random.default_rng(2)
        pdf = pd.DataFrame(
            {
                "gid": [f"g{i % 7}" for i in range(100)],
                "volume_logp": np.where(rng.random(100) < 0.2, np.nan, rng.normal(-2, 1, 100)),
                "velocity_logp": np.where(rng.random(100) < 0.5, np.nan, rng.normal(-3, 1, 100)),
            }
        )
        got = score_components(spark.createDataFrame(pdf), ["gid"])
        assert_equivalent(
            got,
            """
            SELECT gid,
                   count(volume_logp) + count(velocity_logp) AS n_factors,
                   (coalesce(sum(volume_logp), 0) + coalesce(sum(velocity_logp), 0))
                     / (count(volume_logp) + count(velocity_logp)) AS score
            FROM t GROUP BY gid
            HAVING count(volume_logp) + count(velocity_logp) > 0
            """,
            t=pdf,
        )


class TestDistanceLogpAndRanking:
    def test_distance_logp(self, spark):
        df = make_obs_df(spark, [{"obs_id": 0}]).withColumn("distance", F.lit(25.0))
        got = with_distance_logp(df).first()["distance_logp"]
        assert got == pytest.approx(-0.5)

    def test_rank_components_orders_by_score(self, spark):
        pdf = pd.DataFrame(
            {
                "scene_id": ["s"] * 3,
                "track_id": ["t1", "t2", "t3"],
                "score": [-2.0, -1.0, -3.0],
                "n_factors": [3, 3, 3],
            }
        )
        got = {
            r["track_id"]: r["rank"]
            for r in rank_components(spark.createDataFrame(pdf)).collect()
        }
        assert got == {"t2": 1, "t1": 2, "t3": 3}

    def test_rank_partitioned_per_scene(self, spark):
        pdf = pd.DataFrame(
            {
                "scene_id": ["s1", "s1", "s2"],
                "track_id": ["a", "b", "c"],
                "score": [-1.0, -2.0, -9.0],
                "n_factors": [1, 1, 1],
            }
        )
        got = {
            (r["scene_id"], r["track_id"]): r["rank"]
            for r in rank_components(spark.createDataFrame(pdf)).collect()
        }
        assert got[("s2", "c")] == 1  # best of its own scene despite low score

    def test_rank_ties_break_on_track_id(self, spark):
        # An extra column ahead of track_id orders the opposite way; it
        # must not decide ties.
        pdf = pd.DataFrame(
            {
                "scene_id": ["s", "s"],
                "track_n_obs": [9, 3],
                "track_id": ["a", "b"],
                "score": [-1.0, -1.0],
                "n_factors": [1, 1],
            }
        )
        got = {
            r["track_id"]: r["rank"]
            for r in rank_components(spark.createDataFrame(pdf)).collect()
        }
        assert got == {"a": 1, "b": 2}
