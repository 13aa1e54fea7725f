"""Property test: the Spark scoring dataflow (repro.core.scoring)
computes exactly the reference factor-graph semantics
(repro.core.factor_graph) on randomly generated scenes.

This is the load-bearing correctness test for the reproduction: the
scaled pipeline and the paper's formal §6 semantics must agree.
"""
import math

import numpy as np
import pandas as pd
import pytest

from repro.core.distributions import FeatureDistributions
from repro.core.factor_graph import Factor, FactorGraph, aof_identity, aof_invert
from repro.core.kde import GaussianKDE
from repro.core.scoring import score_components, with_feature_logps
from tests.util import make_obs_df


def _random_scene(seed):
    """Random observations in random tracks with volume + velocity."""
    rng = np.random.default_rng(seed)
    rows = []
    oid = 0
    for t in range(rng.integers(2, 6)):
        n = int(rng.integers(1, 8))
        for i in range(n):
            side = float(rng.uniform(1.0, 3.0))
            rows.append(
                {
                    "obs_id": oid,
                    "frame_id": i,
                    "cx": float(rng.uniform(-20, 20)),
                    "cy": float(rng.uniform(-20, 20)),
                    "length": side, "width": side, "height": side,
                    "track": f"t{t}",
                }
            )
            oid += 1
    return rows


@pytest.fixture(scope="module")
def dists():
    rng = np.random.default_rng(0)
    return FeatureDistributions(
        volume={"car": GaussianKDE.fit(rng.uniform(1, 30, 300))},
        velocity={"car": GaussianKDE.fit(np.abs(rng.normal(10, 8, 300)))},
    )


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "aof", [aof_identity, aof_invert], ids=lambda f: f.__name__.removeprefix("aof_")
)
def test_spark_scoring_equals_factor_graph(spark, dists, seed, aof):
    rows = _random_scene(seed)
    track_of = {r["obs_id"]: r["track"] for r in rows}

    # --- Spark path -------------------------------------------------
    df = make_obs_df(spark, [{k: v for k, v in r.items() if k != "track"} for r in rows])
    track_map = spark.createDataFrame(
        pd.DataFrame({"obs_id": list(track_of), "track_id": list(track_of.values())})
    )
    df = df.join(track_map, "obs_id")
    scored = with_feature_logps(df, dists, aof=aof)
    got = {
        r["track_id"]: r["score"]
        for r in score_components(scored, ["track_id"]).collect()
    }

    # --- Reference factor graph -------------------------------------
    g = FactorGraph()
    for r in rows:
        g.add_observation(r["obs_id"])
    by_track: dict[str, list[dict]] = {}
    for r in rows:
        by_track.setdefault(r["track"], []).append(r)
    for trk, obs_list in by_track.items():
        obs_list.sort(key=lambda r: r["frame_id"])
        for i, r in enumerate(obs_list):
            vol = r["length"] * r["width"] * r["height"]
            p = float(dists.volume["car"].relative_likelihood([vol])[0])
            g.add_factor(Factor("volume", (r["obs_id"],), p, aof=aof))
            if i > 0:
                prev = obs_list[i - 1]
                dt = (r["frame_id"] - prev["frame_id"]) * 0.2
                v = math.hypot(r["cx"] - prev["cx"], r["cy"] - prev["cy"]) / dt
                pv = float(dists.velocity["car"].relative_likelihood([v])[0])
                g.add_factor(Factor("velocity", (r["obs_id"],), pv, aof=aof))
    expected = {
        trk: g.score([r["obs_id"] for r in obs_list])
        for trk, obs_list in by_track.items()
    }

    assert set(got) == set(expected)
    for trk in expected:
        assert got[trk] == pytest.approx(expected[trk], rel=1e-6, abs=1e-9), trk
