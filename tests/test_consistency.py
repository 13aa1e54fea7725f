"""Property test: the Spark scoring dataflow (repro.core.scoring)
computes exactly the reference factor-graph semantics
(repro.core.factor_graph) on randomly generated scenes.

This is the load-bearing correctness test for the reproduction: the
scaled pipeline and the paper's formal §6 semantics must agree. Both
sides consume the same fitted distributions and AOF objects; the
reference graph comes from ``factor_graph.compile_scene``.
"""
import numpy as np
import pytest

from repro.core.distributions import FeatureDistributions
from repro.core.factor_graph import aof_identity, aof_invert, compile_scene
from repro.core.kde import GaussianKDE
from repro.core.scoring import score_components, with_feature_logps
from tests.util import make_obs_rows

#: ``car`` has volume and velocity distributions, ``truck`` volume
#: only, and ``bus`` none at all.
CLASSES = ("car", "truck", "bus")


def _random_scene(seed):
    """Random tracks of one class each, on random frames; some frames
    carry a jittered human observation next to the model one."""
    rng = np.random.default_rng(seed)
    rows = []
    for t in range(rng.integers(2, 6)):
        cls = str(rng.choice(CLASSES))
        n = int(rng.integers(1, 8))
        for frame in np.sort(rng.choice(12, n, replace=False)):
            side = float(rng.uniform(1.0, 3.0))
            row = {
                "frame_id": int(frame),
                "cls": cls,
                "cx": float(rng.uniform(-20, 20)),
                "cy": float(rng.uniform(-20, 20)),
                "length": side, "width": side, "height": side,
                "track_id": f"t{t}",
            }
            rows.append(row)
            if rng.random() < 0.4:
                rows.append(dict(row, source="human", cx=row["cx"] + rng.normal(0, 0.3)))
    pdf = make_obs_rows(rows)
    pdf["track_id"] = [r["track_id"] for r in rows]
    return pdf


@pytest.fixture(scope="module")
def dists():
    rng = np.random.default_rng(0)
    return FeatureDistributions(
        volume={
            "car": GaussianKDE.fit(rng.uniform(1, 30, 300)),
            "truck": GaussianKDE.fit(rng.uniform(5, 25, 300)),
        },
        velocity={"car": GaussianKDE.fit(np.abs(rng.normal(10, 8, 300)))},
    )


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "aof", [aof_identity, aof_invert], ids=lambda f: f.__name__.removeprefix("aof_")
)
def test_spark_scoring_equals_factor_graph(spark, dists, seed, aof):
    pdf = _random_scene(seed)

    scored = with_feature_logps(spark.createDataFrame(pdf), dists, aof=aof)
    got = {
        r["track_id"]: r["score"]
        for r in score_components(scored, ["track_id"]).collect()
    }

    g = compile_scene(pdf, dists, aof)
    expected = {
        trk: s
        for trk, ids in pdf.groupby("track_id")["obs_id"]
        if (s := g.score(ids)) is not None
    }

    assert set(got) == set(expected)
    for trk in expected:
        assert got[trk] == pytest.approx(expected[trk], rel=1e-6, abs=1e-9), trk
