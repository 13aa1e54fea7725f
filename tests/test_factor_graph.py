"""Unit tests for the reference factor-graph semantics (paper §6)."""
import math

import numpy as np
import pytest

from repro.core.distributions import FeatureDistributions
from repro.core.factor_graph import (
    Factor,
    FactorGraph,
    aof_identity,
    aof_invert,
    compile_scene,
)
from repro.core.kde import EPS, GaussianKDE
from tests.util import make_obs_rows


def graph(*factors, n_obs=4):
    g = FactorGraph()
    for i in range(n_obs):
        g.add_observation(i)
    for f in factors:
        g.add_factor(f)
    return g


class TestFactorGraph:
    def test_unknown_observation_rejected(self):
        g = graph()
        with pytest.raises(KeyError):
            g.add_factor(Factor("vol", (99,), 0.5))

    def test_single_observation_score(self):
        g = graph(Factor("vol", (0,), 0.5), Factor("vel", (0,), 0.25))
        assert g.score([0]) == pytest.approx((math.log(0.5) + math.log(0.25)) / 2)

    def test_paper_worked_example(self):
        # §6: volumes scored 0.37 and 0.39, velocity 0.21 →
        # (ln .37 + ln .39 + ln .21)/3 = −1.17.
        g = graph(
            Factor("vol", (0,), 0.37),
            Factor("vol", (1,), 0.39),
            Factor("vel", (1,), 0.21),
        )
        assert g.score([0, 1]) == pytest.approx(-1.17, abs=0.005)

    def test_normalization_makes_sizes_comparable(self):
        # A 2-obs and a 4-obs component with the same per-factor
        # likelihood score identically (§6's normalization rationale).
        small = graph(*[Factor("vol", (i,), 0.5) for i in range(2)])
        big = graph(*[Factor("vol", (i,), 0.5) for i in range(4)])
        assert small.score([0, 1]) == pytest.approx(big.score([0, 1, 2, 3]))

    def test_no_connected_factors_none(self):
        g = graph(Factor("vol", (0,), 0.5))
        assert g.score([1]) is None

    def test_zeroing_aof_removes_component(self):
        g = graph(
            Factor("vol", (0,), 0.9),
            Factor("filter", (0,), 1.0, aof=lambda x: 0.0),
        )
        assert g.score([0]) == -math.inf

    def test_invert_aof(self):
        g = graph(Factor("vol", (0,), 0.9, aof=lambda x: 1 - x))
        assert g.score([0]) == pytest.approx(math.log(0.1), abs=1e-9)

    def test_group_factor_counts_once(self):
        # A track-level factor connecting several observations is one
        # factor in the normalization.
        g = graph(
            Factor("vol", (0,), 0.5),
            Factor("vol", (1,), 0.5),
            Factor("track_len", (0, 1), 0.8),
        )
        expected = (2 * math.log(0.5) + math.log(0.8)) / 3
        assert g.score([0, 1]) == pytest.approx(expected)

    def test_partial_component_overlap(self):
        # A factor connects if it touches any obs in the component.
        g = graph(Factor("pair", (0, 1), 0.6))
        assert g.score([0]) == pytest.approx(math.log(0.6))

    def test_rank_orders_and_filters(self):
        g = graph(
            Factor("vol", (0,), 0.9),
            Factor("vol", (1,), 0.1),
            Factor("kill", (2,), 1.0, aof=lambda x: 0.0),
        )
        ranked = g.rank({"a": [0], "b": [1], "c": [2], "d": [3]})
        assert ranked == [("a", pytest.approx(math.log(0.9))),
                          ("b", pytest.approx(math.log(0.1)))]

    def test_tiny_probability_floored(self):
        g = graph(Factor("vol", (0,), 1e-300))
        assert g.score([0]) == pytest.approx(math.log(EPS))

    def test_connected_factors_listing(self):
        f1 = Factor("vol", (0,), 0.5)
        f2 = Factor("vol", (1,), 0.5)
        g = graph(f1, f2)
        assert g.connected_factors([0]) == [f1]
        assert len(g.connected_factors([0, 1])) == 2


class TestAofs:
    def test_identity(self):
        assert aof_identity(0.3) == 0.3

    def test_invert(self):
        assert aof_invert(0.3) == pytest.approx(0.7)
        assert aof_invert(1.0) == EPS


def tracked(rows):
    """Observation pandas frame with a ``track_id`` per row."""
    pdf = make_obs_rows(rows)
    pdf["track_id"] = [r.get("track_id", "t0") for r in rows]
    return pdf


def cube(side, **kw):
    return dict(length=side, width=side, height=side, **kw)


class TestCompileScene:
    @pytest.fixture(scope="class")
    def fd(self):
        rng = np.random.default_rng(2)
        return FeatureDistributions(
            volume={"car": GaussianKDE.fit(rng.normal(8, 0.5, 100))},
            velocity={"car": GaussianKDE.fit(np.abs(rng.normal(10, 2, 100)))},
        )

    def test_nodes_and_factors(self, fd):
        # Three car observations in one track, one bus (no distribution).
        obs = tracked(
            [{"frame_id": f, "cx": 2.0 * f} for f in range(3)]
            + [{"cls": "bus", "track_id": "t1"}]
        )
        g = compile_scene(obs, fd)
        assert len(g.observations) == 4
        names = sorted(f.name for f in g.factors)
        assert names == ["velocity"] * 2 + ["volume"] * 3
        assert g.connected_factors([3]) == []
        assert g.score([3]) is None

    def test_velocity_from_t_within_source(self, fd):
        # The human label has no predecessor of its own source; the
        # model's second box moved 5 m in 0.5 s.
        obs = tracked(
            [
                {"frame_id": 0, "t": 0.0},
                {"frame_id": 1, "t": 0.5, "cx": 5.0},
                {"frame_id": 1, "t": 0.5, "cx": 5.0, "source": "human"},
            ]
        )
        (vel,) = [f for f in compile_scene(obs, fd).factors if f.name == "velocity"]
        assert vel.obs_ids == (1,)
        assert vel.p == pytest.approx(fd.velocity["car"].relative_likelihood([10.0])[0])

    def test_scoring_ranks_likely_first(self, fd):
        obs = tracked([cube(2.0), cube(4.0, track_id="t1")])  # vol 8 vs 64
        ranked = compile_scene(obs, fd).rank({"typical": [0], "weird": [1]})
        assert [name for name, _ in ranked] == ["typical", "weird"]

    def test_invert_aof_flips_ranking(self, fd):
        obs = tracked([cube(2.0), cube(4.0, track_id="t1")])
        ranked = compile_scene(obs, fd, aof_invert).rank({"typical": [0], "weird": [1]})
        assert [name for name, _ in ranked] == ["weird", "typical"]
