"""Plan shape: how often a pipeline pass shuffles its observations.

Wall time varies from run to run; the physical plan does not. These
tests read the plan Spark would execute and pin the shuffles of the two
hot paths: association (the tracker returns its rows, nothing joins
them back) and the Table 3 per-track aggregate (one window shuffle for
velocity, one ``groupBy`` shuffle for everything a track needs). They
also pin the joins of the §8.3 score frame, whose AOF is row predicates
apart from the weak-overlap filter.
"""
import re

import pytest

from repro.eval import harness


def _plan_nodes(df) -> list[tuple[int, str]]:
    """``(indent, node)`` for each line of ``df``'s physical plan. A
    node's ancestors are the nearest preceding lines of smaller indent;
    a cached frame's plan is nested under its ``InMemoryRelation``."""
    plan = df._jdf.queryExecution().executedPlan().toString()
    nodes = []
    for line in plan.splitlines():
        node = line.lstrip(" :+-")
        nodes.append((len(line) - len(node), node))
    return nodes


def _ancestors(nodes, i) -> list[str]:
    indent, up = nodes[i][0], []
    for j in range(i - 1, -1, -1):
        if nodes[j][0] < indent:
            indent = nodes[j][0]
            up.append(nodes[j][1])
    return up


def _own_nodes(df) -> list[str]:
    """The nodes of ``df``'s plan itself, not of the cached frames it
    reads."""
    nodes = _plan_nodes(df)
    return [
        node
        for i, (_, node) in enumerate(nodes)
        if not any(a.startswith("InMemoryRelation") for a in _ancestors(nodes, i))
    ]


def _names(cols: str) -> list[str]:
    """Column names of a plan's comma-separated attribute list."""
    return [c.split("#")[0] for c in cols.split(", ")]


def _shuffle_keys(df) -> list[list[str]]:
    """The hash-partitioning columns of every shuffle of ``df`` itself,
    not of the cached frames it reads."""
    keys = []
    for node in _own_nodes(df):
        if node.startswith("Exchange"):
            m = re.search(r"hashpartitioning\(([^)]*)\)", node)
            # The last argument is the partition count.
            keys.append(_names(m.group(1))[:-1] if m else [node])
    return keys


def _joins(df) -> list[tuple[list[str], str]]:
    """``(left keys, join type)`` of every join of ``df`` itself."""
    joins = []
    for node in _own_nodes(df):
        if m := re.match(r"\w+Join \[([^\]]*)\], \[[^\]]*\], (\w+)", node):
            joins.append((_names(m.group(1)), m.group(2)))
    return joins


@pytest.fixture(scope="module")
def prep(spark):
    return harness.prepare(spark, "lyft", 0.05)


def test_tracked_frame_not_joined_above_the_tracker(prep):
    nodes = _plan_nodes(prep.tracked)
    trackers = [i for i, (_, n) in enumerate(nodes) if n.startswith("FlatMapGroupsInPandas")]
    assert trackers
    for i in trackers:
        assert not [a for a in _ancestors(nodes, i) if "Join" in a]


def test_table3_aggregate_shuffles_for_window_and_groupby_only(prep):
    keys = _shuffle_keys(harness.missing_track_scores(prep))
    assert sorted(keys) == [["scene_id", "track_id"], ["track_id", "source"]]


def test_missing_obs_scores_join_only_for_weak_overlap(prep):
    joins = _joins(harness.missing_obs_scores(prep))
    assert sorted(joins) == [(["obs_id"], "LeftAnti"), (["scene_id", "frame_id"], "Inner")]
