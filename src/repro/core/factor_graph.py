"""Reference factor-graph semantics (paper §4.3, §6).

Fixy "compile[s] the scene, feature distributions, and AOFs to a
graphical model": a bipartite graph whose variable nodes are
observations and whose factor nodes are feature-distribution
applications; a factor over a group (bundle/track) gets one edge to
each observation in the group.

This module is the *literal*, driver-side implementation of those
semantics on small scenes. :func:`compile_scene` builds the graph for a
scene of tracked observations from the same fitted
``FeatureDistributions`` and AOF objects the production path
(:mod:`repro.core.scoring`) uses; that path computes the same quantity
as grouped Spark aggregation, and a property-based test asserts the two
agree on random scenes, so the scalable dataflow is pinned to the
formal semantics.

Scoring (§6): an observation's score is the sum of ``ln(AOF(p))`` over
its factors; a component's score is the total over its observations
normalized by the number of factors connecting to the component. A
factor whose AOF yields exactly zero removes the component (``ln 0 =
−∞``); callers filter such components out, as the applications in §7 do.

The paper's two numeric AOFs (§5.3) live here too. They are numpy
expressions, so the same function transforms a scalar :class:`Factor`
probability and a whole array of them in the Spark scoring UDF.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np
import pandas as pd

from repro.core.kde import EPS


def aof_identity(x):
    """Find likely components (e.g. tracks the human labelers missed)."""
    return x


def aof_invert(x):
    """f(x) = 1 − x — find unlikely components (e.g. ghost tracks)."""
    return np.maximum(1.0 - x, EPS)


@dataclass
class ObsNode:
    """A variable node: one observation."""

    obs_id: int


@dataclass
class Factor:
    """A factor node: one feature-distribution application.

    Attributes:
        name: feature-distribution name (for inspection).
        obs_ids: the observation(s) this factor connects to.
        p: the feature distribution's probability for the observed
            feature value (already evaluated — factors are data-bound).
        aof: numeric transform applied to ``p`` before the log.
    """

    name: str
    obs_ids: tuple[int, ...]
    p: float
    aof: Callable[[float], float] = aof_identity


@dataclass
class FactorGraph:
    """Bipartite graph of observations and data-bound factors."""

    observations: dict[int, ObsNode] = field(default_factory=dict)
    factors: list[Factor] = field(default_factory=list)

    def add_observation(self, obs_id: int) -> None:
        self.observations[obs_id] = ObsNode(obs_id)

    def add_factor(self, factor: Factor) -> None:
        for o in factor.obs_ids:
            if o not in self.observations:
                raise KeyError(f"factor {factor.name} references unknown observation {o}")
        self.factors.append(factor)

    def connected_factors(self, component: Iterable[int]) -> list[Factor]:
        comp = set(component)
        return [f for f in self.factors if comp.intersection(f.obs_ids)]

    def score(self, component: Iterable[int]) -> float | None:
        """Score a component (any set of observation ids) per §6.

        Returns ``None`` when no factor connects to the component, and
        ``−inf`` when any connected factor's AOF zeroes it out.
        """
        factors = self.connected_factors(component)
        if not factors:
            return None
        total = 0.0
        for f in factors:
            v = f.aof(f.p)
            if v <= 0.0:
                return -math.inf
            total += math.log(max(v, EPS))
        return total / len(factors)

    def rank(self, components: dict[str, Iterable[int]]) -> list[tuple[str, float]]:
        """Rank named components by descending score, dropping the
        unscored and the zeroed-out."""
        scored = []
        for name, comp in components.items():
            s = self.score(comp)
            if s is not None and s != -math.inf:
                scored.append((name, s))
        return sorted(scored, key=lambda kv: (-kv[1], kv[0]))


def compile_scene(obs: pd.DataFrame, fd, aof: Callable = aof_identity) -> FactorGraph:
    """Compile tracked observations into a factor graph (paper §4.3).

    ``obs`` holds canonical observation rows plus ``track_id``; ``fd``
    is a fitted ``FeatureDistributions``. Every observation gets a node.
    It gets a ``volume`` factor, and a ``velocity`` factor when an
    earlier observation of the same ``(track_id, source)`` precedes it
    in time, if its class has a distribution for that feature. The
    features are computed here, independently of the Spark column
    expressions they are checked against.
    """
    g = FactorGraph()
    prev = {}
    for r in obs.sort_values("frame_id", kind="stable").itertuples():
        g.add_observation(r.obs_id)
        feats = {"volume": r.length * r.width * r.height}
        if (q := prev.get((r.track_id, r.source))) is not None and r.t > q.t:
            feats["velocity"] = math.hypot(r.cx - q.cx, r.cy - q.cy) / (r.t - q.t)
        prev[(r.track_id, r.source)] = r
        for name, value in feats.items():
            if (dist := getattr(fd, name).get(r.cls)) is not None:
                p = float(dist.relative_likelihood([value])[0])
                g.add_factor(Factor(name, (r.obs_id,), p, aof))
    return g
