"""Reference factor-graph semantics (paper §4.3, §6).

Fixy "compile[s] the scene, feature distributions, and AOFs to a
graphical model": a bipartite graph whose variable nodes are
observations and whose factor nodes are feature-distribution
applications; a factor over a group (bundle/track) gets one edge to
each observation in the group.

This module is the *literal*, driver-side implementation of those
semantics on small scenes. The production path
(:mod:`repro.core.scoring`) computes the same quantity as grouped Spark
aggregation; a property-based test asserts the two agree on random
scenes, so the scalable dataflow is pinned to the formal semantics.

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
