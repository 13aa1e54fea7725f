"""The user-facing LOA API (paper §3's worked example and §4).

The paper embeds LOA in Python: users subclass a :class:`Bundler` to
define association and a :class:`KDEObsDistribution` to define a
feature, e.g. (verbatim from §3):

    class TrackBundler(Bundler):
        def is_associated(self, box1, box2):
            return compute_iou(box1, box2) > 0.5

    class VolumeDistribution(KDEObsDistribution):
        def feature(self, box):
            vol = box.width * box.height * box.length
            return vol

"These two code snippets ... are all that a user need to provide."
Everything else — learning the distributions, compiling the factor
graph, scoring, ranking — is automatic. :func:`compile_scene` performs
the §4.3 compilation: one variable node per observation, one factor per
(feature distribution, OBT it applies to), one edge per observation in
the OBT.

Scene structure follows §4.2's formalism: a scene is a set of tracks; a
track an indexed sequence of bundles; a bundle a set of observations.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.association.iou import iou_numpy
from repro.core.factor_graph import Factor, FactorGraph, aof_identity, aof_invert  # noqa: F401
from repro.core.kde import GaussianKDE

# --------------------------------------------------------------------
# Scene model (Table 1: s = {τ}; τ = (β_0..β_n); β = {ω}).
# --------------------------------------------------------------------


@dataclass
class Box:
    """A 3D bounding box with the attribute names the paper's snippets
    use (``box.width * box.height * box.length``)."""

    cx: float = 0.0
    cy: float = 0.0
    cz: float = 0.0
    length: float = 1.0
    width: float = 1.0
    height: float = 1.0

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.cx, self.cy, self.cz, self.length, self.width, self.height]
        )


@dataclass
class Observation:
    """ω — one box from one source at one timestep."""

    obs_id: int
    source: str
    cls: str
    box: Box
    t: float = 0.0
    confidence: float = 1.0


@dataclass
class Bundle:
    """β — observations of one object within a single time step."""

    observations: list[Observation] = field(default_factory=list)

    def obs_ids(self) -> tuple[int, ...]:
        return tuple(o.obs_id for o in self.observations)


@dataclass
class Track:
    """τ — an indexed sequence of observation bundles."""

    bundles: list[Bundle] = field(default_factory=list)

    def obs_ids(self) -> tuple[int, ...]:
        return tuple(i for b in self.bundles for i in b.obs_ids())


@dataclass
class Scene:
    """s — a set of tracks."""

    tracks: list[Track] = field(default_factory=list)

    def obs_ids(self) -> tuple[int, ...]:
        return tuple(i for t in self.tracks for i in t.obs_ids())


# --------------------------------------------------------------------
# Association.
# --------------------------------------------------------------------


def compute_iou(box1: Box, box2: Box) -> float:
    """3D IOU between two boxes (the helper the paper's snippet calls)."""
    return float(iou_numpy(box1.as_array(), box2.as_array()))


class Bundler:
    """Association policy. The default is the paper's: IOU > 0.5."""

    iou_threshold: float = 0.5

    def is_associated(self, box1: Box, box2: Box) -> bool:
        return compute_iou(box1, box2) > self.iou_threshold


# --------------------------------------------------------------------
# Feature distributions (§5) — users override ``feature``.
# --------------------------------------------------------------------


class ObsDistribution:
    """A learned feature distribution over single observations.

    Subclasses override :meth:`feature`; :meth:`fit` learns the
    estimator from existing observations, :meth:`likelihood` evaluates
    new ones. ``fit_fn`` is the §5.2 "function that accepts a list of
    scalars/vectors and returns a fitted distribution"; the KDE default
    lives in :class:`KDEObsDistribution`.
    """

    name = "obs_feature"

    def feature(self, box: Box) -> float:
        raise NotImplementedError

    def _fit_fn(self, values):
        raise NotImplementedError

    def fit(self, observations: Sequence[Observation]) -> "ObsDistribution":
        self._dist = self._fit_fn([self.feature(o.box) for o in observations])
        return self

    def likelihood(self, obs: Observation) -> float:
        return float(self._dist.relative_likelihood(self.feature(obs.box))[0])


class KDEObsDistribution(ObsDistribution):
    """§3: "KDEObsDistribution takes features and learns a KDE density
    estimator over the features"."""

    def _fit_fn(self, values):
        return GaussianKDE.fit(values)


# --------------------------------------------------------------------
# Application objective functions (§5.3). ``aof_identity`` and
# ``aof_invert`` come from :mod:`repro.core.factor_graph`, which the
# Spark scoring path shares.
# --------------------------------------------------------------------


def aof_zero_if(pred: Callable[[float], bool]) -> Callable[[float], float]:
    """Zero out a component under a condition (ln 0 removes it)."""

    def f(x: float) -> float:
        return 0.0 if pred(x) else x

    return f


# --------------------------------------------------------------------
# Compilation (§4.3).
# --------------------------------------------------------------------


def compile_scene(
    scene: Scene,
    distributions: Sequence[ObsDistribution],
    aof: Callable[[float], float] = aof_identity,
) -> FactorGraph:
    """Compile a scene against fitted observation distributions.

    Creates a variable node per observation and, for each (distribution,
    observation) pair, a data-bound factor holding the distribution's
    likelihood for that observation, transformed at scoring time by
    ``aof``. Group-level factors (bundle/track features) can be added to
    the returned graph directly via :class:`Factor`.
    """
    g = FactorGraph()
    all_obs = [o for t in scene.tracks for b in t.bundles for o in b.observations]
    for o in all_obs:
        g.add_observation(o.obs_id)
    for d in distributions:
        for o in all_obs:
            g.add_factor(
                Factor(name=d.name, obs_ids=(o.obs_id,), p=d.likelihood(o), aof=aof)
            )
    return g
