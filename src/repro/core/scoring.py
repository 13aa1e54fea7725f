"""Online phase: scoring OBTs and ranking potential errors (paper §6).

An observation's score is ``Σ_i ln(f_i(p_i(π_i(ω))))`` over its feature
distributions ``p_i`` transformed by AOFs ``f_i``; a component's score
is the observations' total normalized by the number of feature
distributions (factors) connecting to the component, so components of
different sizes are comparable.

Dataflow: the KDE log-likelihood of each feature value is computed by a
pandas UDF holding the (small, pickled) fitted distributions — numpy-
vectorized per Arrow batch. Component scores are then one grouped
aggregation: ``sum(logp) / count(logp)`` over all non-null feature-logp
entries, which equals the mean over connected factors (null feature
values contribute no factor). Ranking is a window function per scene.

AOFs are the paper's two numeric forms from
:mod:`repro.core.factor_graph` — ``aof_identity`` (find likely
components, e.g. consistent model-only tracks = probable missing labels)
and ``aof_invert`` (``f(x) = 1 − x``; find *unlikely* components, e.g.
erroneous model predictions, §7) — plus zero-out filters, which are
implemented as DataFrame filters since ``ln 0`` removes a component
outright.
"""
from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, Window
from pyspark.sql import functions as F
from pyspark.sql.functions import pandas_udf

from repro.core.distributions import FeatureDistributions
from repro.core.factor_graph import aof_identity
from repro.core.features import LEARNED_FEATURES, with_learned_features

#: The factor columns :func:`with_feature_logps` attaches.
LEARNED_LOGPS = tuple(f"{name}_logp" for name in LEARNED_FEATURES)

#: Length scale of the manual distance severity feature, in metres.
DISTANCE_SCALE_M = 50.0


def make_logp_udf(dists_by_cls: Mapping[str, object], aof: Callable = aof_identity):
    """Build a pandas UDF ``(cls, value) -> ln(aof(p(value)))``.

    ``dists_by_cls`` maps class name to a fitted distribution exposing
    ``relative_likelihood``; rows whose class has no distribution, or
    whose value is null/non-finite, yield null (no factor). ``aof`` is
    applied to numpy arrays of ``p``.
    """
    dists = dict(dists_by_cls)

    @pandas_udf("double")
    def logp(cls: pd.Series, val: pd.Series) -> pd.Series:
        v = val.to_numpy(dtype=np.float64, na_value=np.nan)
        out = np.full(v.shape, np.nan)
        for c, d in dists.items():
            m = (cls == c).to_numpy() & np.isfinite(v)
            if m.any():
                out[m] = np.log(aof(d.relative_likelihood(v[m])))
        return pd.Series(out)

    return logp


def with_feature_logps(
    df: DataFrame, fd: FeatureDistributions, aof: Callable = aof_identity
) -> DataFrame:
    """Compute the learned features of tracked observations ``df`` and
    attach a ``<feature>_logp`` column for each feature ``fd`` has
    distributions for."""
    out = with_learned_features(df)
    for name in LEARNED_FEATURES:
        if dists := getattr(fd, name):
            logp = make_logp_udf(dists, aof)(F.col("cls"), F.col(name))
            out = out.withColumn(f"{name}_logp", logp)
    return out


def with_distance_logp(df: DataFrame) -> DataFrame:
    """Manually-specified severity feature (§5: "The user may also
    manually specify feature distributions to rank severity (e.g.,
    distance of an object to the AV)").

    ``p = exp(−distance/DISTANCE_SCALE_M)`` — nearby objects are the
    important ones ("the motorcycle is close to the autonomous vehicle,
    which is especially problematic for downstream planning", §8.2) —
    so ``logp = −distance/DISTANCE_SCALE_M``, a plain column expression.
    """
    return df.withColumn("distance_logp", -F.col("distance") / F.lit(DISTANCE_SCALE_M))


def score_components(
    df: DataFrame,
    group_cols: Sequence[str],
    logp_cols: Sequence[str] = LEARNED_LOGPS,
    extra_aggs: Sequence[Column] = (),
) -> DataFrame:
    """Aggregate observation-level factor log-probs into component
    scores: ``score = Σ logp / #non-null logps`` (paper §6's
    normalization by connected factor count).

    Returns one row per component with ``score``, ``n_factors`` and one
    column per aggregate of ``extra_aggs``, computed in the same
    ``groupBy``; components with zero factors are dropped (nothing
    connects to them, so they have no defined plausibility).
    """
    present = [c for c in logp_cols if c in df.columns]
    if not present:
        raise ValueError(f"none of {logp_cols} present in DataFrame")
    total = sum(F.coalesce(F.sum(F.col(c)), F.lit(0.0)) for c in present)
    count = sum(F.count(F.col(c)) for c in present)
    return (
        df.groupBy(*group_cols)
        .agg(total.alias("_total"), count.alias("n_factors"), *extra_aggs)
        .where(F.col("n_factors") > 0)
        .withColumn("score", F.col("_total") / F.col("n_factors"))
        .drop("_total")
    )


def rank_components(scored: DataFrame) -> DataFrame:
    """Attach a 1-based ``rank`` per scene by descending score, ties
    broken by ``track_id`` for determinism."""
    w = Window.partitionBy("scene_id").orderBy(F.desc("score"), F.asc("track_id"))
    return scored.withColumn("rank", F.row_number().over(w))
