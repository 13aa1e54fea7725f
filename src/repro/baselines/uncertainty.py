"""Uncertainty sampling baseline (§8.1, §8.4).

"We additionally compared to uncertainty sampling, in which we sampled
predictions around a confidence threshold" — the standard active-
learning heuristic [26]. Predictions are ranked by closeness of their
confidence to the threshold; the closest are the "most uncertain" and
get audited first.

Its failure mode, which §8.4 demonstrates, is structural: a detector
error the model is *confident* about (the subtle errors, confidence up
to 0.95) is maximally far from the threshold and is never surfaced.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.schema import SOURCE_MODEL

#: The confidence the predictions are sampled around.
DEFAULT_THRESHOLD = 0.5


def rank_by_uncertainty(obs: DataFrame, k: int) -> pd.DataFrame:
    """The ``k`` model predictions closest to :data:`DEFAULT_THRESHOLD`,
    most uncertain first.

    Orders model observations by ``|confidence − threshold|`` ascending,
    ties broken by ``obs_id``, and collects the first ``k`` with their
    ``uncertainty`` and a 1-based ``rank``. A top-``k`` sort keeps only
    ``k`` rows per partition, where a global ranking window would move
    every prediction into one partition.
    """
    model = obs.where(F.col("source") == SOURCE_MODEL)
    top = (
        model.withColumn("uncertainty", F.abs(F.col("confidence") - F.lit(DEFAULT_THRESHOLD)))
        .orderBy(F.asc("uncertainty"), F.asc("obs_id"))
        .limit(k)
        .toPandas()
    )
    return top.assign(rank=range(1, len(top) + 1))
