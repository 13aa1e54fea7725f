"""Offline phase: learning feature distributions from existing labels.

Paper §5.2: "Given features, Fixy can automatically fit feature
distributions over existing training datasets. ... Fixy first
exhaustively generates the features over the data and collects the
scalar or vector values. Then, for each feature, Fixy executes the
fitting function over the scalar/vector values."

We do exactly that: feature generation runs as Spark dataflow over the
training labels; the resulting *scalars* (a few per label — tiny
compared to the data) are collected to the driver where the fitting
function, :meth:`GaussianKDE.fit <repro.core.kde.GaussianKDE.fit>`, runs
per (feature, class). The fitted distributions are small picklable
objects that scoring broadcasts back to executors inside pandas UDFs.

Distributions are class-conditional (Table 2: "Class-conditional box
volume", "Class-conditional object velocity") — a 30 m³ volume is
normal for a truck and wildly anomalous for a pedestrian.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.features import LEARNED_FEATURES, with_learned_features
from repro.core.kde import GaussianKDE

#: Classes with fewer values of a feature than this get no distribution
#: for it (too few to support a density estimate).
MIN_FIT_SAMPLES = 8


@dataclass
class FeatureDistributions:
    """Fitted class-conditional distributions, keyed by class name; one
    field per name in :data:`~repro.core.features.LEARNED_FEATURES`."""

    volume: dict[str, GaussianKDE] = field(default_factory=dict)
    velocity: dict[str, GaussianKDE] = field(default_factory=dict)


def learn_feature_distributions(train_labels: DataFrame) -> FeatureDistributions:
    """Fit class-conditional volume and velocity distributions.

    Args:
        train_labels: human labels over training scenes (canonical
            observation schema). Their vendor instance id
            (``gt_track_id``) keys the transition feature.

    Returns:
        :class:`FeatureDistributions`.
    """
    feats = with_learned_features(
        train_labels.withColumn("track_id", F.col("gt_track_id").cast("string"))
    )
    # Spark returns rows in an order set by the shuffle layout, and a fit
    # that subsamples (GaussianKDE's max_points) depends on the order of
    # its values, so put them in (track, frame) order first.
    pdf = (
        feats.select("cls", *LEARNED_FEATURES, "track_id", "frame_id", "obs_id")
        .toPandas()
        .sort_values(["track_id", "frame_id", "obs_id"])
    )
    fd = FeatureDistributions()
    for cls, grp in pdf.groupby("cls"):
        for name in LEARNED_FEATURES:
            values = grp[name].dropna().to_numpy()
            if values.size >= MIN_FIT_SAMPLES:
                getattr(fd, name)[cls] = GaussianKDE.fit(values)
    return fd
