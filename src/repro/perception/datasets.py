"""Dataset configurations mirroring the paper's two evaluation datasets.

Two configs (paper §8.1: "The class labels, sampling rate, and physical
sensor layout differ between the two datasets"):

- **lyft**: 46 evaluation scenes, 25 s @ 5 Hz. Noisy: "the Lyft dataset
  is very noisy" (§8.2) — high missing-track rate (the paper found
  errors in 32 of 46 scenes and mentions "the sheer number of errors"),
  a noisier detector with wide, poorly-calibrated confidences (which is
  why confidence-ordering barely beats random in Table 3's Lyft rows).
- **internal**: 13 evaluation scenes, 15 s @ 10 Hz. Cleaner labels and
  a calibrated detector (ghosts get low confidence), plus one
  exhaustively-audited scene carrying exactly 24 missing tracks — the
  paper's recall scene (§8.2: "It contained 24 missing tracks").

Each config also generates *training* scenes whose (noisy) vendor
labels are the "organizational resources" Fixy learns feature
distributions from (§5). A ``scale`` knob shrinks scene counts for unit
tests; ``jobs/reproduce.py`` runs paper scale by default.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.schema import OBS_COLUMNS, OBS_SCHEMA
from repro.perception.detector import DetectorConfig, generate_predictions
from repro.perception.labels import LabelManifest, LabelNoiseConfig, generate_labels
from repro.perception.world import WorldConfig, generate_world

#: Scene id of the internal dataset's exhaustively-audited scene.
INTERNAL_AUDIT_SCENE = "int-0000"
#: The paper's audited scene contained exactly this many missing tracks.
INTERNAL_AUDIT_MISSING = 24


@dataclass(frozen=True)
class DatasetConfig:
    """One dataset = eval world + vendor noise + detector + train world."""

    name: str
    world: WorldConfig
    labels: LabelNoiseConfig
    detector: DetectorConfig
    train_world: WorldConfig
    train_labels: LabelNoiseConfig


def lyft_config(scale: float = 1.0, duration_s: float = 25.0) -> DatasetConfig:
    """The Lyft-like dataset at ``scale`` (1.0 = the paper's 46 scenes)."""
    n_eval = max(2, round(46 * scale))
    n_train = max(2, round(20 * scale))
    return DatasetConfig(
        name="lyft",
        world=WorldConfig(
            n_scenes=n_eval, duration_s=duration_s, hz=5.0,
            objects_range=(18, 28), scene_prefix="lyft", seed=10,
        ),
        labels=LabelNoiseConfig(
            p_missing_track=0.3, n_missing_obs=3,
            jitter_pos_sd=0.08, jitter_dim_sd=0.04, seed=11,
        ),
        detector=DetectorConfig(
            p_track_detect=0.85, p_frame_miss=0.04,
            jitter_pos_sd=0.15, jitter_dim_sd=0.06,
            conf=(0.78, 0.13), ghosts_range=(10, 16), ghost_conf=(0.45, 0.92),
            p_ghost_smooth=0.12, subtle_range=(1, 3), seed=12,
        ),
        train_world=WorldConfig(
            n_scenes=n_train, duration_s=duration_s, hz=5.0,
            objects_range=(18, 28), scene_prefix="lyft-train", seed=13,
        ),
        train_labels=LabelNoiseConfig(
            p_missing_track=0.3, jitter_pos_sd=0.08, jitter_dim_sd=0.04, seed=14,
        ),
    )


def internal_config(scale: float = 1.0, duration_s: float = 15.0) -> DatasetConfig:
    """The internal-like dataset at ``scale`` (1.0 = 13 scenes)."""
    n_eval = max(2, round(13 * scale))
    n_train = max(2, round(10 * scale))
    return DatasetConfig(
        name="internal",
        world=WorldConfig(
            n_scenes=n_eval, duration_s=duration_s, hz=10.0,
            objects_range=(26, 34), scene_prefix="int", seed=20,
        ),
        labels=LabelNoiseConfig(
            p_missing_track=0.06,
            forced_missing={INTERNAL_AUDIT_SCENE: INTERNAL_AUDIT_MISSING},
            jitter_pos_sd=0.05, jitter_dim_sd=0.025, seed=21,
        ),
        detector=DetectorConfig(
            p_track_detect=0.92, p_frame_miss=0.03,
            jitter_pos_sd=0.10, jitter_dim_sd=0.04,
            conf=(0.90, 0.05), ghosts_range=(16, 24), ghost_conf=(0.12, 0.99),
            p_ghost_smooth=0.02, subtle_range=(0, 1), seed=22,
        ),
        train_world=WorldConfig(
            n_scenes=n_train, duration_s=duration_s, hz=10.0,
            objects_range=(26, 34), scene_prefix="int-train", seed=23,
        ),
        train_labels=LabelNoiseConfig(
            p_missing_track=0.06, jitter_pos_sd=0.05, jitter_dim_sd=0.025, seed=24,
        ),
    )


CONFIGS = {"lyft": lyft_config, "internal": internal_config}


@dataclass
class Dataset:
    """A materialized dataset.

    Attributes:
        cfg: the generating configuration.
        eval_obs: Spark DataFrame of eval-scene observations (human +
            model), canonical schema.
        train_labels: Spark DataFrame of train-scene human labels (the
            organizational resource for distribution learning).
        manifest: exact injected-error record for the eval scenes.
    """

    cfg: DatasetConfig
    eval_obs: DataFrame
    train_labels: DataFrame
    manifest: LabelManifest


def _to_spark(spark: SparkSession, pdf: pd.DataFrame, id_offset: int = 0) -> DataFrame:
    """Assign ``obs_id`` and convert to a Spark DataFrame with the
    canonical schema. No partitioning is imposed: every consumer
    shuffles by its own key first (the tracker by ``scene_id``)."""
    pdf = pdf.copy()
    pdf["obs_id"] = np.arange(id_offset, id_offset + len(pdf), dtype=np.int64)
    pdf["frame_id"] = pdf["frame_id"].astype(np.int32)
    pdf["gt_track_id"] = pdf["gt_track_id"].astype(np.int64)
    pdf = pdf[list(OBS_COLUMNS)]
    return spark.createDataFrame(pdf, schema=OBS_SCHEMA)


def build_dataset(spark: SparkSession, cfg: DatasetConfig) -> Dataset:
    """Generate the full dataset described by ``cfg``.

    Deterministic in the config's seeds. Train labels keep their
    ``gt_track_id`` as the vendor-supplied instance id (real AV label
    formats ship instance tokens), which distribution learning uses as
    the track key for transition features.
    """
    gt = generate_world(cfg.world)
    human, manifest = generate_labels(gt, cfg.labels)
    model = generate_predictions(gt, cfg.world, cfg.detector)
    eval_pdf = pd.concat([human, model], ignore_index=True)

    train_gt = generate_world(cfg.train_world)
    train_human, _ = generate_labels(train_gt, cfg.train_labels)

    eval_obs = _to_spark(spark, eval_pdf)
    train_labels = _to_spark(spark, train_human, id_offset=10_000_000)
    return Dataset(
        cfg=cfg, eval_obs=eval_obs, train_labels=train_labels, manifest=manifest
    )
