"""LIDAR-detector simulator with the paper's model-error taxonomy.

The paper runs PointPillars-family 3D detectors [16, 33] over LIDAR to
obtain the second observation source. Fixy only ever sees the predicted
boxes, so we simulate the detector's *output distribution*:

- clean predictions: ground-truth boxes with localization jitter,
  per-frame misses, and a per-dataset confidence model ("our internal
  model ... is of higher quality and results in more calibrated model
  predictions", §8.2 — internal confidences are tight and high, ghost
  confidences low; Lyft confidences are wide so confidence-ranking is a
  weak signal, matching Table 3's small rand→conf gap on Lyft);
- **ghost tracks** (§7 "a 'ghost' track that an ML model erroneously
  predicts"): spurious short-lived detections. Most are *erratic*
  (random-walk centers, frame-to-frame resampled dimensions — Figure 5's
  "Predictions are inconsistent within a track"); a fraction are
  *smooth* (plausible-looking), bounding Fixy's precision below 100% as
  in the paper;
- **subtle errors** (§8.4): temporally *consistent* tracks — no missing
  timestamps, longer than two observations, boxes overlapping across
  frames — that are nonetheless wrong: oscillating implausible volumes
  (localization errors) or a flipped class (classification errors),
  with confidences up to 0.95, which is why uncertainty sampling and
  the appear/flicker/multibox assertions all miss them.

Ghosts carry unique negative ``gt_track_id`` so the evaluation can tell
distinct ghosts apart; every row carries ``err_type`` for the manifest.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.schema import ERR_GHOST, ERR_NONE, ERR_SUBTLE, SOURCE_MODEL
from repro.perception.world import DEFAULT_CLASS_SPECS, WorldConfig, _truncnorm


@dataclass(frozen=True)
class DetectorConfig:
    """Detector output model.

    Attributes:
        p_track_detect: probability a ground-truth object is detected at
            all (track-level recall; sets the ceiling on Fixy's §8.2
            recall, paper: 75%).
        p_frame_miss: per-frame dropout within a detected track.
        jitter_pos_sd / jitter_dim_sd: localization noise, metres.
        conf: (mu, sd) of clean-prediction confidence (clipped to
            [0.02, 0.99]).
        ghosts_range: (lo, hi) ghost tracks per scene, inclusive.
        ghost_conf: (lo, hi) uniform confidence for ghosts.
        p_ghost_smooth: fraction of ghosts that look plausible.
        subtle_range: (lo, hi) subtle-error tracks per scene.
        subtle_conf: (lo, hi) uniform confidence for subtle errors.
        seed: numpy seed.
    """

    p_track_detect: float = 0.85
    p_frame_miss: float = 0.05
    jitter_pos_sd: float = 0.12
    jitter_dim_sd: float = 0.05
    conf: tuple[float, float] = (0.8, 0.12)
    ghosts_range: tuple[int, int] = (8, 14)
    ghost_conf: tuple[float, float] = (0.3, 0.9)
    p_ghost_smooth: float = 0.2
    subtle_range: tuple[int, int] = (1, 3)
    subtle_conf: tuple[float, float] = (0.85, 0.95)
    seed: int = 200


def _detect_gt(gt: pd.DataFrame, cfg: DetectorConfig, rng: np.random.Generator) -> pd.DataFrame:
    """Clean predictions: jittered ground truth with track/frame misses."""
    tracks = gt[["scene_id", "gt_track_id"]].drop_duplicates().sort_values(
        ["scene_id", "gt_track_id"]
    )
    detected = tracks[rng.random(len(tracks)) < cfg.p_track_detect]
    keep = set(zip(detected["scene_id"], detected["gt_track_id"]))
    keyed = list(zip(gt["scene_id"], gt["gt_track_id"]))
    preds = gt[[k in keep for k in keyed]].copy()
    preds = preds[rng.random(len(preds)) >= cfg.p_frame_miss].copy()
    n = len(preds)
    # Size-relative localization noise — see labels.py for rationale.
    size_scale = np.clip(preds["length"].to_numpy() / 4.5, 0.25, 2.0)
    preds["cx"] = preds["cx"] + rng.normal(0, cfg.jitter_pos_sd, n) * size_scale
    preds["cy"] = preds["cy"] + rng.normal(0, cfg.jitter_pos_sd, n) * size_scale
    preds["cz"] = preds["cz"] + rng.normal(0, cfg.jitter_pos_sd / 2, n) * size_scale
    for dim in ("length", "width", "height"):
        preds[dim] = np.maximum(
            preds[dim] + rng.normal(0, cfg.jitter_dim_sd, n) * size_scale, 0.05
        )
    preds["confidence"] = np.clip(rng.normal(*cfg.conf, n), 0.02, 0.99)
    preds["err_type"] = ERR_NONE
    return preds


def _corrupt_subtle(
    preds: pd.DataFrame, world_cfg: WorldConfig, cfg: DetectorConfig, rng: np.random.Generator
) -> pd.DataFrame:
    """Turn some long detected tracks into §8.4's consistent-but-wrong
    tracks: half get oscillating volumes (localization), half a flipped
    class (classification). Centers are wobbled mildly so boxes still
    overlap frame to frame (no flicker/appear trigger)."""
    preds = preds.copy()
    classes = [s.name for s in world_cfg.class_specs]
    for scene_id, grp in preds.groupby("scene_id", sort=True):
        sizes = grp.groupby("gt_track_id")["frame_id"].size()
        longs = sizes[sizes >= 8].index.to_numpy()
        k = min(int(rng.integers(cfg.subtle_range[0], cfg.subtle_range[1] + 1)), longs.size)
        if k == 0:
            continue
        victims = rng.choice(longs, size=k, replace=False)
        for i, tid in enumerate(victims):
            mask = (preds["scene_id"] == scene_id) & (preds["gt_track_id"] == tid)
            n = int(mask.sum())
            if i % 2 == 0:  # localization error: implausible volume drift
                phase = rng.uniform(0, 2 * np.pi)
                factor = np.exp(
                    0.9 * np.sin(np.linspace(0, 3 * np.pi, n) + phase)
                    + rng.normal(0, 0.25, n)
                )
                for dim in ("length", "width", "height"):
                    preds.loc[mask, dim] = preds.loc[mask, dim] * factor ** (1 / 3)
                # Wobble scales with size so small boxes keep frame-to-
                # frame overlap (the §8.4 errors are temporally
                # consistent tracks, not flickering fragments).
                wsd = 0.4 * np.clip(preds.loc[mask, "length"].to_numpy() / 4.5, 0.25, 2.0)
                preds.loc[mask, "cx"] += rng.normal(0, 1.0, n) * wsd
                preds.loc[mask, "cy"] += rng.normal(0, 1.0, n) * wsd
            else:  # classification error: right box, wrong class
                cur = preds.loc[mask, "cls"].iloc[0]
                others = [c for c in classes if c != cur]
                preds.loc[mask, "cls"] = others[int(rng.integers(len(others)))]
            preds.loc[mask, "confidence"] = rng.uniform(*cfg.subtle_conf, n)
            preds.loc[mask, "err_type"] = ERR_SUBTLE
    return preds


def _make_ghosts(
    world_cfg: WorldConfig, cfg: DetectorConfig, rng: np.random.Generator
) -> pd.DataFrame:
    """Spurious ghost tracks, erratic or smooth."""
    rows: list[pd.DataFrame] = []
    dt = 1.0 / world_cfg.hz
    classes = [s.name for s in world_cfg.class_specs]
    spec_by_name = {s.name: s for s in world_cfg.class_specs}
    ghost_uid = 0
    for scene_id in world_cfg.scene_ids:
        n_ghosts = int(rng.integers(cfg.ghosts_range[0], cfg.ghosts_range[1] + 1))
        for _ in range(n_ghosts):
            ghost_uid += 1
            n = int(rng.integers(3, 10))
            start = int(rng.integers(0, max(1, world_cfg.n_frames - n)))
            frames = np.arange(start, start + n)
            x0, y0 = rng.uniform(-world_cfg.area_halfwidth_m, world_cfg.area_halfwidth_m, 2)
            cls = classes[int(rng.integers(len(classes)))]
            smooth = rng.random() < cfg.p_ghost_smooth
            if smooth:
                spec = spec_by_name[cls]
                body_l = float(_truncnorm(rng, *spec.length, 1)[0])
                body_w = float(_truncnorm(rng, *spec.width, 1)[0])
                height = float(_truncnorm(rng, *spec.height, 1)[0])
                speed = float(rng.uniform(*spec.speed))
                heading = rng.uniform(0, 2 * np.pi)
                # Same yaw-folded axis-aligned extents as the world gen.
                co, si = abs(np.cos(heading)), abs(np.sin(heading))
                cx = x0 + speed * np.cos(heading) * np.arange(n) * dt
                cy = y0 + speed * np.sin(heading) * np.arange(n) * dt
                ln = np.full(n, body_l * co + body_w * si)
                wd = np.full(n, body_l * si + body_w * co)
                ht = np.full(n, height)
            else:
                # Erratic: random-walk center, per-frame resampled dims.
                cx = x0 + rng.normal(0, 0.9, n).cumsum()
                cy = y0 + rng.normal(0, 0.9, n).cumsum()
                base = np.exp(rng.normal(1.0, 0.5))
                ln = base * np.exp(rng.normal(0, 0.35, n))
                wd = base * 0.45 * np.exp(rng.normal(0, 0.35, n))
                ht = np.clip(base * 0.4 * np.exp(rng.normal(0, 0.3, n)), 0.3, None)
            rows.append(
                pd.DataFrame(
                    {
                        "scene_id": scene_id,
                        "frame_id": frames.astype(np.int32),
                        "t": frames * dt,
                        "gt_track_id": np.int64(-ghost_uid),
                        "cls": cls,
                        "cx": cx,
                        "cy": cy,
                        "cz": ht / 2.0,
                        "length": ln,
                        "width": wd,
                        "height": ht,
                        # Confidence is object-level: one base draw per
                        # ghost plus small per-frame noise. A ghost the
                        # detector is consistently confident about is
                        # exactly what makes confidence-ordering a weak
                        # audit signal (Table 3's conf rows).
                        "confidence": np.clip(
                            rng.uniform(*cfg.ghost_conf)
                            + rng.normal(0, 0.03, n),
                            0.02, 0.99,
                        ),
                        "err_type": ERR_GHOST,
                    }
                )
            )
    if not rows:
        return pd.DataFrame()
    return pd.concat(rows, ignore_index=True)


def generate_predictions(
    gt: pd.DataFrame, world_cfg: WorldConfig, cfg: DetectorConfig
) -> pd.DataFrame:
    """Full detector output over ground truth ``gt``.

    Returns:
        pandas DataFrame with canonical observation columns except
        ``obs_id``; ``source="model"``.
    """
    # Independent streams per stage: the ghosts of scene k must not
    # depend on how many scenes the clean/subtle stages processed, so a
    # scaled-down dataset reproduces the full dataset's early scenes.
    preds = _detect_gt(gt, cfg, np.random.default_rng(cfg.seed))
    preds = _corrupt_subtle(preds, world_cfg, cfg, np.random.default_rng(cfg.seed + 1))
    ghosts = _make_ghosts(world_cfg, cfg, np.random.default_rng(cfg.seed + 2))
    allp = pd.concat([preds, ghosts], ignore_index=True)
    allp["source"] = SOURCE_MODEL
    return allp.reset_index(drop=True)
