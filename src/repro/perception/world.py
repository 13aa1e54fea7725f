"""Latent ground-truth world: object tracks around an ego vehicle.

Objects have class-conditional dimensions and speeds (car, truck,
pedestrian, motorcycle — the classes the paper evaluates, §8.1), move
with constant-velocity-plus-noise kinematics, and exist for a
contiguous span of frames (some spans are short, like the paper's
occluded motorcycle in Figure 4).

Generation is driver-side numpy/pandas: scenes are small and
generation must be exactly reproducible; all *processing* downstream is
Spark dataflow.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.schema import CLASSES


@dataclass(frozen=True)
class ClassSpec:
    """Class-conditional geometry and kinematics.

    Dimensions are metres (normal, clipped at ±3σ); speed is a uniform
    range in m/s. These match typical AV-dataset statistics: the point
    is not photorealism but that *volume and velocity are strongly
    class-separated*, which is the structure Fixy's class-conditional
    feature distributions exploit.
    """

    name: str
    weight: float  # mixing probability
    length: tuple[float, float]  # (mu, sd)
    width: tuple[float, float]
    height: tuple[float, float]
    speed: tuple[float, float]  # (lo, hi) m/s
    p_short_lived: float = 0.1  # probability of a brief (<1.5 s) appearance


DEFAULT_CLASS_SPECS: tuple[ClassSpec, ...] = (
    ClassSpec("car", 0.62, (4.5, 0.35), (1.9, 0.12), (1.6, 0.10), (0.0, 15.0)),
    ClassSpec("truck", 0.14, (9.0, 1.50), (2.6, 0.20), (3.2, 0.30), (0.0, 12.0)),
    ClassSpec("pedestrian", 0.16, (0.8, 0.10), (0.8, 0.10), (1.75, 0.10), (0.0, 2.0)),
    ClassSpec("motorcycle", 0.08, (2.2, 0.15), (0.9, 0.08), (1.5, 0.10), (0.0, 15.0), 0.25),
)


@dataclass(frozen=True)
class WorldConfig:
    """Parameters of the generated world.

    Attributes:
        n_scenes: number of scenes.
        duration_s: scene length in seconds (Lyft scenes are 25 s; the
            paper's internal scenes are 15 s).
        hz: sampling rate ("the class labels, sampling rate, and
            physical sensor layout differ between the two datasets",
            §8.1 — we vary rate and scene length).
        objects_range: (lo, hi) objects per scene, inclusive.
        area_halfwidth_m: objects spawn within ±this of the AV.
        scene_prefix: prefix of the :attr:`scene_ids`.
        seed: numpy seed; everything derives deterministically from it.
        class_specs: per-class geometry/kinematics.
    """

    n_scenes: int = 4
    duration_s: float = 15.0
    hz: float = 5.0
    objects_range: tuple[int, int] = (18, 28)
    area_halfwidth_m: float = 55.0
    scene_prefix: str = "scene"
    seed: int = 0
    class_specs: tuple[ClassSpec, ...] = field(default=DEFAULT_CLASS_SPECS)

    @property
    def n_frames(self) -> int:
        return int(round(self.duration_s * self.hz))

    @property
    def scene_ids(self) -> list[str]:
        """The scene ids ``f"{scene_prefix}-{i:04d}"``, in generation order."""
        return [f"{self.scene_prefix}-{i:04d}" for i in range(self.n_scenes)]


#: Ground-truth frame columns produced by :func:`generate_world`.
GT_COLUMNS = (
    "scene_id",
    "frame_id",
    "t",
    "gt_track_id",
    "cls",
    "cx",
    "cy",
    "cz",
    "length",
    "width",
    "height",
)


def _truncnorm(rng: np.random.Generator, mu: float, sd: float, n: int) -> np.ndarray:
    return np.clip(rng.normal(mu, sd, n), mu - 3 * sd, max(mu - 3 * sd, 1e-2) + 6 * sd)


def generate_world(cfg: WorldConfig) -> pd.DataFrame:
    """Generate ground-truth observations for every scene in ``cfg``.

    Returns:
        pandas DataFrame with :data:`GT_COLUMNS`; one row per (object,
        frame) the object is alive. ``gt_track_id`` is globally unique
        (``scene_index * 100_000 + object_index``).
    """
    rng = np.random.default_rng(cfg.seed)
    specs = cfg.class_specs
    weights = np.array([s.weight for s in specs], dtype=np.float64)
    weights = weights / weights.sum()
    dt = 1.0 / cfg.hz
    frames = np.arange(cfg.n_frames)
    out: list[pd.DataFrame] = []
    for si, scene_id in enumerate(cfg.scene_ids):
        n_obj = int(rng.integers(cfg.objects_range[0], cfg.objects_range[1] + 1))
        cls_idx = rng.choice(len(specs), size=n_obj, p=weights)
        for oi in range(n_obj):
            spec = specs[cls_idx[oi]]
            # Lifespan: mostly long-lived, some brief appearances.
            if rng.random() < spec.p_short_lived:
                span = int(rng.integers(3, max(4, int(1.5 * cfg.hz)) + 1))
            else:
                span = int(rng.integers(int(0.5 * cfg.n_frames), cfg.n_frames + 1))
            start = int(rng.integers(0, cfg.n_frames - span + 1))
            alive = frames[start : start + span]
            n = alive.size
            body_l = float(_truncnorm(rng, *spec.length, 1)[0])
            body_w = float(_truncnorm(rng, *spec.width, 1)[0])
            height = float(_truncnorm(rng, *spec.height, 1)[0])
            speed = float(rng.uniform(*spec.speed))
            heading = float(rng.uniform(0, 2 * np.pi))
            # Boxes are axis-aligned: yaw is folded into the extents as
            # the AABB of the rotated body. The extent along the motion
            # direction then stays ~body length, so adjacent-frame IOU
            # tracking works for fast movers in any direction.
            c, s = abs(np.cos(heading)), abs(np.sin(heading))
            length = body_l * c + body_w * s
            width = body_l * s + body_w * c
            x0, y0 = rng.uniform(-cfg.area_halfwidth_m, cfg.area_halfwidth_m, 2)
            vx, vy = speed * np.cos(heading), speed * np.sin(heading)
            # Constant velocity plus small white acceleration noise.
            tt = (alive - alive[0]) * dt
            ax = rng.normal(0, 0.15, n).cumsum() * dt
            ay = rng.normal(0, 0.15, n).cumsum() * dt
            out.append(
                pd.DataFrame(
                    {
                        "scene_id": scene_id,
                        "frame_id": alive.astype(np.int32),
                        "t": alive * dt,
                        "gt_track_id": np.int64(si * 100_000 + oi),
                        "cls": spec.name,
                        "cx": x0 + (vx + ax) * tt,
                        "cy": y0 + (vy + ay) * tt,
                        "cz": height / 2.0,
                        "length": length,
                        "width": width,
                        "height": height,
                    }
                )
            )
    pdf = pd.concat(out, ignore_index=True)
    assert set(pdf["cls"].unique()) <= set(CLASSES)
    return pdf
