"""Unit tests for the ground-truth world generator."""
import numpy as np
import pandas as pd
import pytest

from repro.core.schema import CLASSES
from repro.perception.world import (
    DEFAULT_CLASS_SPECS,
    GT_COLUMNS,
    WorldConfig,
    generate_world,
)

CFG = WorldConfig(n_scenes=3, duration_s=6.0, hz=5.0, objects_range=(8, 12), seed=42)


@pytest.fixture(scope="module")
def world():
    return generate_world(CFG)


class TestGenerateWorld:
    def test_columns(self, world):
        assert list(world.columns) == list(GT_COLUMNS)

    def test_scene_count_and_ids(self, world):
        assert set(world["scene_id"].unique()) == {
            "scene-0000", "scene-0001", "scene-0002"
        }
        assert sorted(world["scene_id"].unique()) == CFG.scene_ids

    def test_object_count_in_range(self, world):
        per_scene = world.groupby("scene_id")["gt_track_id"].nunique()
        assert per_scene.between(8, 12).all()

    def test_deterministic(self, world):
        again = generate_world(CFG)
        pd.testing.assert_frame_equal(world, again)

    def test_seed_changes_world(self, world):
        other = generate_world(WorldConfig(**{**CFG.__dict__, "seed": 43}))
        assert not world.equals(other)

    def test_classes_valid(self, world):
        assert set(world["cls"].unique()) <= set(CLASSES)

    def test_frames_within_scene_length(self, world):
        assert world["frame_id"].between(0, CFG.n_frames - 1).all()

    def test_track_frames_contiguous(self, world):
        for (_, _), grp in world.groupby(["scene_id", "gt_track_id"]):
            f = np.sort(grp["frame_id"].to_numpy())
            assert np.array_equal(f, np.arange(f[0], f[0] + len(f)))

    def test_track_attributes_constant(self, world):
        per_track = world.groupby(["scene_id", "gt_track_id"])[
            ["cls", "length", "width", "height"]
        ].nunique()
        assert (per_track == 1).all().all()

    @pytest.mark.parametrize("spec", DEFAULT_CLASS_SPECS, ids=lambda s: s.name)
    def test_dimensions_within_spec(self, world, spec):
        # length/width are yaw-folded AABB extents of the rotated body,
        # so each lies between the body width (heading-aligned) and
        # body length + body width (45° diagonal), within sampling tails.
        grp = world[world["cls"] == spec.name]
        if grp.empty:
            pytest.skip(f"no {spec.name} generated at this seed")
        l_mu, l_sd = spec.length
        w_mu, w_sd = spec.width
        lo = w_mu - 3.1 * w_sd - 0.02
        hi = (l_mu + 3.1 * l_sd) + (w_mu + 3.1 * w_sd) + 0.02
        for dim in ("length", "width"):
            assert grp[dim].between(lo, hi).all()
        h_mu, h_sd = spec.height
        assert grp["height"].between(h_mu - 3.1 * h_sd, h_mu + 3.1 * h_sd + 0.02).all()

    @pytest.mark.parametrize("spec", DEFAULT_CLASS_SPECS, ids=lambda s: s.name)
    def test_extent_area_preserves_footprint_scale(self, world, spec):
        # AABB area >= body area; <= 2x (worst case at 45 degrees).
        grp = world[world["cls"] == spec.name]
        if grp.empty:
            pytest.skip(f"no {spec.name} generated at this seed")
        area = grp["length"] * grp["width"]
        l_mu, l_sd = spec.length
        w_mu, w_sd = spec.width
        min_body = (l_mu - 3.1 * l_sd) * (w_mu - 3.1 * w_sd)
        max_body = (l_mu + 3.1 * l_sd) * (w_mu + 3.1 * w_sd)
        assert (area >= min_body * 0.99).all()
        assert (area <= 2.0 * max_body * 1.01).all()

    @pytest.mark.parametrize("spec", DEFAULT_CLASS_SPECS, ids=lambda s: s.name)
    def test_speeds_within_spec(self, world, spec):
        dt = 1.0 / CFG.hz
        for (_, _), grp in world[world["cls"] == spec.name].groupby(
            ["scene_id", "gt_track_id"]
        ):
            if len(grp) < 2:
                continue
            g = grp.sort_values("frame_id")
            v = np.hypot(np.diff(g["cx"]), np.diff(g["cy"])) / dt
            # Allow slack for the acceleration noise on top of base speed.
            assert v.max() <= spec.speed[1] + 3.0

    def test_z_is_half_height(self, world):
        np.testing.assert_allclose(world["cz"], world["height"] / 2.0)

    def test_t_matches_frame(self, world):
        np.testing.assert_allclose(world["t"], world["frame_id"] / CFG.hz)

    def test_global_track_ids_unique_across_scenes(self, world):
        per_id_scenes = world.groupby("gt_track_id")["scene_id"].nunique()
        assert (per_id_scenes == 1).all()

    def test_some_short_lived_objects_exist(self):
        # With enough objects, some brief appearances occur (Figure 4's
        # briefly-visible motorcycle is a key error mode).
        big = generate_world(
            WorldConfig(n_scenes=6, duration_s=10, hz=5, objects_range=(20, 25), seed=7)
        )
        spans = big.groupby(["scene_id", "gt_track_id"])["frame_id"].size()
        assert (spans <= 1.5 * 5).sum() > 0
