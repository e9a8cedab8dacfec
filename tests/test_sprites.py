import json
import re

import numpy as np
import pytest

from asymlab.sprites import (
    PALETTE,
    SHAPE_CIRCLE,
    SHAPE_SQUARE,
    DataConfig,
    ObjectLatent,
    make_dataset,
    render_scene,
)


def test_square_covers_exact_area():
    obj = ObjectLatent(x=2, y=3, size=4, color=0, shape=SHAPE_SQUARE)
    scene = render_scene([obj], 16)
    assert int(scene.masks[0].sum()) == 16
    ys, xs = np.nonzero(scene.masks[0])
    assert ys.min() == 3 and ys.max() == 6
    assert xs.min() == 2 and xs.max() == 5
    assert np.allclose(scene.image[scene.masks[0]], PALETTE[0])
    assert np.all(scene.image[~scene.masks[0]] == 0.0)


def test_circle_pixels_within_radius():
    obj = ObjectLatent(x=1, y=1, size=7, color=2, shape=SHAPE_CIRCLE)
    scene = render_scene([obj], 12)
    r = 3.5
    ys, xs = np.nonzero(scene.masks[0])
    # pixel centers relative to circle center
    dy = ys + 0.5 - (1 + r)
    dx = xs + 0.5 - (1 + r)
    assert np.all(dy * dy + dx * dx <= r * r + 1e-12)
    # strictly smaller than the bounding square, larger than the inscribed one
    assert 0 < scene.masks[0].sum() < 49
    off = scene.masks[0][1, 1]  # corner of the bounding box stays empty
    assert not off


def test_out_of_frame_names_object():
    good = ObjectLatent(x=0, y=0, size=4, color=1, shape=SHAPE_SQUARE)
    bad = ObjectLatent(x=14, y=0, size=4, color=1, shape=SHAPE_SQUARE)
    with pytest.raises(ValueError, match="object 1"):
        render_scene([good, bad], 16)


def test_occlusion_masks_disjoint():
    a = ObjectLatent(x=2, y=2, size=6, color=0, shape=SHAPE_SQUARE)
    b = ObjectLatent(x=5, y=5, size=6, color=3, shape=SHAPE_SQUARE)
    scene = render_scene([a, b], 16)
    overlap = scene.masks[0] & scene.masks[1]
    assert not overlap.any()
    # later object keeps its full footprint, earlier one loses the overlap
    assert int(scene.masks[1].sum()) == 36
    assert int(scene.masks[0].sum()) == 36 - 9
    assert np.allclose(scene.image[8, 8], PALETTE[3])


def test_object_latent_validation():
    with pytest.raises(ValueError):
        ObjectLatent(x=0, y=0, size=0, color=0, shape=SHAPE_SQUARE)
    with pytest.raises(ValueError):
        ObjectLatent(x=0, y=0, size=3, color=9, shape=SHAPE_SQUARE)
    with pytest.raises(ValueError):
        ObjectLatent(x=0, y=0, size=3, color=0, shape=5)


def test_dataset_deterministic():
    cfg = DataConfig(count=12, seed=11)
    d1 = make_dataset(cfg)
    d2 = make_dataset(cfg)
    assert d1.images.tobytes() == d2.images.tobytes()
    assert json.dumps(d1.manifest, sort_keys=True) == json.dumps(
        d2.manifest, sort_keys=True)
    d3 = make_dataset(DataConfig(count=12, seed=12))
    assert d1.images.tobytes() != d3.images.tobytes()


def test_splits_partition_indices():
    cfg = DataConfig(count=20, seed=3)
    ds = make_dataset(cfg)
    splits = ds.manifest["splits"]
    all_idx = sorted(splits["train"] + splits["val"] + splits["test"])
    assert all_idx == list(range(20))
    assert len(splits["train"]) == 16
    assert len(splits["val"]) == 2
    assert ds.split("train").shape == (16, 16, 16, 3)


def test_object_count_and_shapes_in_range():
    cfg = DataConfig(count=30, min_objects=2, max_objects=3, seed=5)
    ds = make_dataset(cfg)
    counts = {len(s.latents) for s in ds.scenes}
    assert counts <= {2, 3}
    assert len(counts) > 1  # both counts appear over 30 scenes
    for s in ds.scenes:
        for o in s.latents:
            assert o.shape in (SHAPE_SQUARE, SHAPE_CIRCLE)
            assert cfg.min_size <= o.size <= cfg.max_size


def test_palette_has_four_colors():
    assert PALETTE.shape == (4, 3)
    assert np.all(PALETTE >= 0) and np.all(PALETTE <= 1)


def test_data_config_validation_and_roundtrip():
    with pytest.raises(ValueError):
        DataConfig(min_objects=3, max_objects=2)
    with pytest.raises(ValueError):
        DataConfig(min_size=5, max_size=4)
    with pytest.raises(ValueError):
        DataConfig(max_size=20, image_size=16)
    with pytest.raises(ValueError):
        DataConfig(train_fraction=0.9, val_fraction=0.3)
    cfg = DataConfig(count=7, image_size=8, min_size=2, max_size=4, seed=2)
    assert DataConfig.from_json(cfg.to_json()) == cfg


@pytest.mark.parametrize("field, bad, named", [
    ("count", 2.0, "count must be an integer, got 2.0"),
    ("seed", True, "seed must be an integer, got True"),
    ("count", 0, "count must be at least 1, got 0"),
    ("min_size", 0, "min_size must be at least 1, got 0"),
    ("seed", -1, "seed must be at least 0, got -1"),
])
def test_data_config_names_bad_counts(field, bad, named):
    with pytest.raises(ValueError, match=named):
        DataConfig(**{field: bad})


@pytest.mark.parametrize("field, bad", [("train_fraction", "0.8"), ("val_fraction", None),
                                        ("train_fraction", True)])
def test_data_config_rejects_non_number_fractions(field, bad):
    with pytest.raises(ValueError, match=rf"{field} must be a number, got {bad!r}"):
        DataConfig(**{field: bad})


@pytest.mark.parametrize("fractions, named", [
    ({"train_fraction": -0.5, "val_fraction": 1.2}, "train_fraction must lie in [0, 1], got -0.5"),
    ({"train_fraction": 1.5, "val_fraction": -0.6}, "train_fraction must lie in [0, 1], got 1.5"),
    ({"train_fraction": 0.5, "val_fraction": -0.1}, "val_fraction must lie in [0, 1], got -0.1"),
])
def test_data_config_fractions_lie_in_unit_interval(fractions, named):
    # each sum lies in (0, 1], so only the per-field check catches these
    with pytest.raises(ValueError, match=re.escape(named)):
        DataConfig(count=10, **fractions)
