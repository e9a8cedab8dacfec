import hashlib
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
    render_scenes,
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


@pytest.mark.parametrize("field", ["x", "y", "size", "color", "shape"])
@pytest.mark.parametrize("bad", [1.5, 2.0, True, "1"])
def test_object_latent_rejects_non_integer_fields(field, bad):
    fields = {"x": 1, "y": 1, "size": 3, "color": 0, "shape": SHAPE_SQUARE, field: bad}
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {bad!r}")):
        ObjectLatent(**fields)


def test_object_latent_accepts_numpy_integers():
    obj = ObjectLatent(x=np.int64(1), y=np.int32(2), size=np.int64(3), color=np.int8(1),
                       shape=np.int64(SHAPE_CIRCLE))
    assert np.array_equal(render_scene([obj], 8).masks,
                          render_scene([ObjectLatent(1, 2, 3, 1, SHAPE_CIRCLE)], 8).masks)


def test_render_scene_with_no_objects():
    scene = render_scene([], 16)
    assert scene.image.shape == (16, 16, 3) and not scene.image.any()
    assert scene.masks.shape == (0, 16, 16) and scene.masks.dtype == bool
    assert scene.latents == ()


def _reference_owner(objs, size):
    """Pixel-by-pixel raster from the definitions: a square covers its s x s box, a
    circle the pixels whose centre lies within s/2 of its centre; later objects win."""
    owner = np.full((size, size), -1)
    for k, o in enumerate(objs):
        r = o.size / 2
        for py in range(size):
            for px in range(size):
                if o.shape == SHAPE_SQUARE:
                    hit = o.y <= py < o.y + o.size and o.x <= px < o.x + o.size
                else:
                    hit = (py + 0.5 - o.y - r) ** 2 + (px + 0.5 - o.x - r) ** 2 <= r * r
                if hit:
                    owner[py, px] = k
    return owner


def test_render_scenes_matches_a_pixel_by_pixel_raster():
    batch = [
        [ObjectLatent(2, 2, 6, 0, SHAPE_SQUARE), ObjectLatent(5, 5, 6, 3, SHAPE_CIRCLE)],
        [],
        [ObjectLatent(0, 0, 16, 1, SHAPE_CIRCLE), ObjectLatent(4, 4, 4, 2, SHAPE_SQUARE),
         ObjectLatent(3, 6, 5, 0, SHAPE_CIRCLE), ObjectLatent(5, 5, 1, 3, SHAPE_SQUARE)],
        [ObjectLatent(9, 1, 7, 2, SHAPE_CIRCLE), ObjectLatent(0, 12, 2, 1, SHAPE_CIRCLE)],
    ]
    images, masks, owner, scenes = render_scenes(batch, 16)
    assert images.shape == (4, 16, 16, 3) and masks.shape == (8, 16, 16)
    for i, (objs, scene) in enumerate(zip(batch, scenes)):
        expect = _reference_owner(objs, 16)
        assert np.array_equal(owner[i], expect)
        assert np.array_equal(scene.masks, expect[None] == np.arange(len(objs))[:, None, None])
        colors = np.vstack([[PALETTE[o.color] for o in objs] or np.empty((0, 3)), np.zeros(3)])
        assert np.array_equal(scene.image, colors[expect])  # -1 reads the black last row
        assert scene.image.tobytes() == render_scene(objs, 16).image.tobytes()
        assert scene.latents == tuple(objs)


def test_render_scenes_names_scene_and_object_out_of_frame():
    good = ObjectLatent(x=0, y=0, size=4, color=1, shape=SHAPE_SQUARE)
    low = ObjectLatent(x=3, y=-1, size=2, color=1, shape=SHAPE_CIRCLE)
    with pytest.raises(ValueError, match="object 2 of scene 1 out of frame"):
        render_scenes([[good], [good, good, low], [low]], 16)


# sha256 of images.tobytes(), of every scene's masks.tobytes() in turn, and of the
# sorted-keys manifest JSON, pinned on the per-scene renderer this one replaced
PINNED = [
    ({}, "687e2bfee80a6634e47cd626e5a4f8412a4c3262700d72cbc936bcae403fe81c",
     "61b98d1ce9d597f534848e4652b8a6edd56490606010690de11e87f09ab85c1e",
     "fc8d5a35363f2b13d6144835a6ebf968c06d153fd4950b730165357675a3895a"),
    ({"count": 2000, "seed": 7}, "9ff1d7413a776e50116acbd1e735b5649e82243a2beee3c4929deeb476ed959f",
     "daedb3a7881c5866242e0abfc1375b1b483942e4f8afe9a69d403cabbacd7be0",
     "825c116821a1fa8b847d3e4499e15cf80b9e0e02abf4ac707161258a435d9aa9"),
    ({"image_size": 8, "min_size": 1, "max_size": 4},
     "e92d7d515b97fdd688d53c2278c0909f50d1a9991c4977357867a4b60d840b6b",
     "0a8bc3d530cd59ae3fa89da704d53034737abe74cc8638c462c398855b679244",
     "a50f98c6d795b66e021762c84fa349fc806dbf21e45abef851a850acb7846279"),
    ({"max_objects": 5}, "0c32a9062e178f727a07af6e2527b5daf07475ed4cea8a951017e31bf47ab13e",
     "3ac6060648dbf3046f1e1f44d1f18e51e9dd1b20237413530dcc7ba78132c894",
     "14892e26e53074a372b3a4df3748fee9e25db89a02699ed4b081d44e0cb15d6f"),
]


@pytest.mark.parametrize("config, images_sha, masks_sha, manifest_sha", PINNED)
def test_dataset_bytes_pinned(config, images_sha, masks_sha, manifest_sha):
    ds = make_dataset(DataConfig(**config))
    masks = hashlib.sha256()
    for scene in ds.scenes:
        masks.update(scene.masks.tobytes())
    assert hashlib.sha256(ds.images.tobytes()).hexdigest() == images_sha
    assert masks.hexdigest() == masks_sha
    manifest = json.dumps(ds.manifest, sort_keys=True).encode()
    assert hashlib.sha256(manifest).hexdigest() == manifest_sha


def test_scenes_are_read_only_views_of_one_store():
    ds = make_dataset(DataConfig(count=12, seed=5))
    for scene in ds.scenes:
        assert np.shares_memory(scene.image, ds.images)
        assert np.shares_memory(scene.masks, ds.masks)
    for store in (ds.images, ds.masks, ds.owner, ds.scenes[3].image, ds.scenes[3].masks):
        with pytest.raises(ValueError, match="read-only"):
            store[0] = 0
    # a split is the caller's own copy
    batch = ds.split("train")
    batch[0] = 0.5
    assert not np.shares_memory(batch, ds.images)


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
