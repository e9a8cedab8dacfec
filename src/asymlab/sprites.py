"""Toy sprite renderer: colored squares and circles on a black background.

Rasterization is exact (no anti-aliasing): a square of side s covers exactly
s*s pixels, a circle covers the pixels whose center lies within the radius.
Objects are painted in list order, later objects occluding earlier ones, and
each object's mask holds only the pixels it owns after occlusion, so masks
are always disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# fixed palette: red, green, blue, yellow
PALETTE = np.array(
    [[0.9, 0.15, 0.15], [0.15, 0.85, 0.2], [0.2, 0.35, 0.95], [0.95, 0.85, 0.1]]
)
SHAPE_SQUARE, SHAPE_CIRCLE = 0, 1


@dataclass(frozen=True)
class ObjectLatent:
    """One sprite: integer top-left anchor, side length (circles use side as
    diameter), palette color id, shape id."""

    x: int
    y: int
    size: int
    color: int
    shape: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("object size must be >= 1")
        if not 0 <= self.color < len(PALETTE):
            raise ValueError("color id outside the palette")
        if self.shape not in (SHAPE_SQUARE, SHAPE_CIRCLE):
            raise ValueError("unknown shape id")

    def to_json(self) -> dict:
        return {"x": self.x, "y": self.y, "size": self.size,
                "color": self.color, "shape": self.shape}


@dataclass
class SpriteScene:
    image: np.ndarray
    masks: np.ndarray
    latents: tuple[ObjectLatent, ...] = field(default_factory=tuple)


def _object_pixels(obj: ObjectLatent) -> np.ndarray:
    s = obj.size
    if obj.shape == SHAPE_SQUARE:
        return np.ones((s, s), dtype=bool)
    r = s / 2.0
    cy, cx = np.mgrid[0:s, 0:s]
    return (cy + 0.5 - r) ** 2 + (cx + 0.5 - r) ** 2 <= r * r


def render_scene(latents, image_size: int) -> SpriteScene:
    """Deterministic raster of the given objects; raises when any object
    sticks out of the frame."""
    latents = tuple(latents)
    H = W = image_size
    image = np.zeros((H, W, 3))
    owner = np.full((H, W), -1, dtype=int)
    for idx, obj in enumerate(latents):
        if obj.x < 0 or obj.y < 0 or obj.x + obj.size > W or obj.y + obj.size > H:
            raise ValueError(f"object {idx} out of frame")
        cover = _object_pixels(obj)
        ys, xs = np.nonzero(cover)
        owner[obj.y + ys, obj.x + xs] = idx
    masks = np.zeros((len(latents), H, W), dtype=bool)
    for idx, obj in enumerate(latents):
        masks[idx] = owner == idx
        image[masks[idx]] = PALETTE[obj.color]
    return SpriteScene(image=image, masks=masks, latents=latents)


def check_integers(config, minimums: dict[str, int]) -> None:
    """ValueError naming a config field, and its value, that is not an int at least its minimum."""
    for name, low in minimums.items():
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < low:
            raise ValueError(f"{name} must be at least {low}, got {value!r}")


def check_numbers(config, names: tuple[str, ...]) -> None:
    """ValueError naming a config field, and its value, that is not a real number."""
    for name, value in ((n, getattr(config, n)) for n in names):
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise ValueError(f"{name} must be a number, got {value!r}")


@dataclass(frozen=True)
class DataConfig:
    count: int = 64
    image_size: int = 16
    min_objects: int = 2
    max_objects: int = 3
    min_size: int = 4
    max_size: int = 7
    seed: int = 0
    train_fraction: float = 0.8
    val_fraction: float = 0.1

    def __post_init__(self):
        check_integers(self, {"count": 1, "image_size": 1, "min_objects": 1, "max_objects": 1,
                              "min_size": 1, "max_size": 1, "seed": 0})
        check_numbers(self, ("train_fraction", "val_fraction"))
        for name in ("train_fraction", "val_fraction"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)!r}")
        if not 1 <= self.min_objects <= self.max_objects:
            raise ValueError("object count range malformed")
        if self.min_size > self.max_size or self.max_size > self.image_size:
            raise ValueError("size range does not fit the image")
        if not 0 < self.train_fraction + self.val_fraction <= 1:
            raise ValueError("split fractions malformed")

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_json(cls, obj: dict) -> "DataConfig":
        return cls(**obj)


@dataclass
class SpriteDataset:
    images: np.ndarray
    scenes: list[SpriteScene]
    manifest: dict

    def split(self, name: str) -> np.ndarray:
        return self.images[self.manifest["splits"][name]]


def sample_scene(rng: np.random.Generator, cfg: DataConfig) -> SpriteScene:
    n = int(rng.integers(cfg.min_objects, cfg.max_objects + 1))
    objs = []
    for _ in range(n):
        size = int(rng.integers(cfg.min_size, cfg.max_size + 1))
        objs.append(
            ObjectLatent(
                x=int(rng.integers(0, cfg.image_size - size + 1)),
                y=int(rng.integers(0, cfg.image_size - size + 1)),
                size=size,
                color=int(rng.integers(0, len(PALETTE))),
                shape=int(rng.integers(0, 2)),
            )
        )
    return render_scene(objs, cfg.image_size)


def make_dataset(cfg: DataConfig) -> SpriteDataset:
    """Seeded scene collection with a recorded train/val/test split.  The
    same config yields byte-identical images and manifest."""
    rng = np.random.default_rng(cfg.seed)
    scenes = [sample_scene(rng, cfg) for _ in range(cfg.count)]
    images = np.stack([s.image for s in scenes])
    order = rng.permutation(cfg.count)
    n_train = int(round(cfg.train_fraction * cfg.count))
    n_val = int(round(cfg.val_fraction * cfg.count))
    manifest = {
        "config": cfg.to_json(),
        "splits": {
            "train": sorted(int(i) for i in order[:n_train]),
            "val": sorted(int(i) for i in order[n_train:n_train + n_val]),
            "test": sorted(int(i) for i in order[n_train + n_val:]),
        },
        "latents": [[o.to_json() for o in s.latents] for s in scenes],
    }
    return SpriteDataset(images=images, scenes=scenes, manifest=manifest)
