"""Toy sprite renderer: colored squares and circles on a black background.

Rasterization is exact (no anti-aliasing): a square of side s covers exactly
s*s pixels, a circle covers the pixels whose center lies within the radius.
Objects are painted in list order, later objects occluding earlier ones, and
each object's mask holds only the pixels it owns after occlusion, so masks
are always disjoint.

One batched renderer, `render_scenes`, paints a whole batch of scenes one
object slot at a time into an owner map and gathers the images and the
per-object masks from it; `render_scene` is its batch of one.  The scenes
it returns, and so those of a `SpriteDataset`, are read-only views of the
batch's image and mask stores (`SpriteDataset.images`, `.masks`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# fixed palette: red, green, blue, yellow
PALETTE = np.array(
    [[0.9, 0.15, 0.15], [0.15, 0.85, 0.2], [0.2, 0.35, 0.95], [0.95, 0.85, 0.1]]
)
SHAPE_SQUARE, SHAPE_CIRCLE = 0, 1
_ANY_INTEGER = dict.fromkeys(("x", "y", "size", "color", "shape"))  # no minimum


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
        check_integers(self, _ANY_INTEGER)
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


def render_scenes(latents, image_size: int):
    """Deterministic raster of a batch of scenes, each a sequence of objects;
    raises naming the first object, in batch order, that sticks out of the frame.

    Returns (images, masks, owner, scenes), all read-only: the (n, H, W, 3)
    images, the (objects, H, W) per-object masks in batch order, the (n, H, W)
    owner map holding each pixel's object index in its scene (-1 on background),
    and one SpriteScene per entry whose image and masks are views of the first two.
    """
    batch = [tuple(objs) for objs in latents]
    n, H = len(batch), image_size
    counts = np.array([len(objs) for objs in batch], dtype=np.intp)
    starts = np.cumsum(counts) - counts
    # every object's scene and its index in that scene, in batch order
    scene_of = np.repeat(np.arange(n), counts)
    index_of = np.arange(len(scene_of)) - starts[scene_of]
    x, y, s, color, shape = np.array(
        [(o.x, o.y, o.size, o.color, o.shape) for objs in batch for o in objs],
        dtype=np.int64).reshape(-1, 5).T
    bad = np.flatnonzero((x < 0) | (y < 0) | (x + s > H) | (y + s > H))
    if bad.size:
        raise ValueError(f"object {index_of[bad[0]]} of scene {scene_of[bad[0]]} out of frame")

    # Each pixel centre's offset from the object's centre, doubled, row (a) and column (b):
    # |2d + 1 - s|.  A square covers a < s and b < s, a circle a² + b² <= s²; both read
    # "the column's reach is within the row's budget", one broadcast comparison per object.
    a = np.abs(2 * (np.arange(H) - y[:, None]) + 1 - s[:, None])
    b = np.abs(2 * (np.arange(H) - x[:, None]) + 1 - s[:, None])
    circle = (shape == SHAPE_CIRCLE)[:, None]
    reach = np.where(circle, b * b, b)
    budget = np.where(circle, s[:, None] ** 2 - a * a,
                      np.where(a < s[:, None], s[:, None] - 1, -1))
    cover = reach[:, None, :] <= budget[:, :, None]  # (objects, H, W), before occlusion

    K = int(counts.max(initial=0))
    owner = np.full((n, H, H), -1, dtype=np.min_scalar_type(-max(K, 1)))
    for k in range(K):
        painted = index_of == k
        owned = owner[scene_of[painted]]
        owned[cover[painted]] = k
        owner[scene_of[painted]] = owned
    masks = owner[scene_of] == index_of[:, None, None]
    # palette row 0 is the black background: each scene's column 0 (owner -1) points
    # at it, column k + 1 at object k's color
    rows = np.zeros((n, K + 1), dtype=np.intp)
    rows[scene_of, index_of + 1] = color + 1
    pixel_rows = np.take(rows, owner + ((K + 1) * np.arange(n)[:, None, None] + 1))
    images = np.take(np.vstack([np.zeros(3), PALETTE]), pixel_rows, axis=0)
    for store in (images, masks, owner):
        store.flags.writeable = False
    scenes = [SpriteScene(image=image, masks=masks[end - len(objs):end], latents=objs)
              for image, objs, end in zip(images, batch, (starts + counts).tolist())]
    return images, masks, owner, scenes


def render_scene(latents, image_size: int) -> SpriteScene:
    """Deterministic raster of the given objects, the batch of one of
    `render_scenes`; raises when any object sticks out of the frame."""
    _, _, _, (scene,) = render_scenes([latents], image_size)
    return scene


def check_integers(config, minimums: dict[str, int | None]) -> None:
    """ValueError naming a config field, and its value, that is not an int at least its
    minimum (any int where the minimum is None)."""
    for name, low in minimums.items():
        value = getattr(config, name)
        # a plain int skips the isinstance tests: ObjectLatent checks every object it makes
        if type(value) is not int and (isinstance(value, bool)
                                       or not isinstance(value, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if low is not None and value < low:
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

    def split_sizes(self) -> tuple[int, int, int]:
        """The train, val and test split sizes make_dataset draws."""
        n_train = int(round(self.train_fraction * self.count))
        n_val = min(int(round(self.val_fraction * self.count)), self.count - n_train)
        return n_train, n_val, self.count - n_train - n_val

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_json(cls, obj: dict) -> "DataConfig":
        return cls(**obj)


@dataclass
class SpriteDataset:
    """Rendered scenes, in the read-only stores of `render_scenes`, and their split."""

    images: np.ndarray
    masks: np.ndarray
    owner: np.ndarray
    scenes: list[SpriteScene]
    manifest: dict

    def split(self, name: str) -> np.ndarray:
        return self.images[self.manifest["splits"][name]]


def make_dataset(cfg: DataConfig) -> SpriteDataset:
    """Seeded scene collection with a recorded train/val/test split.  The
    same config yields byte-identical images and manifest.  The draws stay
    scalar (each anchor range depends on the size just drawn); one batched
    raster then renders every scene."""
    rng = np.random.default_rng(cfg.seed)
    draw, side = rng.integers, cfg.image_size
    latents = []
    for _ in range(cfg.count):
        objs = []
        for _ in range(int(draw(cfg.min_objects, cfg.max_objects + 1))):
            size = int(draw(cfg.min_size, cfg.max_size + 1))
            objs.append(ObjectLatent(x=int(draw(0, side - size + 1)), y=int(draw(0, side - size + 1)),
                                     size=size, color=int(draw(0, len(PALETTE))),
                                     shape=int(draw(0, 2))))
        latents.append(objs)
    images, masks, owner, scenes = render_scenes(latents, side)
    order = rng.permutation(cfg.count)
    n_train, n_val, _ = cfg.split_sizes()
    manifest = {
        "config": cfg.to_json(),
        "splits": {
            "train": sorted(int(i) for i in order[:n_train]),
            "val": sorted(int(i) for i in order[n_train:n_train + n_val]),
            "test": sorted(int(i) for i in order[n_train + n_val:]),
        },
        "latents": [[o.to_json() for o in objs] for objs in latents],
    }
    return SpriteDataset(images=images, masks=masks, owner=owner, scenes=scenes,
                         manifest=manifest)
