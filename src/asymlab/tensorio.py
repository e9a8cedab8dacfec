"""File formats: ATNS binary tensors, P6 PPM images, atomic JSON/CSV.

ATNS layout: magic "ATNS", version u16, rank u16, then rank u64 dims, then
the payload as little-endian float64, one tensor per file.  Every write in
this module goes through write-temp-then-rename so readers never observe a
half-written file.
"""

from __future__ import annotations

import csv
import io
import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

MAGIC = b"ATNS"
VERSION = 1


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        umask = os.umask(0)  # read it: os has no getter
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # the mode open() gives; mkstemp's 0600 would stay
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def save_tensor(path: str | os.PathLike, array: np.ndarray) -> None:
    # tobytes() already serializes in C order; ascontiguousarray would
    # promote rank-0 tensors to rank 1
    arr = np.asarray(array, dtype="<f8")
    header = MAGIC + struct.pack("<HH", VERSION, arr.ndim)
    header += b"".join(struct.pack("<Q", d) for d in arr.shape)
    atomic_write_bytes(path, header + arr.tobytes())


def load_tensor(path: str | os.PathLike) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 8 or raw[:4] != MAGIC:
        raise ValueError(f"{path}: not an ATNS tensor")
    version, rank = struct.unpack_from("<HH", raw, 4)
    if version != VERSION:
        raise ValueError(f"{path}: unsupported ATNS version {version}")
    offset = 8
    if len(raw) < offset + 8 * rank:
        raise ValueError(f"{path}: truncated dimension header")
    dims = struct.unpack_from(f"<{rank}Q", raw, offset) if rank else ()
    offset += 8 * rank
    count = int(np.prod(dims)) if dims else 1
    if len(raw) != offset + 8 * count:
        raise ValueError(f"{path}: payload size mismatch")
    data = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
    return data.reshape(dims).copy()


def save_ppm(path: str | os.PathLike, image: np.ndarray) -> None:
    """P6 binary PPM from floats in [0, 1], shape (H, W, 3)."""
    img = np.asarray(image, dtype=float)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("expected an (H, W, 3) image")
    if not np.all(np.isfinite(img)):
        raise ValueError("image must be finite")
    q = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    header = f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + q.tobytes())


def heatmap_rgb(values: np.ndarray) -> np.ndarray:
    """Scalar field to a blue-to-red image in [0, 1] for PPM dumps."""
    v = np.asarray(values, dtype=float)
    lo, hi = float(np.min(v)), float(np.max(v))
    t = (v - lo) / (hi - lo) if hi > lo else np.zeros_like(v)
    img = np.zeros(v.shape + (3,))
    img[..., 0] = t
    img[..., 1] = 0.2 * np.sin(np.pi * t) ** 2
    img[..., 2] = 1.0 - t
    return img


def save_json(path: str | os.PathLike, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_json(path: str | os.PathLike):
    return json.loads(Path(path).read_text())


def save_csv(path: str | os.PathLike, header: list[str], rows: list) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    atomic_write_text(path, buf.getvalue())
