"""Class-conditional toy datasets.

Two sources: a deterministic procedural generator of eight shape classes, and
a loader for the big-endian IDX image/label file format. Pixels always live
in [-1, 1].
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_open

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

SHAPES_MIN_SIZE = 8  # smallest image side gen_shapes draws
SHAPE_NAMES = ("filled_square", "hollow_square", "disk", "ring",
               "plus", "cross", "h_stripes", "v_stripes")


@dataclass
class Dataset:
    images: np.ndarray   # [N, C, H, W] float32 in [-1, 1]
    labels: np.ndarray   # [N] int64
    n_classes: int
    source: str          # "procedural" | "idx"

    def __post_init__(self):
        if self.images.shape[0] == 0:
            raise ValueError("dataset must hold at least one image")
        if self.images.shape[0] != self.labels.shape[0]:
            raise ValueError("image/label count mismatch")
        if self.images.min() < -1.0 or self.images.max() > 1.0:
            raise ValueError("pixels must lie in [-1, 1]")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise ValueError("labels out of range")

    def __len__(self):
        return self.images.shape[0]


def _shape_mask(class_id: int, size: int, dy: int, dx: int) -> np.ndarray:
    """Boolean mask for one shape class, jittered by (dy, dx) pixels."""
    yy, xx = np.mgrid[0:size, 0:size]
    cy, cx = size / 2 - 0.5 + dy, size / 2 - 0.5 + dx
    u, v = yy - cy, xx - cx
    half = size * 0.28  # shape half-extent, leaves room for +-2 px jitter
    r = np.sqrt(u * u + v * v)
    box = (np.abs(u) <= half) & (np.abs(v) <= half)
    if class_id == 0:
        return box
    if class_id == 1:
        return box & ((np.abs(u) > half - 1.6) | (np.abs(v) > half - 1.6))
    if class_id == 2:
        return r <= half
    if class_id == 3:
        return (r <= half) & (r > half - 1.8)
    if class_id == 4:
        return box & ((np.abs(u) <= 1.2) | (np.abs(v) <= 1.2))
    if class_id == 5:
        return box & ((np.abs(u - v) <= 1.2) | (np.abs(u + v) <= 1.2))
    if class_id == 6:
        return box & (np.round(u).astype(int) % 3 == 0)
    if class_id == 7:
        return box & (np.round(v).astype(int) % 3 == 0)
    raise ValueError(f"no shape defined for class {class_id}")


def gen_shapes(seed: int, n_per_class: int, n_classes: int = 8, size: int = 16) -> Dataset:
    """Render n_per_class jittered examples of each shape class."""
    if not (1 <= n_classes <= len(SHAPE_NAMES)):
        raise ValueError(f"n_classes must be in [1, {len(SHAPE_NAMES)}]")
    if size < SHAPES_MIN_SIZE:
        raise ValueError(f"size must be >= {SHAPES_MIN_SIZE}")
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    images = np.full((n_classes * n_per_class, 1, size, size), -1.0, dtype=np.float32)
    labels = np.empty(n_classes * n_per_class, dtype=np.int64)
    masks = {}  # one per (class, dy, dx): at most 25 jitters per class
    i = 0
    for cls in range(n_classes):
        for _ in range(n_per_class):
            dy, dx = rng.integers(-2, 3, size=2)
            intensity = 0.8 + rng.uniform(-0.2, 0.2)
            key = (cls, int(dy), int(dx))
            if key not in masks:
                masks[key] = _shape_mask(cls, size, *key[1:])
            images[i, 0][masks[key]] = np.float32(intensity)
            labels[i] = cls
            i += 1
    return Dataset(images=images, labels=labels, n_classes=n_classes, source="procedural")


# ---------------------------------------------------------------------------
# IDX files
# ---------------------------------------------------------------------------


def _read_idx(path: str, magic: int, n_dims: int, what: str) -> tuple:
    """(dims, payload) of one IDX file of uint8 items. The payload size the
    header promises is checked against the file's size before it is read."""
    with open(path, "rb") as f:
        header = f.read(4 + 4 * n_dims)
        if len(header) != 4 + 4 * n_dims:
            raise ValueError(f"truncated IDX file while reading {what} header")
        got, *dims = struct.unpack(f">{1 + n_dims}I", header)
        if got != magic:
            raise ValueError(f"bad {what} magic 0x{got:08x} in {path}")
        size = math.prod(dims)
        if os.fstat(f.fileno()).st_size - len(header) < size:
            raise ValueError(f"truncated IDX file: {path} holds fewer than the "
                             f"{size} {what} payload bytes its header promises")
        return dims, f.read(size)


def load_idx(images_path: str, labels_path: str, size: int | None = None) -> Dataset:
    """Parse big-endian IDX image/label files into a Dataset.

    Bytes rescale to [-1, 1] via x / 127.5 - 1; images are center-cropped or
    zero-padded (background -1) to `size` when given.
    """
    (count, rows, cols), raw = _read_idx(images_path, IDX_IMAGE_MAGIC, 3, "image")
    (label_count,), label_raw = _read_idx(labels_path, IDX_LABEL_MAGIC, 1, "label")
    if count != label_count:
        raise ValueError(f"image count {count} != label count {label_count}")

    images = np.frombuffer(raw, dtype=np.uint8).reshape(count, 1, rows, cols)
    images = (images.astype(np.float32) / 127.5) - 1.0
    labels = np.frombuffer(label_raw, dtype=np.uint8).astype(np.int64)
    if size is not None and (rows, cols) != (size, size):
        images = _fit(images, size)
    n_classes = int(labels.max()) + 1 if count else 0
    return Dataset(images=images, labels=labels, n_classes=n_classes, source="idx")


def _fit(images: np.ndarray, size: int) -> np.ndarray:
    """Center-crop or pad (with background -1) to a square target size."""
    n, c, h, w = images.shape
    out = np.full((n, c, size, size), -1.0, dtype=np.float32)
    ch, cw = min(h, size), min(w, size)
    sy, sx = (h - ch) // 2, (w - cw) // 2
    dy, dx = (size - ch) // 2, (size - cw) // 2
    out[:, :, dy:dy + ch, dx:dx + cw] = images[:, :, sy:sy + ch, sx:sx + cw]
    return out


def write_idx(images_u8: np.ndarray, labels: np.ndarray, images_path: str, labels_path: str):
    """Write uint8 [N, H, W] images and [N] labels as IDX files."""
    n, rows, cols = images_u8.shape
    with atomic_open(images_path) as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols))
        f.write(images_u8.astype(np.uint8).tobytes())
    with atomic_open(labels_path) as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, n))
        f.write(labels.astype(np.uint8).tobytes())


def batches(ds: Dataset, batch_size: int, rng: np.random.Generator):
    """Endless iterator of shuffled (images, labels) batches.

    Reshuffles each epoch from the supplied rng; drops the last partial batch.
    """
    n = len(ds)
    if not (1 <= batch_size <= n):
        raise ValueError(f"batch_size must be in [1, {n}]")
    while True:
        order = rng.permutation(n)
        for lo in range(0, n - batch_size + 1, batch_size):
            idx = order[lo:lo + batch_size]
            yield ds.images[idx], ds.labels[idx]
