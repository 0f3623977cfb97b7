"""Binary PGM (P5, maxval 255) output for single-channel images."""

from __future__ import annotations

import numpy as np

from .checkpoint import atomic_open


def p5_bytes(u8: np.ndarray) -> bytes:
    """The P5 header of a [H, W] uint8 array, then its pixels."""
    h, w = u8.shape
    return b"P5\n%d %d\n255\n" % (w, h) + u8.tobytes()


def pgm_bytes(img: np.ndarray) -> bytes:
    """Encode one image ([-1, 1] floats, shape [H, W] or [1, H, W]) as P5."""
    if img.ndim == 3:
        if img.shape[0] != 1:
            raise ValueError("PGM output is single-channel")
        img = img[0]
    if img.ndim != 2:
        raise ValueError(f"expected a 2-d image, got shape {img.shape}")
    return p5_bytes(np.round((np.clip(img, -1.0, 1.0) + 1.0) * 127.5).astype(np.uint8))


def write_pgm(path: str, img: np.ndarray):
    with atomic_open(path) as f:
        f.write(pgm_bytes(img))
