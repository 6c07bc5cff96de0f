"""Reader for the big-endian IDX image/label container used by MNIST."""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import IdxFormatError

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


def _read_exact(buf: bytes, offset: int, n: int, what: str) -> bytes:
    if offset + n > len(buf):
        raise IdxFormatError(f"truncated file while reading {what}", offset)
    return buf[offset:offset + n]


def read_idx_images(path: str | Path) -> np.ndarray:
    """Return (n, rows, cols) uint8 pixels from an IDX image file."""
    buf = Path(path).read_bytes()
    magic = struct.unpack(">I", _read_exact(buf, 0, 4, "magic number"))[0]
    if magic != IMAGE_MAGIC:
        raise IdxFormatError(f"bad image magic 0x{magic:08x}", 0)
    n, rows, cols = struct.unpack(">III", _read_exact(buf, 4, 12, "image header"))
    data = _read_exact(buf, 16, n * rows * cols, "pixel data")
    if len(buf) != 16 + n * rows * cols:
        raise IdxFormatError("trailing bytes after pixel data", 16 + n * rows * cols)
    return np.frombuffer(data, dtype=np.uint8).reshape(n, rows, cols)


def read_idx_labels(path: str | Path) -> np.ndarray:
    """Return (n,) uint8 labels from an IDX label file."""
    buf = Path(path).read_bytes()
    magic = struct.unpack(">I", _read_exact(buf, 0, 4, "magic number"))[0]
    if magic != LABEL_MAGIC:
        raise IdxFormatError(f"bad label magic 0x{magic:08x}", 0)
    n = struct.unpack(">I", _read_exact(buf, 4, 4, "label count"))[0]
    data = _read_exact(buf, 8, n, "label data")
    if len(buf) != 8 + n:
        raise IdxFormatError("trailing bytes after label data", 8 + n)
    return np.frombuffer(data, dtype=np.uint8)


def idx_dataset(images: np.ndarray, labels: np.ndarray) -> Dataset:
    """The Dataset of read IDX images and labels, pixels scaled to [0, 1]."""
    if len(images) != len(labels):
        raise IdxFormatError(
            f"image count {len(images)} does not match label count {len(labels)}", 4
        )
    feats = images.reshape(len(images), -1).astype(np.float64) / 255.0
    return Dataset(feats, labels.astype(np.int64))

