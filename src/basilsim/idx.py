"""Reader for the big-endian IDX image/label container used by MNIST."""

from __future__ import annotations

import math
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


def _read_idx(path: str | Path, ndim: int, what: str) -> np.ndarray:
    """The uint8 array of an IDX file of ``ndim`` dimensions: magic
    ``0x0800 + ndim``, big-endian dimensions, then exactly their payload."""
    buf = Path(path).read_bytes()
    magic = struct.unpack(">I", _read_exact(buf, 0, 4, "magic number"))[0]
    if magic != 0x0800 + ndim:
        raise IdxFormatError(f"bad {what} magic 0x{magic:08x}", 0)
    dims = struct.unpack(f">{ndim}I", _read_exact(buf, 4, 4 * ndim, f"{what} header"))
    start, size = 4 + 4 * ndim, math.prod(dims)
    data = _read_exact(buf, start, size, f"{what} data")
    if len(buf) != start + size:
        raise IdxFormatError(f"trailing bytes after {what} data", start + size)
    return np.frombuffer(data, dtype=np.uint8).reshape(dims)


def read_idx_images(path: str | Path) -> np.ndarray:
    """Return (n, rows, cols) uint8 pixels from an IDX image file."""
    return _read_idx(path, 3, "image")


def read_idx_labels(path: str | Path) -> np.ndarray:
    """Return (n,) uint8 labels from an IDX label file."""
    return _read_idx(path, 1, "label")


def idx_dataset(images: np.ndarray, labels: np.ndarray) -> Dataset:
    """The Dataset of read IDX images and labels, pixels scaled to [0, 1]."""
    if len(images) != len(labels):
        raise IdxFormatError(
            f"image count {len(images)} does not match label count {len(labels)}", 4
        )
    feats = images.reshape(len(images), math.prod(images.shape[1:])).astype(np.float64) / 255.0
    return Dataset(feats, labels.astype(np.int64))

