import struct

import numpy as np
import pytest

from basilsim.errors import IdxFormatError
from basilsim.idx import (
    IMAGE_MAGIC,
    LABEL_MAGIC,
    idx_dataset,
    read_idx_images,
    read_idx_labels,
)


def write_idx_images(path, images):
    """Inverse of ``read_idx_images``: header, then the raw pixels."""
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    path.write_bytes(struct.pack(">IIII", IMAGE_MAGIC, n, rows, cols) + images.tobytes())


def write_idx_labels(path, labels):
    """Inverse of ``read_idx_labels``."""
    labels = np.asarray(labels, dtype=np.uint8)
    path.write_bytes(struct.pack(">II", LABEL_MAGIC, len(labels)) + labels.tobytes())


@pytest.fixture
def fixture_pair(tmp_path):
    """Four hand-crafted 28x28 images with distinct corner markers."""
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(4, 28, 28)).astype(np.uint8)
    images[:, 0, 0] = [10, 20, 30, 40]
    labels = np.array([3, 1, 4, 1], dtype=np.uint8)
    img_path = tmp_path / "imgs.idx3-ubyte"
    lab_path = tmp_path / "labs.idx1-ubyte"
    write_idx_images(img_path, images)
    write_idx_labels(lab_path, labels)
    return img_path, lab_path, images, labels


def test_roundtrip_fixture(fixture_pair):
    img_path, lab_path, images, labels = fixture_pair
    assert np.array_equal(read_idx_images(img_path), images)
    assert np.array_equal(read_idx_labels(lab_path), labels)
    ds = idx_dataset(read_idx_images(img_path), read_idx_labels(lab_path))
    assert len(ds) == 4
    assert ds.features.shape == (4, 784)
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
    assert ds.features[0, 0] == pytest.approx(10 / 255)
    assert ds.labels.tolist() == [3, 1, 4, 1]


def test_empty_file_is_a_parse_error(tmp_path):
    path = tmp_path / "empty"
    path.write_bytes(b"")
    with pytest.raises(IdxFormatError) as exc:
        read_idx_images(path)
    assert exc.value.offset == 0


def test_bad_magic_reports_offset_zero(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
    with pytest.raises(IdxFormatError) as exc:
        read_idx_images(path)
    assert "0xdeadbeef" in str(exc.value)
    assert exc.value.offset == 0


def test_truncated_pixels_report_offset(tmp_path):
    path = tmp_path / "trunc"
    path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 3)
    with pytest.raises(IdxFormatError) as exc:
        read_idx_images(path)
    assert exc.value.offset == 16


def test_count_mismatch_between_files(fixture_pair, tmp_path):
    img_path, _, _, _ = fixture_pair
    lab_path = tmp_path / "short.idx1-ubyte"
    write_idx_labels(lab_path, np.array([1, 2], dtype=np.uint8))
    with pytest.raises(IdxFormatError, match="does not match"):
        idx_dataset(read_idx_images(img_path), read_idx_labels(lab_path))


def test_label_magic_checked(fixture_pair):
    img_path, lab_path, _, _ = fixture_pair
    with pytest.raises(IdxFormatError):
        read_idx_labels(img_path)
    with pytest.raises(IdxFormatError):
        read_idx_images(lab_path)
