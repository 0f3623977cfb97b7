import struct

import numpy as np
import pytest

from ditlab.data import Dataset, batches, gen_shapes, load_idx, write_idx


# ---------------------------------------------------------------------------
# procedural shapes
# ---------------------------------------------------------------------------


def test_gen_shapes_deterministic():
    a = gen_shapes(seed=5, n_per_class=4)
    b = gen_shapes(seed=5, n_per_class=4)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)
    c = gen_shapes(seed=6, n_per_class=4)
    assert not np.array_equal(a.images, c.images)


def test_gen_shapes_counts_and_range():
    ds = gen_shapes(seed=1, n_per_class=10, n_classes=8, size=16)
    assert len(ds) == 80
    assert ds.images.shape == (80, 1, 16, 16)
    for cls in range(8):
        assert (ds.labels == cls).sum() == 10
    assert ds.images.min() >= -1.0 and ds.images.max() <= 1.0
    assert ds.images.dtype == np.float32


def test_gen_shapes_class_means_distinct():
    ds = gen_shapes(seed=2, n_per_class=16)
    means = np.stack([ds.images[ds.labels == c].mean(axis=0) for c in range(8)])
    worst = np.inf
    for i in range(8):
        for j in range(i + 1, 8):
            worst = min(worst, np.linalg.norm(means[i] - means[j]))
    assert worst > 0.5


def test_gen_shapes_validation():
    with pytest.raises(ValueError):
        gen_shapes(seed=0, n_per_class=1, size=4)
    with pytest.raises(ValueError):
        gen_shapes(seed=0, n_per_class=0)
    with pytest.raises(ValueError):
        gen_shapes(seed=0, n_per_class=1, n_classes=9)


# ---------------------------------------------------------------------------
# IDX parsing
# ---------------------------------------------------------------------------


def _write_fixture(tmp_path, pixels, labels, rows=4, cols=4,
                   image_magic=0x803, label_magic=0x801, truncate=0):
    img_path = tmp_path / "imgs.idx"
    lab_path = tmp_path / "labs.idx"
    blob = struct.pack(">IIII", image_magic, len(labels), rows, cols) + bytes(pixels)
    if truncate:
        blob = blob[:-truncate]
    img_path.write_bytes(blob)
    lab_path.write_bytes(struct.pack(">II", label_magic, len(labels)) + bytes(labels))
    return str(img_path), str(lab_path)


def test_idx_hand_built_fixture(tmp_path):
    pixels = list(range(16)) + [255 - v for v in range(16)]
    imgs, labs = _write_fixture(tmp_path, pixels, [3, 1])
    ds = load_idx(imgs, labs)
    assert ds.images.shape == (2, 1, 4, 4)
    expect0 = np.array(pixels[:16], np.float32).reshape(4, 4) / 127.5 - 1.0
    assert np.allclose(ds.images[0, 0], expect0, atol=1e-6)
    assert list(ds.labels) == [3, 1]
    assert ds.source == "idx"


def test_idx_rescale_endpoints(tmp_path):
    imgs, labs = _write_fixture(tmp_path, [0] * 16 + [255] * 16, [0, 1])
    ds = load_idx(imgs, labs)
    assert abs(ds.images[0].min() + 1.0) <= 1e-6
    assert abs(ds.images[1].max() - 1.0) <= 1e-6


def test_idx_bad_magic(tmp_path):
    imgs, labs = _write_fixture(tmp_path, [0] * 16, [0], image_magic=0x801)
    with pytest.raises(ValueError, match="magic"):
        load_idx(imgs, labs)


def test_idx_truncated(tmp_path):
    imgs, labs = _write_fixture(tmp_path, [0] * 16, [0], truncate=4)
    with pytest.raises(ValueError, match="truncated"):
        load_idx(imgs, labs)


def test_idx_count_mismatch(tmp_path):
    img_path = tmp_path / "i.idx"
    lab_path = tmp_path / "l.idx"
    img_path.write_bytes(struct.pack(">IIII", 0x803, 1, 2, 2) + bytes(4))
    lab_path.write_bytes(struct.pack(">II", 0x801, 2) + bytes(2))
    with pytest.raises(ValueError, match="count"):
        load_idx(str(img_path), str(lab_path))


def test_idx_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    imgs_u8 = rng.integers(0, 256, size=(3, 6, 6)).astype(np.uint8)
    labels = np.array([0, 2, 1], np.uint8)
    ip, lp = str(tmp_path / "a.idx"), str(tmp_path / "b.idx")
    write_idx(imgs_u8, labels, ip, lp)
    ds = load_idx(ip, lp)
    back = np.round((ds.images[:, 0] + 1.0) * 127.5).astype(np.uint8)
    assert np.array_equal(back, imgs_u8)
    assert np.array_equal(ds.labels, labels)


def test_idx_crop_and_pad(tmp_path):
    rng = np.random.default_rng(10)
    imgs_u8 = rng.integers(0, 256, size=(2, 8, 8)).astype(np.uint8)
    ip, lp = str(tmp_path / "c.idx"), str(tmp_path / "d.idx")
    write_idx(imgs_u8, np.zeros(2, np.uint8), ip, lp)
    cropped = load_idx(ip, lp, size=4)
    assert cropped.images.shape == (2, 1, 4, 4)
    expect = imgs_u8[0, 2:6, 2:6].astype(np.float32) / 127.5 - 1.0
    assert np.allclose(cropped.images[0, 0], expect, atol=1e-6)
    padded = load_idx(ip, lp, size=12)
    assert padded.images.shape == (2, 1, 12, 12)
    assert np.allclose(padded.images[0, 0, :2, :], -1.0)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def test_batches_full_dataset_is_permutation():
    ds = gen_shapes(seed=3, n_per_class=4, n_classes=4)
    imgs, labels = next(batches(ds, len(ds), np.random.default_rng(0)))
    assert sorted(labels.tolist()) == sorted(ds.labels.tolist())
    assert imgs.shape == ds.images.shape


def test_batches_deterministic_given_seed():
    ds = gen_shapes(seed=3, n_per_class=8, n_classes=4)
    take = lambda seed: [next(batches(ds, 8, np.random.default_rng(seed)))[1].tolist()
                         for _ in range(1)][0]
    assert take(5) == take(5)
    assert take(5) != take(6)


def test_batches_reshuffles_across_epochs():
    ds = gen_shapes(seed=4, n_per_class=8, n_classes=4)
    stream = batches(ds, len(ds), np.random.default_rng(7))
    first = next(stream)[1].tolist()
    second = next(stream)[1].tolist()
    assert first != second  # w.h.p. for N = 32


def test_batches_drops_partial_and_validates():
    ds = gen_shapes(seed=5, n_per_class=5, n_classes=2)  # N = 10
    stream = batches(ds, 4, np.random.default_rng(0))
    seen = [next(stream)[0].shape[0] for _ in range(4)]
    assert seen == [4, 4, 4, 4]  # 2 per epoch, partial dropped
    with pytest.raises(ValueError):
        next(batches(ds, 11, np.random.default_rng(0)))


def test_dataset_validation():
    bad = np.full((1, 1, 4, 4), 2.0, np.float32)
    with pytest.raises(ValueError):
        Dataset(images=bad, labels=np.zeros(1, np.int64), n_classes=2, source="procedural")
    with pytest.raises(ValueError):
        Dataset(images=np.zeros((1, 1, 4, 4), np.float32),
                labels=np.array([5]), n_classes=2, source="procedural")


def test_idx_truncations_and_bit_flips_raise_only_value_error(tmp_path):
    # a flipped bit in a header count must not make the loader ask for
    # gigabytes (MemoryError) or fail in any other way but ValueError
    rng = np.random.default_rng(9)
    imgs_u8 = rng.integers(0, 256, size=(5, 4, 4)).astype(np.uint8)
    labels = np.array([0, 1, 2, 1, 0], np.uint8)
    ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    write_idx(imgs_u8, labels, ip, lp)
    good = {ip: open(ip, "rb").read(), lp: open(lp, "rb").read()}
    loads = 0
    for path, blob in good.items():
        variants = [blob[:n] for n in range(len(blob))]
        variants += [blob[:i] + bytes([blob[i] ^ (1 << bit)]) + blob[i + 1:]
                     for i in range(len(blob)) for bit in range(8)]
        for variant in variants:
            open(path, "wb").write(variant)
            try:
                load_idx(ip, lp)
                loads += 1
            except ValueError:
                pass
        open(path, "wb").write(blob)
    # flips inside the payloads still load; the sweep did reach the loader
    assert 0 < loads < sum(9 * len(b) for b in good.values())
