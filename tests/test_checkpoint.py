import builtins
import os

import numpy as np
import pytest

from conftest import tiny_config
from ditlab import DiT, cli, make_feedback
from ditlab.checkpoint import (
    ALIGN,
    config_hash,
    load_checkpoint,
    load_into,
    params_hash,
    save_checkpoint,
)
from ditlab.data import write_idx
from ditlab.pgm import write_pgm


def test_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "backbone.a": rng.normal(size=(3, 5)).astype(np.float32),
        "backbone.b": rng.normal(size=7).astype(np.float32),
        "feedback.s": np.zeros(3, np.float32),
    }
    path = str(tmp_path / "x.ckpt")
    save_checkpoint(path, arrays, cfg_hash="abc", meta={"k": 1})
    loaded, header = load_checkpoint(path)
    assert set(loaded) == set(arrays)
    for k in arrays:
        assert np.array_equal(loaded[k], arrays[k])
        assert loaded[k].dtype == np.float32
    assert header["config_hash"] == "abc"
    assert header["meta"] == {"k": 1}


def test_offsets_aligned_and_disjoint(tmp_path):
    arrays = {f"p{i}": np.full(i + 1, i, np.float32) for i in range(5)}
    path = str(tmp_path / "y.ckpt")
    save_checkpoint(path, arrays, cfg_hash="h")
    _, header = load_checkpoint(path)
    entries = header["arrays"]
    prev_end = 0
    for e in entries:
        assert e["offset"] % ALIGN == 0
        assert e["offset"] >= prev_end
        prev_end = e["offset"] + 4 * int(np.prod(e["shape"]))


def test_config_hash_detects_mismatch(tmp_path):
    path = str(tmp_path / "z.ckpt")
    save_checkpoint(path, {"a": np.zeros(1, np.float32)}, cfg_hash=config_hash({"d": 1}))
    load_checkpoint(path, expect_config_hash=config_hash({"d": 1}))
    with pytest.raises(ValueError, match="hash"):
        load_checkpoint(path, expect_config_hash=config_hash({"d": 2}))


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(str(p))


def test_truncated_payload_rejected(tmp_path):
    path = str(tmp_path / "t.ckpt")
    save_checkpoint(path, {"a": np.arange(64, dtype=np.float32)}, cfg_hash="h")
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-8])
    with pytest.raises(ValueError, match="corrupt"):
        load_checkpoint(path)


def test_truncated_or_malformed_header_rejected(tmp_path):
    import json
    import struct

    path = str(tmp_path / "h.ckpt")
    save_checkpoint(path, {"a": np.arange(4, dtype=np.float32)}, cfg_hash="h")
    blob = open(path, "rb").read()
    for cut in (5, 11, 20):  # inside the fixed header, inside the JSON
        open(path, "wb").write(blob[:cut])
        with pytest.raises(ValueError):
            load_checkpoint(path)
    for header in ({"config_hash": "h"}, {"config_hash": "h", "arrays": [{"name": "a"}]},
                   {"config_hash": "h", "arrays": [], "meta": []}, ["arrays"]):
        encoded = json.dumps(header).encode()
        open(path, "wb").write(b"DLCP" + struct.pack("<II", 1, len(encoded)) + encoded)
        with pytest.raises(ValueError, match="malformed"):
            load_checkpoint(path)


def test_load_into_validates_names_and_shapes(tmp_path):
    model = DiT(tiny_config(), np.random.default_rng(1))
    named = model.named_params()
    arrays = {f"backbone.{k}": p.data.copy() for k, p in named.items()}
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, arrays, cfg_hash="h")
    loaded, _ = load_checkpoint(path)

    other = DiT(tiny_config(), np.random.default_rng(2))
    load_into(other.named_params(), loaded, prefix="backbone.")
    for k in named:
        assert np.array_equal(other.named_params()[k].data, named[k].data)

    missing = dict(loaded)
    missing.pop("backbone.patch_w")
    with pytest.raises(ValueError, match="missing"):
        load_into(other.named_params(), missing, prefix="backbone.")

    extra = dict(loaded)
    extra["backbone.rogue"] = np.zeros(1, np.float32)
    with pytest.raises(ValueError, match="unknown"):
        load_into(other.named_params(), extra, prefix="backbone.")


def test_params_hash_order_independent_and_sensitive():
    a = {"x": np.ones(3, np.float32), "y": np.zeros(2, np.float32)}
    b = {"y": np.zeros(2, np.float32), "x": np.ones(3, np.float32)}
    assert params_hash(a) == params_hash(b)
    c = {"x": np.ones(3, np.float32), "y": np.full(2, 1e-7, np.float32)}
    assert params_hash(a) != params_hash(c)


def test_model_and_feedback_prefixes_disjoint():
    model = DiT(tiny_config(), np.random.default_rng(3))
    fs = make_feedback(model, 0, 1, np.random.default_rng(4))
    backbone_names = {f"backbone.{k}" for k in model.named_params()}
    feedback_names = {f"feedback.{k}" for k in fs.named_params()}
    assert not (backbone_names & feedback_names)


def _flips_and_cuts(blob: bytes):
    """Every truncation and every single-bit flip of blob."""
    for n in range(len(blob)):
        yield blob[:n]
    for i in range(len(blob)):
        for bit in range(8):
            yield blob[:i] + bytes([blob[i] ^ (1 << bit)]) + blob[i + 1:]


def test_truncated_or_bit_flipped_checkpoint_raises_only_value_error(tmp_path):
    path = str(tmp_path / "c.ckpt")
    arrays = {"backbone.w": np.arange(6, dtype=np.float32).reshape(2, 3),
              "backbone.b": np.ones(2, np.float32)}
    save_checkpoint(path, arrays, config_hash({"n": 1}), meta={"loop_start": 0})
    blob = open(path, "rb").read()
    bad = str(tmp_path / "bad.ckpt")
    rejected = 0
    for variant in _flips_and_cuts(blob):
        with open(bad, "wb") as f:
            f.write(variant)
        try:
            load_checkpoint(bad)
        except ValueError:
            rejected += 1
    assert rejected >= len(blob)  # every truncation at least


class FailingFile:
    """A file whose nth write raises, as a full disk would."""

    def __init__(self, f, nth):
        self.f, self.nth, self.writes = f, nth, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.writes += 1
        if self.writes == self.nth:
            raise OSError("no space left on device")
        return self.f.write(data)


def fail_nth_write(monkeypatch, nth):
    """Make every file that `atomic_open` opens fail at its nth write."""
    from ditlab import checkpoint

    monkeypatch.setattr(checkpoint, "open",
                        lambda *a, **k: FailingFile(builtins.open(*a, **k), nth), raising=False)


def test_interrupted_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = str(tmp_path / "model.ckpt")
    old = {"backbone.w": np.full((4, 4), 1.5, np.float32)}
    save_checkpoint(path, old, "h1")

    fail_nth_write(monkeypatch, 3)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(path, {"backbone.w": np.zeros((4, 4), np.float32)}, "h2")
    monkeypatch.undo()

    arrays, header = load_checkpoint(path, expect_config_hash="h1")
    assert np.array_equal(arrays["backbone.w"], old["backbone.w"])
    assert os.listdir(tmp_path) == ["model.ckpt"]


@pytest.mark.parametrize("writer", ["csv", "pgm", "idx"])
def test_interrupted_output_write_leaves_no_file(tmp_path, monkeypatch, writer):
    """CSV, PGM and IDX outputs are written as checkpoints are: a write that
    raises partway leaves neither a file at the final path nor a temp file."""
    img = np.zeros((8, 8), np.float32)
    writes = {
        "csv": (2, lambda: cli._write_csv(str(tmp_path / "cost.csv"), ("a", "b"),
                                          [(1, 2), (3, 4)])),
        "pgm": (1, lambda: write_pgm(str(tmp_path / "s.pgm"), img)),
        "idx": (2, lambda: write_idx(np.zeros((2, 8, 8), np.uint8), np.zeros(2, np.uint8),
                                     str(tmp_path / "i.idx"), str(tmp_path / "l.idx"))),
    }
    nth, write = writes[writer]
    fail_nth_write(monkeypatch, nth)
    with pytest.raises(OSError, match="no space"):
        write()
    assert os.listdir(tmp_path) == []
    monkeypatch.undo()
    write()  # the same write, uninterrupted, leaves its outputs and no temp file
    names = os.listdir(tmp_path)
    assert names and not [name for name in names if name.endswith(".tmp")]
