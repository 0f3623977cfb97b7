"""Portable binary checkpoints.

Layout: magic, version, a JSON header (format version, config hash, optional
metadata, and a named-array directory of dtype/shape/offset entries), then
little-endian float32 payloads, each 64-byte aligned. Backbone and feedback
arrays live under disjoint name prefixes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct

import numpy as np

MAGIC = b"DLCP"
FORMAT_VERSION = 1
ALIGN = 64


def config_hash(obj) -> str:
    """Stable hash of a JSON-serializable config fragment."""
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def params_hash(arrays: dict) -> str:
    """Order-independent hash over named float arrays."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name], dtype="<f4").tobytes())
    return h.hexdigest()


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "wb", **kwargs):
    """open() for writing a whole file, beside `path`, renamed onto `path`
    when the block exits cleanly and removed when it raises: an interrupted
    write never leaves a partial file at `path`."""
    tmp = path + ".tmp"
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _pad(offset: int) -> int:
    return (offset + ALIGN - 1) // ALIGN * ALIGN


def save_checkpoint(path: str, arrays: dict, cfg_hash: str, meta: dict | None = None):
    names = list(arrays)
    blobs = [np.ascontiguousarray(arrays[n], dtype="<f4").tobytes() for n in names]

    # offsets depend on the header length and vice versa (digit widths);
    # iterate until the encoding stabilizes, which takes 2-3 rounds
    entries = []
    header_len = 0
    for _ in range(8):
        entries = []
        cursor = _pad(len(MAGIC) + 8 + header_len)
        for name, blob in zip(names, blobs):
            entries.append({
                "name": name,
                "dtype": "float32",
                "shape": list(np.asarray(arrays[name]).shape),
                "offset": cursor,
            })
            cursor = _pad(cursor + len(blob))
        header = {
            "format_version": FORMAT_VERSION,
            "config_hash": cfg_hash,
            "meta": meta or {},
            "arrays": entries,
        }
        encoded = json.dumps(header, sort_keys=True).encode()
        if len(encoded) == header_len:
            break
        header_len = len(encoded)
    else:
        raise RuntimeError("checkpoint header failed to stabilize")

    with atomic_open(path) as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", FORMAT_VERSION, header_len))
        f.write(encoded)
        pos = len(MAGIC) + 8 + header_len
        for entry, blob in zip(entries, blobs):
            f.write(b"\x00" * (entry["offset"] - pos))
            f.write(blob)
            pos = entry["offset"] + len(blob)


def load_checkpoint(path: str, expect_config_hash: str | None = None) -> tuple:
    """Returns (arrays dict, header dict). Any malformed or truncated file
    raises ValueError."""
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint (bad magic)")
    if len(buf) < 12:
        raise ValueError(f"{path}: truncated checkpoint header")
    version, header_len = struct.unpack("<II", buf[4:12])
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    try:
        header = json.loads(buf[12:12 + header_len].decode())
        cfg_hash = str(header["config_hash"])
        if not isinstance(header.get("meta", {}), dict):
            raise TypeError("meta is not an object")
        directory = [(str(e["name"]), tuple(int(d) for d in e["shape"]), int(e["offset"]))
                     for e in header["arrays"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed checkpoint header ({exc!r})") from None
    if expect_config_hash is not None and cfg_hash != expect_config_hash:
        raise ValueError(
            f"{path}: checkpoint config hash {cfg_hash[:12]}... does not "
            f"match expected {expect_config_hash[:12]}...")
    arrays = {}
    prev_end = 12 + header_len
    for name, shape, start in directory:
        count = int(np.prod(shape)) if shape else 1
        end = start + 4 * count
        if start < prev_end or end > len(buf) or count < 0:
            raise ValueError(f"{path}: corrupt directory entry for {name!r}")
        if start % ALIGN:
            raise ValueError(f"{path}: misaligned array {name!r}")
        arrays[name] = np.frombuffer(
            buf, dtype="<f4", count=count, offset=start).reshape(shape).copy()
        prev_end = end
    return arrays, header


def load_into(named_params: dict, arrays: dict, prefix: str = ""):
    """Assign checkpoint arrays onto live parameters, validating coverage."""
    for name, param in named_params.items():
        key = prefix + name
        if key not in arrays:
            raise ValueError(f"checkpoint missing array {key!r}")
        arr = arrays[key]
        if arr.shape != param.data.shape:
            raise ValueError(
                f"array {key!r} shape {arr.shape} != param shape {param.data.shape}")
        param.data = arr.astype(np.float32)
    extra = set(arrays) - {prefix + n for n in named_params}
    if extra:
        raise ValueError(f"checkpoint holds unknown arrays: {sorted(extra)[:4]}")
