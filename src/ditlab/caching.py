"""Training-free caching baseline.

On refresh steps the cached blocks run normally and their gated attention and
MLP branch outputs are stored; on every other step those stored branch outputs
are added straight onto the fresh hidden states, costing zero block forwards.
Which steps refresh is `CacheConfig.refreshes`, read by the sampler through
`InferencePlan.actions`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .dit import DiT


def location_preset(preset: str, c: int, n: int) -> tuple:
    """Pick c of n block indices by placement name."""
    if not (0 <= c <= n):
        raise ValueError(f"cache count {c} outside [0, {n}]")
    if preset == "first":
        idx = range(c)
    elif preset == "last":
        idx = range(n - c, n)
    elif preset == "inner":
        off = (n - c) // 2
        idx = range(off, off + c)
    elif preset == "outer":
        front = c - c // 2
        idx = list(range(front)) + list(range(n - c // 2, n))
    elif preset == "alternating":
        idx = (j * n // c for j in range(c)) if c else ()
    else:
        raise ValueError(f"unknown cache location {preset!r}")
    return tuple(idx)


@dataclass(frozen=True)
class CacheConfig:
    blocks: tuple          # block indices whose branches get cached
    refresh_period: int    # recompute on the steps where `refreshes` holds

    def __post_init__(self):
        if self.refresh_period < 1:
            raise ValueError("refresh_period must be >= 1")
        if len(set(self.blocks)) != len(self.blocks):
            raise ValueError("duplicate cached block indices")
        if any(b < 0 for b in self.blocks):
            raise ValueError("negative block index")

    def refreshes(self, k: int) -> bool:
        """Whether plan step k recomputes the cached blocks (step 0 always does)."""
        return k % self.refresh_period == 0

    @classmethod
    def from_preset(cls, location: str, count: int, n_blocks: int,
                    refresh_period: int) -> "CacheConfig":
        return cls(blocks=location_preset(location, count, n_blocks),
                   refresh_period=refresh_period)


class CacheStore:
    """Stored branch outputs for one sampling run."""

    def __init__(self):
        self._store = {}

    def put(self, idx: int, attn: np.ndarray, mlp: np.ndarray):
        self._store[idx] = (attn, mlp)

    def get(self, idx: int):
        if idx not in self._store:
            raise ValueError(f"cache read for block {idx} before any refresh")
        return self._store[idx]

    def valid(self, idx: int) -> bool:
        return idx in self._store


def cached_run_block(model: DiT, idx: int, h: Tensor, cond: Tensor,
                     store: CacheStore, refresh: bool):
    """One block under caching. Returns (output, cost) with cost 1 on a
    refresh (full run, branches captured) and 0 on a hit; the traced
    benchmark counts hits and refreshes from the cost."""
    if refresh:
        branches = []
        out = model.blocks[idx].run(h, cond, branches)
        store.put(idx, *(b.data.copy() for b in branches))
        return out, 1
    attn, mlp = store.get(idx)
    # same association order as the real block: (h + attn) + mlp
    return (h + Tensor(attn)) + Tensor(mlp), 0


def cached_forward(model: DiT, x, t: float, class_id, cfg: CacheConfig,
                   store: CacheStore, refresh: bool, feats: list | None = None):
    """Full model pass with the configured blocks run through
    `cached_run_block`; returns eps_hat. Given a `feats` list, appends a
    copy of each block's output to it, hit or refresh."""
    n = model.cfg.n_blocks
    if any(b >= n for b in cfg.blocks):
        raise ValueError(f"cached block index out of range for {n} blocks")
    cached = set(cfg.blocks)

    def run(i, h, cond):
        if i in cached:
            return cached_run_block(model, i, h, cond, store, refresh)[0]
        return model.blocks[i].run(h, cond)

    h = model.patchify(x)
    cond = model.embed_condition(t, class_id)
    return model.final_layer(model.run_blocks(h, cond, range(n), feats, run), cond)
