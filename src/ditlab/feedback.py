"""Learnable feedback over an inner loop of backbone blocks.

One extra block, architecturally identical to the backbone's, consumes the
loop-end features at timestep t and produces f_feed. The loop blocks are then
re-run with f_feed injected additively, scaled per block by a zero-initialized
learnable vector s, and everything after the feedback runs under a later time
condition t_post. Only the extra block and s ever receive gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, mul, slice_last
from .dit import DiT, DiTBlock


@dataclass
class FeedbackState:
    block: DiTBlock
    s: Tensor              # [loop_size], zero-initialized
    loop_start: int
    loop_end: int

    def __post_init__(self):
        if not (0 <= self.loop_start <= self.loop_end):
            raise ValueError(f"bad loop bounds ({self.loop_start}, {self.loop_end})")
        if self.s.shape != (self.m,):
            raise ValueError(f"s must have length {self.m}, got {self.s.shape}")

    @property
    def m(self) -> int:
        return self.loop_end - self.loop_start + 1

    def named_params(self) -> dict:
        out = self.block.named_params("block.")
        out["s"] = self.s
        return out

    def params(self) -> list:
        return list(self.named_params().values())

    def set_trainable(self, flag: bool):
        for p in self.params():
            p.requires_grad = bool(flag)


def make_feedback(model: DiT, loop_start: int, loop_end: int,
                  rng: np.random.Generator) -> FeedbackState:
    """Fresh feedback state for a backbone: a block copy (random weights,
    zero adaLN gates, so it starts as the identity) plus s = 0."""
    cfg = model.cfg
    if not (0 <= loop_start <= loop_end < cfg.n_blocks):
        raise ValueError(
            f"loop ({loop_start}, {loop_end}) invalid for {cfg.n_blocks} blocks")
    block = DiTBlock(cfg.hidden_dim, cfg.n_heads, rng, cfg.mlp_ratio)
    s = Tensor(np.zeros(loop_end - loop_start + 1, dtype=np.float32), requires_grad=True)
    fs = FeedbackState(block=block, s=s, loop_start=loop_start, loop_end=loop_end)
    fs.set_trainable(True)
    return fs


def ilf_forward(model: DiT, fs: FeedbackState, x, t, t_post, class_id,
                feats: list | None = None):
    """Feedback-augmented forward pass, of one image or of a batch with
    per-sample t, t_post and class ids.

    Blocks 0..e run under cond(t); the feedback block turns the loop-end
    features into f_feed; blocks b..e are re-run with s-scaled f_feed added
    to each input; the re-run, the tail blocks, and the final projection all
    use cond(t_post). Returns (eps_hat, block_forward_count). Given a `feats`
    list, appends a copy of each block's effective output to it: blocks
    before the loop from the first pass, the rest from the re-run.
    """
    b, e = fs.loop_start, fs.loop_end
    n = model.cfg.n_blocks
    if e >= n:
        raise ValueError(f"loop end {e} out of range for {n} blocks")
    if np.any(np.asarray(t_post) > np.asarray(t)):
        raise ValueError(f"t_post={t_post} must not exceed t={t}")

    count = 0
    h = model.patchify(x)
    cond_t = model.embed_condition(t, class_id)

    f_prev = h  # stands in for the block-(b-1) output when b == 0
    for i in range(e + 1):
        h = model.blocks[i].run(h, cond_t)
        count += 1
        if i == b - 1:
            f_prev = h
        if feats is not None and i < b:
            feats.append(h.data.copy())

    f_feed = fs.block.run(h, cond_t)
    count += 1

    cond_post = model.embed_condition(t_post, class_id)
    cur = f_prev
    for i in range(b, n):
        if i <= e:
            cur = mul(f_feed, slice_last(fs.s, i - b, i - b + 1)) + cur
        cur = model.blocks[i].run(cur, cond_post)
        count += 1
        if feats is not None:
            feats.append(cur.data.copy())

    return model.final_layer(cur, cond_post), count
