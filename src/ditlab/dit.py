"""A small class-conditional diffusion transformer.

Patchify -> token embedding -> N adaLN-Zero transformer blocks -> final
modulated projection back to pixel space. Every block and the final layer
are modulated by one condition, which `DiT.embed_condition` builds from
sinusoidal features of a real-valued timestep, through a 2-layer MLP, plus
the class id's row of a learned table. The adaLN modulation MLPs and the
final projection are zero-initialized, so a freshly built block is exactly
the identity on tokens and a fresh model predicts zero noise. A full pass
given a `feats` list appends a copy of each block's [tokens, dim] output to
it, for drift analysis; a block given a `branches` list appends its two
gated residual branches to it, for caching. Every piece also takes a
leading batch axis: images [B, C, H, W] with per-sample timesteps and class
ids [B], each sample modulated by its own condition, as in DiT
(arXiv 2212.09748).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    gelu,
    layer_norm,
    matmul,
    mul,
    reshape,
    scaled_dot_attention,
    silu,
    slice_last,
    take_row,
    transpose,
)

LN_EPS = 1e-6


@dataclass
class BackboneConfig:
    image_size: int = 16
    patch_size: int = 4
    channels: int = 1
    hidden_dim: int = 64
    n_heads: int = 4
    n_blocks: int = 6
    n_classes: int = 8
    T: int = 1000
    mlp_ratio: int = 4

    def __post_init__(self):
        for key in ("image_size", "patch_size", "channels", "hidden_dim", "n_heads",
                    "n_classes", "mlp_ratio"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        if self.image_size % self.patch_size != 0:
            raise ValueError("image_size must be divisible by patch_size")
        if self.hidden_dim % self.n_heads != 0:
            raise ValueError("hidden_dim must be divisible by n_heads")
        if self.hidden_dim % 2 != 0:
            raise ValueError("hidden_dim must be even: time features are sin/cos pairs")
        if self.n_blocks < 2:
            raise ValueError("need at least 2 blocks")
        if self.T < 1:
            raise ValueError("T must be positive")

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def tokens(self) -> int:
        return self.grid * self.grid

    @property
    def patch_dim(self) -> int:
        return self.channels * self.patch_size * self.patch_size


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(np.float32)


def _param(arr) -> Tensor:
    return Tensor(arr, requires_grad=True)


def _zeros(*shape) -> Tensor:
    return _param(np.zeros(shape, dtype=np.float32))


def _modulation(cond: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """adaLN parameters [..., 1, n] of a condition [..., D] ([D] for one
    sample, [B, D] for a batch), so that they broadcast over tokens."""
    mod = matmul(silu(cond), w, b)
    return reshape(mod, (*cond.shape[:-1], 1, mod.shape[-1]))


class DiTBlock:
    """Pre-norm transformer block, shift/scale/gate-modulated by a condition."""

    def __init__(self, dim: int, n_heads: int, rng: np.random.Generator, mlp_ratio: int = 4):
        self.dim = dim
        self.n_heads = n_heads
        self.head_dim = dim // n_heads
        hidden = dim * mlp_ratio
        self.wq = _param(_xavier(rng, dim, dim))
        self.wk = _param(_xavier(rng, dim, dim))
        self.wv = _param(_xavier(rng, dim, dim))
        self.bq = _zeros(dim)
        self.bk = _zeros(dim)
        self.bv = _zeros(dim)
        self.wo = _param(_xavier(rng, dim, dim))
        self.bo = _zeros(dim)
        self.w1 = _param(_xavier(rng, dim, hidden))
        self.b1 = _zeros(hidden)
        self.w2 = _param(_xavier(rng, hidden, dim))
        self.b2 = _zeros(dim)
        # adaLN-Zero: zero modulation weights make the whole block an identity
        self.w_mod = _zeros(dim, 6 * dim)
        self.b_mod = _zeros(6 * dim)

    def named_params(self, prefix: str = "") -> dict:
        names = ("wq", "wk", "wv", "bq", "bk", "bv", "wo", "bo",
                 "w1", "b1", "w2", "b2", "w_mod", "b_mod")
        return {f"{prefix}{n}": getattr(self, n) for n in names}

    def _attention(self, x: Tensor) -> Tensor:
        q = matmul(x, self.wq, self.bq)
        k = matmul(x, self.wk, self.bk)
        v = matmul(x, self.wv, self.bv)
        return matmul(scaled_dot_attention(q, k, v, self.n_heads), self.wo, self.bo)

    def run(self, h: Tensor, cond: Tensor, branches: list | None = None) -> Tensor:
        """h: [tokens, dim] with cond [dim], or [B, tokens, dim] with cond
        [B, dim]. Returns the block output; given a `branches` list, appends
        the two gated residual branches (attention, MLP) to it, for caching."""
        if h.shape[-1] != self.dim or cond.shape != (*h.shape[:-2], self.dim):
            raise ValueError(f"bad shapes for block: h {h.shape}, cond {cond.shape}")
        d = self.dim
        mod = _modulation(cond, self.w_mod, self.b_mod)
        shift_a, scale_a, gate_a, shift_m, scale_m, gate_m = (
            slice_last(mod, j * d, (j + 1) * d) for j in range(6)
        )
        attn_branch = mul(self._attention(layer_norm(h, shift_a, scale_a, LN_EPS)), gate_a)
        h_mid = h + attn_branch
        x = layer_norm(h_mid, shift_m, scale_m, LN_EPS)
        mlp_branch = mul(matmul(gelu(matmul(x, self.w1, self.b1)), self.w2, self.b2), gate_m)
        if branches is not None:
            branches += (attn_branch, mlp_branch)
        return h_mid + mlp_branch


def sinusoid(t, dim: int) -> np.ndarray:
    """Interleaved sin/cos features [dim] of a real-valued timestep, or
    [..., dim] of an array of them."""
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / half)
    args = np.asarray(t, dtype=np.float64)[..., None] * freqs
    feats = np.empty((*args.shape[:-1], dim), dtype=np.float32)
    feats[..., 0::2] = np.sin(args)
    feats[..., 1::2] = np.cos(args)
    return feats


class DiT:
    def __init__(self, cfg: BackboneConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.hidden_dim
        self.patch_w = _param(_xavier(rng, cfg.patch_dim, d))
        self.patch_b = _zeros(d)
        self.pos = _param(rng.normal(0.0, 0.02, size=(cfg.tokens, d)).astype(np.float32))
        # condition embedding. The class table's last row is never read, but
        # dropping it would shift the init RNG stream and every later weight
        self.t_w1 = _param(_xavier(rng, d, d))
        self.t_b1 = _zeros(d)
        self.t_w2 = _param(_xavier(rng, d, d))
        self.t_b2 = _zeros(d)
        self.class_table = _param(
            rng.normal(0.0, 0.02, size=(cfg.n_classes + 1, d)).astype(np.float32))
        self.blocks = [DiTBlock(d, cfg.n_heads, rng, cfg.mlp_ratio) for _ in range(cfg.n_blocks)]
        # zero-init: a fresh model predicts exactly zero noise
        self.final_mod_w = _zeros(d, 2 * d)
        self.final_mod_b = _zeros(2 * d)
        self.final_w = _zeros(d, cfg.patch_dim)
        self.final_b = _zeros(cfg.patch_dim)

    # -- parameters -------------------------------------------------------

    def named_params(self) -> dict:
        out = {
            "patch_w": self.patch_w,
            "patch_b": self.patch_b,
            "pos": self.pos,
            "cond.t_w1": self.t_w1,
            "cond.t_b1": self.t_b1,
            "cond.t_w2": self.t_w2,
            "cond.t_b2": self.t_b2,
            "cond.table": self.class_table,
        }
        for i, blk in enumerate(self.blocks):
            out.update(blk.named_params(f"blocks.{i}."))
        out.update({
            "final_mod_w": self.final_mod_w,
            "final_mod_b": self.final_mod_b,
            "final_w": self.final_w,
            "final_b": self.final_b,
        })
        return out

    def params(self) -> list:
        return list(self.named_params().values())

    def set_trainable(self, flag: bool):
        for p in self.params():
            p.requires_grad = bool(flag)

    @property
    def frozen(self) -> bool:
        return not any(p.requires_grad for p in self.params())

    # -- pieces -----------------------------------------------------------

    def extract_patches(self, img: np.ndarray) -> np.ndarray:
        """[C,H,W] -> [tokens, patch_dim], row-major grid, channel-major
        patches; [B,C,H,W] -> [B, tokens, patch_dim]."""
        c = self.cfg
        shape = (c.channels, c.image_size, c.image_size)
        if img.ndim not in (3, 4) or img.shape[-3:] != shape:
            raise ValueError(f"expected image {shape} or a batch of them, got {img.shape}")
        lead, g, p = img.shape[:-3], c.grid, c.patch_size
        x = img.reshape(-1, c.channels, g, p, g, p).transpose(0, 2, 4, 1, 3, 5)
        return x.reshape(*lead, c.tokens, c.patch_dim)

    def patchify(self, img) -> Tensor:
        """Image (array or constant Tensor) to projected tokens + positions."""
        data = img.data if isinstance(img, Tensor) else np.asarray(img, dtype=np.float32)
        tokens = Tensor(self.extract_patches(data))
        return matmul(tokens, self.patch_w, self.patch_b) + self.pos

    def unpatchify(self, tokens: Tensor) -> Tensor:
        """[..., tokens, patch_dim] -> [..., C, H, W]."""
        c = self.cfg
        lead, g, p = tokens.shape[:-2], c.grid, c.patch_size
        x = transpose(reshape(tokens, (-1, g, g, c.channels, p, p)), (0, 3, 1, 4, 2, 5))
        return reshape(x, (*lead, c.channels, c.image_size, c.image_size))

    def embed_condition(self, t, class_id) -> Tensor:
        """cond [dim] of a real-valued timestep and a class id, or [B, dim] of
        per-sample arrays of both: the time features through the MLP, plus
        the class's row of the table."""
        c = self.cfg
        t = np.asarray(t, dtype=np.float64)
        bad = t[~((0 <= t) & (t <= c.T))]
        if bad.size:
            raise ValueError(f"t={bad.flat[0]} outside [0, {c.T}]")
        ids = np.asarray(class_id)
        bad = ids[(ids < 0) | (ids >= c.n_classes)]
        if bad.size:
            raise ValueError(f"class_id {bad.flat[0]} out of range [0, {c.n_classes})")
        feats = Tensor(sinusoid(t, c.hidden_dim))
        t_emb = matmul(silu(matmul(feats, self.t_w1, self.t_b1)), self.t_w2, self.t_b2)
        return t_emb + take_row(self.class_table, ids.astype(np.intp))

    def final_layer(self, h: Tensor, cond: Tensor) -> Tensor:
        d = self.cfg.hidden_dim
        mod = _modulation(cond, self.final_mod_w, self.final_mod_b)
        shift, scale = slice_last(mod, 0, d), slice_last(mod, d, 2 * d)
        out = matmul(layer_norm(h, shift, scale, LN_EPS), self.final_w, self.final_b)
        return self.unpatchify(out)

    # -- full passes ------------------------------------------------------

    def forward(self, x, t: float, class_id: int, feats: list | None = None):
        """Predict the noise component of x at timestep t. Given a `feats`
        list, append a copy of each block's output to it."""
        h = self.patchify(x)
        cond = self.embed_condition(t, class_id)
        for blk in self.blocks:
            h = blk.run(h, cond)
            if feats is not None:
                feats.append(h.data.copy())
        return self.final_layer(h, cond)
