"""Float64 reference sampler for ditlab, written from the model's equations.

Nothing here calls ditlab. The weights are read through each object's
`named_params()` and the sizes through `model.cfg`; every equation below is
restated from the README and the module docstrings:

- patch tokens: `x` cut into p x p patches (row-major grid, channel-major
  patch), times `patch_w`, plus `patch_b` and the position table;
- condition: interleaved sin/cos features of the real-valued `t` at
  frequencies `exp(-ln(1e4) k / (d/2))`, through `silu` and two linears, plus
  the class-table row (the last row is the null class);
- adaLN-Zero block: `silu(c)` gives shift/scale/gate for the attention and MLP
  branches; `h' = h + g_a * attn(LN(h)(1 + s_a) + b_a)`, then
  `h'' = h' + g_m * mlp(LN(h')(1 + s_m) + b_m)`, with tanh-GELU and
  unit-variance layer norm (eps 1e-6, no affine);
- ILF: blocks 0..e run under `cond(t)`, the feedback block turns the loop-end
  features into `f_feed`, blocks b..e are re-run from the block-(b-1) output
  with `s_i f_feed` added to each input, and the re-run, the tail blocks and
  the final layer run under `cond(t_post)`, `t_post = t - gap * m / n`;
- caching: on steps with `k % p == 0` the cached blocks run and store their
  gated branches; on the other steps `(h + attn) + mlp` from the store;
- DDIM with eta = 0 on a linear beta schedule (1e-4..0.02 over T steps),
  alpha_bar interpolated linearly at real `t` and keyed on the plan's `t`.
"""

from __future__ import annotations

import math

import numpy as np

LN_EPS = 1e-6
GELU_C = math.sqrt(2.0 / math.pi)
BLOCK_NAMES = ("wq", "wk", "wv", "bq", "bk", "bv", "wo", "bo",
               "w1", "b1", "w2", "b2", "w_mod", "b_mod")


def params64(obj) -> dict:
    """Every named parameter of a model, block or feedback state, as float64."""
    return {k: np.array(v.data, dtype=np.float64) for k, v in obj.named_params().items()}


def _silu(x):
    return x / (1.0 + np.exp(-x))


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(GELU_C * (x + 0.044715 * x ** 3)))


def _layer_norm(x):
    c = x - x.mean(axis=-1, keepdims=True)
    return c / np.sqrt((c * c).mean(axis=-1, keepdims=True) + LN_EPS)


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def run_block(w: dict, h, c, n_heads: int):
    """One adaLN-Zero block on a batch. h: [B, L, d], c: [B, d].
    Returns (output, gated attention branch, gated MLP branch)."""
    B, L, d = h.shape
    dh = d // n_heads
    mod = _silu(c) @ w["w_mod"] + w["b_mod"]
    sa, ca, ga, sm, cm, gm = (mod[:, None, j * d:(j + 1) * d] for j in range(6))
    x = _layer_norm(h) * (1.0 + ca) + sa

    def heads(y):
        return y.reshape(B, L, n_heads, dh).transpose(0, 2, 1, 3)

    q, k, v = (heads(x @ w["w" + n] + w["b" + n]) for n in "qkv")
    att = _softmax(q @ k.transpose(0, 1, 3, 2) / math.sqrt(dh)) @ v
    att = att.transpose(0, 2, 1, 3).reshape(B, L, d)
    attn = (att @ w["wo"] + w["bo"]) * ga
    mid = h + attn
    x = _layer_norm(mid) * (1.0 + cm) + sm
    mlp = (_gelu(x @ w["w1"] + w["b1"]) @ w["w2"] + w["b2"]) * gm
    return mid + mlp, attn, mlp


def alpha_bar(T: int) -> np.ndarray:
    beta = np.concatenate([[0.0], np.linspace(1e-4, 0.02, T)])
    return np.cumprod(1.0 - beta)


def plan_steps(S: int, T: int) -> list:
    """Trailing-uniform descending steps t_k = T (S - k + 1) / S, k = 1..S."""
    return [T * (S - k + 1) / S for k in range(1, S + 1)]


def skip_inner_flags(S: int) -> list:
    return [k in (0, 1, S - 2, S - 1) for k in range(S)]


class RefDiT:
    """The backbone (and optionally a feedback state) in float64."""

    def __init__(self, model, fs=None):
        c = model.cfg
        self.n, self.d, self.heads = c.n_blocks, c.hidden_dim, c.n_heads
        self.C, self.size, self.p, self.T = c.channels, c.image_size, c.patch_size, c.T
        self.n_classes = c.n_classes
        self.g = self.size // self.p
        w = params64(model)
        self.w = w
        self.blocks = [{n: w[f"blocks.{i}.{n}"] for n in BLOCK_NAMES} for i in range(self.n)]
        self.ab = alpha_bar(self.T)
        self.fb = self.s = None
        if fs is not None:
            self.loop = (fs.loop_start, fs.loop_end)
            self.set_feedback(params64(fs))

    def set_feedback(self, fw: dict):
        self.fb = {n: fw[f"block.{n}"] for n in BLOCK_NAMES}
        self.s = fw["s"]

    # -- pieces -------------------------------------------------------------

    def patchify(self, x):
        B, g, p = x.shape[0], self.g, self.p
        tok = x.reshape(B, self.C, g, p, g, p).transpose(0, 2, 4, 1, 3, 5).reshape(B, g * g, -1)
        return tok @ self.w["patch_w"] + self.w["patch_b"] + self.w["pos"]

    def cond(self, t: float, labels):
        w, half = self.w, self.d // 2
        args = float(t) * np.exp(-math.log(10000.0) * np.arange(half) / half)
        feats = np.empty(self.d)
        feats[0::2], feats[1::2] = np.sin(args), np.cos(args)
        emb = _silu(feats @ w["cond.t_w1"] + w["cond.t_b1"]) @ w["cond.t_w2"] + w["cond.t_b2"]
        return emb[None, :] + w["cond.table"][np.asarray(labels)]

    def final(self, h, c):
        w, d, g, p = self.w, self.d, self.g, self.p
        mod = _silu(c) @ w["final_mod_w"] + w["final_mod_b"]
        out = _layer_norm(h) * (1.0 + mod[:, None, d:]) + mod[:, None, :d]
        out = out @ w["final_w"] + w["final_b"]
        B = h.shape[0]
        return out.reshape(B, g, g, self.C, p, p).transpose(0, 3, 1, 4, 2, 5).reshape(
            B, self.C, self.size, self.size)

    # -- one network evaluation per kind -------------------------------------

    def eps(self, x, t, labels):
        h, c = self.patchify(x), self.cond(t, labels)
        for blk in self.blocks:
            h = run_block(blk, h, c, self.heads)[0]
        return self.final(h, c)

    def eps_ilf(self, x, t, t_post, labels):
        b, e = self.loop
        h, ct = self.patchify(x), self.cond(t, labels)
        f_prev = h
        for i in range(e + 1):
            h = run_block(self.blocks[i], h, ct, self.heads)[0]
            if i == b - 1:
                f_prev = h
        f_feed = run_block(self.fb, h, ct, self.heads)[0]
        cp = self.cond(t_post, labels)
        cur = f_prev
        for i in range(b, e + 1):
            cur = run_block(self.blocks[i], cur + self.s[i - b] * f_feed, cp, self.heads)[0]
        for i in range(e + 1, self.n):
            cur = run_block(self.blocks[i], cur, cp, self.heads)[0]
        return self.final(cur, cp)

    def eps_cached(self, x, t, labels, cached, store, refresh):
        h, c = self.patchify(x), self.cond(t, labels)
        for i, blk in enumerate(self.blocks):
            if i in cached and not refresh:
                attn, mlp = store[i]
                h = (h + attn) + mlp
            elif i in cached:
                h, attn, mlp = run_block(blk, h, c, self.heads)
                store[i] = (attn, mlp)
            else:
                h = run_block(blk, h, c, self.heads)[0]
        return self.final(h, c)

    # -- sampling -------------------------------------------------------------

    def ab_at(self, t: float) -> float:
        lo = int(math.floor(t))
        hi = min(lo + 1, self.T)
        return float(self.ab[lo] + (t - lo) * (self.ab[hi] - self.ab[lo]))

    def ddim(self, x, eps, t, t_next):
        ab_t, ab_n = self.ab_at(t), self.ab_at(t_next)
        x0 = (x - math.sqrt(1.0 - ab_t) * eps) / math.sqrt(ab_t)
        return math.sqrt(ab_n) * x0 + math.sqrt(1.0 - ab_n) * eps

    def initial_noise(self, seed: int, n: int) -> np.ndarray:
        """The starting noise of image j: N(0, 1) from rng [seed, j], in f32."""
        shape = (self.C, self.size, self.size)
        return np.stack([np.random.default_rng([seed, j]).standard_normal(shape)
                         .astype(np.float32) for j in range(n)]).astype(np.float64)

    def sample(self, kind: str, S: int, seed: int, n: int, cache=None) -> np.ndarray:
        """kind: baseline | ilf (skip_inner, rescaled) | cached (blocks, period)."""
        x = self.initial_noise(seed, n)
        labels = [j % self.n_classes for j in range(n)]
        steps = plan_steps(S, self.T)
        flags = skip_inner_flags(S)
        store = {}
        for k, t in enumerate(steps):
            t_next = steps[k + 1] if k + 1 < S else 0.0
            if kind == "ilf" and flags[k]:
                m = self.loop[1] - self.loop[0] + 1
                t_post = min(max(t - (t - t_next) * m / self.n, 0.0), t)
                eps = self.eps_ilf(x, t, t_post, labels)
            elif kind == "cached":
                blocks, period = cache
                eps = self.eps_cached(x, t, labels, set(blocks), store, k % period == 0)
            else:
                eps = self.eps(x, t, labels)
            x = self.ddim(x, eps, t, t_next)
        return x


def rel_error(got: np.ndarray, ref: np.ndarray) -> float:
    """max |got - ref| / max |ref| over the whole batch."""
    return float(np.abs(got.astype(np.float64) - ref).max() / np.abs(ref).max())


def relative_tolerance(block_forwards: int) -> float:
    """Float32 bound on rel_error: 2^-24 unit roundoff, 16 roundings of that
    size per block forward (the longest dot product has 256 terms, ~sqrt(256)
    rounding steps), accumulated linearly over the image's block forwards."""
    return 16 * 2.0 ** -24 * block_forwards
