"""Dense float32 tensors with a reverse-mode gradient tape.

The op set is deliberately small: exactly what an adaLN transformer block,
its condition embeddings, and the training losses need. Tapes are built per
forward pass and thrown away after backward(); there is no graph reuse.
All storage is float32 and all forward ops are deterministic.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

_grad_enabled = True  # off inside no_grad(): ops then link no tape


class Tensor:
    """A float32 array with an optional gradient buffer and tape linkage."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.data).all())

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.data.shape)}{flag})"

    # arithmetic sugar
    def __add__(self, other):
        return add(self, _wrap(other))

    def __mul__(self, other):
        return mul(self, _wrap(other))


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


@contextlib.contextmanager
def no_grad():
    """Within the block, op outputs record no tape, whatever their inputs.
    The switch is process-wide: no other thread may record a tape meanwhile."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


def _make(data, parents, vjp) -> Tensor:
    out = Tensor(data)
    if not _grad_enabled:
        return out
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = parents
            out._vjp = vjp
            break
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the parent's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise and linear ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(out, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _make(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _make(out, (a, b), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim == 0 or bd.ndim < 2:
        raise ValueError("matmul needs an at least 1-d left and 2-d right operand")
    inner_a = ad.shape[-1]
    if inner_a != bd.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {ad.shape} @ {bd.shape}")
    if ad.ndim > 2 and bd.ndim > 2 and ad.shape[:-2] != bd.shape[:-2]:
        raise ValueError(f"matmul batch dims must match: {ad.shape} @ {bd.shape}")
    if ad.ndim > 2 and bd.ndim == 2:
        # [..., K] @ [K, N]: one gemm over the flattened rows, so the weight
        # gradient is one gemm too, in the weight's own shape
        rows = ad.reshape(-1, inner_a)
        out = (rows @ bd).reshape(*ad.shape[:-1], bd.shape[1])

        def vjp(g):
            g2 = g.reshape(-1, bd.shape[1])
            return (g2 @ bd.T).reshape(ad.shape), rows.T @ g2

        return _make(out, (a, b), vjp)
    out = ad @ bd

    def vjp(g):
        if ad.ndim == 1:  # [K] @ [K,N] -> [N]
            return g @ np.swapaxes(bd, -1, -2), np.outer(ad, g)
        return g @ np.swapaxes(bd, -1, -2), np.swapaxes(ad, -1, -2) @ g

    return _make(out, (a, b), vjp)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = x.data.reshape(shape)

    def vjp(g):
        return (g.reshape(x.data.shape),)

    return _make(out, (x,), vjp)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = x.data.transpose(axes)

    def vjp(g):
        return (g.transpose(inv),)

    return _make(out, (x,), vjp)


def slice_last(x: Tensor, start: int, stop: int) -> Tensor:
    """Slice along the last axis (used to split packed modulation vectors)."""
    extent = x.data.shape[-1]
    if not (0 <= start < stop <= extent):
        raise ValueError(f"bad slice [{start}:{stop}] for last axis of {extent}")
    out = x.data[..., start:stop]

    def vjp(g):
        full = np.zeros_like(x.data)
        full[..., start:stop] = g
        return (full,)

    return _make(out, (x,), vjp)


def take_row(table: Tensor, idx) -> Tensor:
    """Embedding-table lookup of one row (an int) or of a row per sample (an
    int array), with a scatter-add gradient: repeated rows accumulate."""
    idx = np.asarray(idx)
    rows = table.data.shape[0]
    bad = idx[(idx < 0) | (idx >= rows)]
    if bad.size:
        raise ValueError(f"row {bad.flat[0]} out of range for table with {rows} rows")
    out = table.data[idx]

    def vjp(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        return (full,)

    return _make(out, (table,), vjp)


def sum_all(x: Tensor) -> Tensor:
    out = x.data.sum(dtype=np.float32)

    def vjp(g):
        return (np.broadcast_to(g, x.data.shape).astype(np.float32),)

    return _make(out, (x,), vjp)


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    out = x.data.mean(dtype=np.float32)

    def vjp(g):
        return ((np.broadcast_to(g, x.data.shape) / n).astype(np.float32),)

    return _make(out, (x,), vjp)


def mse(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"mse shape mismatch: {a.data.shape} vs {b.data.shape}")
    d = sub(a, b)
    return mean_all(mul(d, d))


# ---------------------------------------------------------------------------
# nonlinearities and normalizations
# ---------------------------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    xd = x.data
    sq = xd * xd
    t = np.tanh(_GELU_C * (xd + 0.044715 * (sq * xd)))
    out = 0.5 * xd * (1.0 + t)

    def vjp(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * sq)
        local = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * dinner
        return (g * local,)

    return _make(out, (x,), vjp)


def silu(x: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-x.data))
    out = x.data * s

    def vjp(g):
        return (g * (s * (1.0 + x.data * (1.0 - s))),)

    return _make(out, (x,), vjp)


def softmax(x: Tensor) -> Tensor:
    """Max-shifted softmax along the last axis."""
    if np.isnan(x.data).any():
        raise ValueError("softmax input contains NaN")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (x,), vjp)


def layer_norm(x: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean, unit population variance."""
    if x.data.shape[-1] == 0:
        raise ValueError("layer_norm over an empty last axis")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.float32(eps))
    out = centered * inv

    def vjp(g):
        gm = g.mean(axis=-1, keepdims=True)
        proj = (g * out).mean(axis=-1, keepdims=True)
        return (inv * (g - gm - out * proj),)

    return _make(out, (x,), vjp)


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(q kᵀ / sqrt(d)) v over [heads, tokens, head_dim] inputs, or
    over [batch, heads, tokens, head_dim]."""
    if not (q.shape == k.shape == v.shape):
        raise ValueError(f"attention shape mismatch: {q.shape}, {k.shape}, {v.shape}")
    if q.ndim not in (3, 4):
        raise ValueError(f"attention expects [H, L, Dh] or [B, H, L, Dh], got {q.shape}")
    head_dim = q.shape[-1]
    k_t = transpose(k, (*range(q.ndim - 2), q.ndim - 1, q.ndim - 2))
    scores = matmul(q, k_t) * (1.0 / math.sqrt(head_dim))
    return matmul(softmax(scores), v)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------


def backward(loss: Tensor):
    """Populate .grad on every requires_grad leaf reachable from a scalar loss."""
    if loss.data.size != 1:
        raise ValueError(f"backward() needs a scalar loss, got shape {loss.data.shape}")

    order = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p.requires_grad:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._vjp is None or node.grad is None:
            continue
        grads = node._vjp(node.grad)
        for parent, g in zip(node._parents, grads):
            if g is None or not parent.requires_grad:
                continue
            g = np.asarray(g, dtype=np.float32)
            parent.grad = g if parent.grad is None else parent.grad + g
