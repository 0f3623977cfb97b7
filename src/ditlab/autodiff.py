"""Dense float32 tensors with a reverse-mode gradient tape.

The op set is deliberately small: exactly what an adaLN transformer block,
its condition embeddings, and the training losses need. Tapes are built per
forward pass, and backward() frees each node's saved arrays as its walk
passes it: afterwards only leaves keep a .grad (interior .grad is None), and
there is no graph reuse.
All storage is float32 and all forward ops are deterministic.

The tape holds nodes, not tensors: an op output that records one gets a
`_Node` with its VJP and its parents' nodes. A VJP closes over the arrays
its wanted gradients read, and computes no other: a matmul under a frozen
weight keeps no input and computes no weight gradient, and gelu keeps only
its input. So an activation outlives the forward code's hold on it only if
a wanted gradient reads it.

Three ops are fused, each one tape node with a hand-written VJP:
`layer_norm` takes adaLN's shift and scale, `matmul` takes the bias, and
`scaled_dot_attention` splits, attends over and merges the heads of
[..., tokens, dim] inputs. On the block's small arrays ([16, 64] per image)
the cost of a call is mostly per-op overhead, not arithmetic, so one node
in place of a chain of them is where the time goes. Each fused op runs the
same numpy operations, in the same order, as the chain it replaced, and
orders its parents so that the tape visits them, and accumulates their
gradients, as it did the chain's: outputs and gradients are unchanged to
the bit.

`matmul` has one path for every rank of its left operand: sampling's [K]
condition and training's [B, tokens, K] rows run the same numpy `@` and VJP.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

_grad_enabled = True  # off inside no_grad(): ops then link no tape


class _Node:
    """One op on the tape: its VJP, the gradient summed into it during
    backward(), and its parents' nodes (None where no gradient is wanted)."""

    __slots__ = ("_vjp", "grad", "_parents")

    def __init__(self, vjp, parents):
        self._vjp, self.grad, self._parents = vjp, None, parents


class Tensor:
    """A float32 array with an optional gradient buffer and tape node. A leaf
    that wants a gradient is its own node: it has no VJP and no parents."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None

    @property
    def _parents(self):
        return self._node._parents if self._node else ()

    @property
    def _vjp(self):
        return self._node._vjp if self._node else None

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


def _wants(*inputs):
    """Which inputs want a gradient, or None when the op records no tape: the
    op then returns Tensor(out) before it saves anything or builds a VJP."""
    if _grad_enabled:
        want = [x.requires_grad for x in inputs]
        if True in want:
            return want
    return None


def _make(data, parents, vjp) -> Tensor:
    out = Tensor(data)
    if _grad_enabled:
        nodes = tuple([(p._node or p) if p.requires_grad else None for p in parents])
        if any(nodes):
            out.requires_grad = True
            out._node = _Node(vjp, nodes)
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
    want = _wants(a, b)
    if want is None:
        return Tensor(out)
    sa, sb = a.data.shape, b.data.shape

    def vjp(g):
        return (_unbroadcast(g, sa) if want[0] else None,
                _unbroadcast(g, sb) if want[1] else None)

    return _make(out, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    want = _wants(a, b)
    if want is None:
        return Tensor(out)
    sa, sb = a.data.shape, b.data.shape

    def vjp(g):
        return (_unbroadcast(g, sa) if want[0] else None,
                _unbroadcast(-g, sb) if want[1] else None)

    return _make(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    want = _wants(a, b)
    if want is None:
        return Tensor(out)
    sa, sb = a.data.shape, b.data.shape
    ad, bd = (a.data if want[1] else None), (b.data if want[0] else None)

    def vjp(g):
        return (_unbroadcast(g * bd, sa) if want[0] else None,
                _unbroadcast(g * ad, sb) if want[1] else None)

    return _make(out, (a, b), vjp)


def matmul(a: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """a @ w + bias for any [..., K] operand, a [K, N] weight and a [N] bias
    added in place. The VJP flattens the rows, so the weight gradient is one
    gemm; the bias gradient sums over every leading axis, as `add`'s does."""
    ad, wd = a.data, w.data
    if ad.ndim == 0 or wd.ndim != 2 or ad.shape[-1] != wd.shape[0]:
        raise ValueError(f"matmul needs [..., K] @ [K, N], got {ad.shape} @ {wd.shape}")
    if bias.data.shape != wd.shape[1:]:
        raise ValueError(f"matmul bias {bias.data.shape} does not fit {wd.shape}")
    out = ad @ wd
    out += bias.data
    want = _wants(a, w, bias)
    if want is None:
        return Tensor(out)
    shape, (k, n), bshape = ad.shape, wd.shape, bias.data.shape
    ad, wd = (ad if want[1] else None), (wd if want[0] else None)

    def vjp(g):
        g2 = g.reshape(-1, n)
        return ((g2 @ wd.T).reshape(shape) if want[0] else None,
                ad.reshape(-1, k).T @ g2 if want[1] else None,
                _unbroadcast(g, bshape) if want[2] else None)

    return _make(out, (a, w, bias), vjp)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    old = x.data.shape
    return _make(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),))


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = [0] * len(axes)
    for i, axis in enumerate(axes):
        inv[axis] = i
    return _make(x.data.transpose(axes), (x,), lambda g: (g.transpose(inv),))


def slice_last(x: Tensor, start: int, stop: int) -> Tensor:
    """Slice along the last axis (used to split packed modulation vectors)."""
    extent = x.data.shape[-1]
    if not (0 <= start < stop <= extent):
        raise ValueError(f"bad slice [{start}:{stop}] for last axis of {extent}")
    out, shape = x.data[..., start:stop], x.data.shape

    def vjp(g):
        full = np.zeros(shape, np.float32)
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
    out, shape = table.data[idx], table.data.shape

    def vjp(g):
        full = np.zeros(shape, np.float32)
        np.add.at(full, idx, g)
        return (full,)

    return _make(out, (table,), vjp)


def sum_all(x: Tensor) -> Tensor:
    shape = x.data.shape
    return _make(x.data.sum(dtype=np.float32), (x,),
                 lambda g: (np.broadcast_to(g, shape).astype(np.float32),))


def mean_all(x: Tensor) -> Tensor:
    n, shape = x.data.size, x.data.shape
    return _make(x.data.mean(dtype=np.float32), (x,),
                 lambda g: ((np.broadcast_to(g, shape) / n).astype(np.float32),))


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
    t = np.tanh(_GELU_C * (xd + 0.044715 * (xd * xd * xd)))
    out = 0.5 * xd * (1.0 + t)

    def vjp(g):  # recomputes t and xd * xd rather than keep them on the tape
        t = np.tanh(_GELU_C * (xd + 0.044715 * (xd * xd * xd)))
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * (xd * xd))
        local = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * dinner
        return (g * local,)

    return _make(out, (x,), vjp)


def silu(x: Tensor) -> Tensor:
    xd = x.data
    s = 1.0 / (1.0 + np.exp(-xd))
    return _make(xd * s, (x,), lambda g: (g * (s * (1.0 + xd * (1.0 - s))),))


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Max-shifted softmax along the last axis. A row's max is NaN exactly
    when the row holds a NaN, so the max is also the NaN check."""
    top = x.max(axis=-1, keepdims=True)
    if np.isnan(top).any():
        raise ValueError("softmax input contains NaN")
    e = np.exp(x - top)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_vjp(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    dot = (g * out).sum(axis=-1, keepdims=True)
    return out * (g - dot)


def softmax(x: Tensor) -> Tensor:
    """Max-shifted softmax along the last axis."""
    out = _softmax_rows(x.data)
    return _make(out, (x,), lambda g: (_softmax_vjp(out, g),))


def layer_norm(x: Tensor, shift: Tensor, scale: Tensor, eps: float = 1e-6) -> Tensor:
    """adaLN's modulated norm LN(x) * (scale + 1) + shift: the last axis is
    normalized to zero mean and unit population variance, then modulated."""
    xd = x.data
    d = xd.shape[-1]
    if d == 0:
        raise ValueError("layer_norm over an empty last axis")
    centered = xd - xd.sum(axis=-1, keepdims=True) / d
    var = (centered * centered).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + np.float32(eps))
    normed = centered * inv
    gain = scale.data + np.float32(1.0)
    out = normed * gain
    out += shift.data
    # parents in this order keep the tape's traversal, and so the order in
    # which gradients accumulate, that of the unfused chain
    want = _wants(x, scale, shift)
    if want is None:
        return Tensor(out)
    sscale, sshift = scale.data.shape, shift.data.shape

    def vjp(g):
        gx = None
        if want[0]:
            gn = g * gain
            gm = gn.sum(axis=-1, keepdims=True) / d
            proj = (gn * normed).sum(axis=-1, keepdims=True) / d
            gx = inv * (gn - gm - normed * proj)
        return (gx, _unbroadcast(g * normed, sscale) if want[1] else None,
                _unbroadcast(g, sshift) if want[2] else None)

    return _make(out, (x, scale, shift), vjp)


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Multi-head softmax(q kᵀ / sqrt(Dh)) v over [..., tokens, dim] inputs
    whose last axis holds n_heads heads of Dh = dim / n_heads each. Splits
    the heads, attends within each, and merges them back to [..., tokens, dim]."""
    if not (q.shape == k.shape == v.shape):
        raise ValueError(f"attention shape mismatch: {q.shape}, {k.shape}, {v.shape}")
    if q.ndim < 2 or n_heads < 1 or q.shape[-1] % n_heads:
        raise ValueError(f"attention cannot split {q.shape} into {n_heads} heads")
    shape = q.shape
    split = (*shape[:-1], n_heads, shape[-1] // n_heads)
    # [..., L, H, Dh] -> [..., H, L, Dh] views
    qh, kh, vh = (t.data.reshape(split).swapaxes(-3, -2) for t in (q, k, v))
    scale = np.float32(1.0 / math.sqrt(split[-1]))
    scores = qh @ kh.swapaxes(-1, -2)
    scores *= scale
    p = _softmax_rows(scores)
    out = (p @ vh).swapaxes(-3, -2).reshape(shape)
    want = _wants(q, k, v)
    if want is None:
        return Tensor(out)
    # q's gradient reads k, k's reads q, and both read v
    wq, wk, wv = want
    qh, kh, vh = (qh if wk else None), (kh if wq else None), (vh if wq or wk else None)

    def vjp(g):
        gh = g.reshape(split).swapaxes(-3, -2)
        gq = gk = gv = None
        if wv:
            gv = p.swapaxes(-1, -2) @ gh
        if wq or wk:
            gs = _softmax_vjp(p, gh @ vh.swapaxes(-1, -2)) * scale
            gq = gs @ kh if wq else None
            gk = (qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2) if wk else None
        return tuple(gx if gx is None else gx.swapaxes(-3, -2).reshape(shape)
                     for gx in (gq, gk, gv))

    return _make(out, (q, k, v), vjp)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------


def _released(g):
    raise ValueError("backward() reached a tape node that an earlier backward() freed")


def backward(loss: Tensor):
    """Populate .grad on every requires_grad leaf reachable from a scalar loss.

    The walk visits tape nodes, never tensors: an interior output whose
    array no VJP saved is gone before the walk starts. It frees the tape as
    it goes: once a node's VJP has run, the node drops its gradient, VJP and
    parents, so the arrays that VJP saved are freed as soon as the walk has
    passed it. Afterwards only leaves hold a .grad, and a later backward()
    that reaches a freed node raises ValueError."""
    if loss.data.size != 1:
        raise ValueError(f"backward() needs a scalar loss, got shape {loss.data.shape}")

    root = loss._node or loss
    order = []
    visited = set()
    stack = [(root, False)]
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
            if p is not None and id(p) not in visited:
                stack.append((p, False))

    root.grad = np.ones_like(loss.data)
    while order:
        node = order.pop()
        if node._vjp is None:
            continue  # a leaf keeps its .grad
        grad, parents, vjp = node.grad, node._parents, node._vjp
        node.grad, node._parents, node._vjp = None, (), _released
        if grad is None:
            continue
        for parent, g in zip(parents, vjp(grad)):
            if parent is not None and g is not None:
                g = np.asarray(g, dtype=np.float32)
                parent.grad = g if parent.grad is None else parent.grad + g
