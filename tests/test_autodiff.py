import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from ditlab import BackboneConfig, DiT
from ditlab.autodiff import (
    Tensor,
    backward,
    gelu,
    layer_norm,
    matmul,
    mean_all,
    mse,
    mul,
    scaled_dot_attention,
    silu,
    slice_last,
    softmax,
    sum_all,
    take_row,
    transpose,
)
from ditlab.feedback import ilf_forward, make_feedback


def t(data, grad=False):
    return Tensor(np.asarray(data, dtype=np.float32), requires_grad=grad)


def zeros(*shape):
    return t(np.zeros(shape))


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def matmul_oracle(a, b):
    """Triple-loop matrix product, independent of numpy's implementation."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += float(a[i, l]) * float(b[l, j])
    return out


def attention_oracle(q, k, v):
    """Naive per-head attention with explicit loops."""
    H, L, D = q.shape
    out = np.zeros_like(q, dtype=np.float64)
    for h in range(H):
        for i in range(L):
            logits = np.array([np.dot(q[h, i], k[h, j]) / np.sqrt(D) for j in range(L)])
            w = np.exp(logits - logits.max())
            w /= w.sum()
            for j in range(L):
                out[h, i] += w[j] * v[h, j]
    return out


def finite_diff(f, x, h=1e-3):
    """Central differences of a scalar function over a float32 array.

    f should reduce its final loss in float64 so the quotient noise is the
    network's own f32 rounding (~1e-5 absolute), not the reduction's.
    """
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f()
        flat[i] = orig - h
        down = f()
        flat[i] = orig
        g.reshape(-1)[i] = (up - down) / (2 * h)
    return g


def mse64(pred_data: np.ndarray, target: np.ndarray) -> float:
    d = pred_data.astype(np.float64) - target.astype(np.float64)
    return float((d * d).mean())


def gelu_grad_oracle(pre: np.ndarray) -> np.ndarray:
    c = np.sqrt(2.0 / np.pi)
    inner = c * (pre + 0.044715 * pre**3)
    th = np.tanh(inner)
    return 0.5 * (1 + th) + 0.5 * pre * (1 - th * th) * c * (1 + 3 * 0.044715 * pre**2)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def test_matmul_identity():
    a = [[1.0, 2.0], [3.0, 4.0]]
    out = matmul(t(np.eye(2)), t(a), zeros(2))
    assert np.array_equal(out.data, np.asarray(a, np.float32))


def test_matmul_zeros():
    out = matmul(t([[1.0, 2.0], [3.0, 4.0]]), t(np.zeros((2, 2))), zeros(2))
    assert np.array_equal(out.data, np.zeros((2, 2), np.float32))


def test_matmul_hand_case():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], np.float32)
    b = np.array([[5.0, 6.0], [7.0, 8.0]], np.float32)
    expect = matmul_oracle(a, b)
    assert np.allclose(expect, [[19, 22], [43, 50]])
    assert np.allclose(matmul(t(a), t(b), zeros(2)).data, expect)


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))), zeros(3))


def test_matmul_batched_matches_loop():
    # [B, L, K] @ [K, N]: a batch of token rows against one weight, whose
    # gradient sums over every row of the batch in the weight's own shape
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 4, 5)).astype(np.float32)
    w = t(rng.normal(size=(5, 2)), grad=True)
    target = rng.normal(size=(3, 4, 2)).astype(np.float32)
    got = matmul(t(x), w, zeros(2))
    for h in range(3):
        assert np.allclose(got.data[h], matmul_oracle(x[h], w.data), atol=1e-5)
    backward(mse(got, t(target)))
    assert w.grad.shape == (5, 2)
    fd = finite_diff(lambda: mse64(matmul(t(x), w, zeros(2)).data, target), w.data)
    assert np.allclose(w.grad, fd, atol=2e-3)


# ---------------------------------------------------------------------------
# layer_norm
# ---------------------------------------------------------------------------


def test_layer_norm_constant_row():
    out = layer_norm(t([5.0, 5.0, 5.0, 5.0]), zeros(4), zeros(4), eps=1e-6)
    assert np.allclose(out.data, 0.0, atol=1e-4)


def test_layer_norm_already_normalized():
    out = layer_norm(t([1.0, -1.0]), zeros(2), zeros(2), eps=1e-12)
    assert np.allclose(out.data, [1.0, -1.0], atol=1e-5)


def test_layer_norm_simple_case():
    # mean 1, population std 1
    out = layer_norm(t([0.0, 2.0]), zeros(2), zeros(2), eps=1e-12)
    assert np.allclose(out.data, [-1.0, 1.0], atol=1e-5)


def test_layer_norm_statistics_random():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, size=(20, 32)).astype(np.float32)
    out = layer_norm(t(x), zeros(32), zeros(32), eps=1e-12).data
    assert np.abs(out.mean(axis=-1)).max() <= 1e-5
    assert np.abs(out.var(axis=-1) - 1.0).max() <= 1e-3


def test_layer_norm_empty_axis():
    with pytest.raises(ValueError):
        layer_norm(t(np.zeros((2, 0))), zeros(0), zeros(0))


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


def test_softmax_symmetry():
    assert np.allclose(softmax(t([0.0, 0.0])).data, [0.5, 0.5])


def test_softmax_shift_invariance():
    for c in (-3.0, 0.0, 7.5):
        assert np.allclose(softmax(t([c] * 4)).data, [0.25] * 4, atol=1e-7)


def test_softmax_exact_exponentials():
    out = softmax(t([np.log(1.0), np.log(3.0)]))
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-6)


def test_softmax_sums_to_one():
    rng = np.random.default_rng(5)
    x = rng.normal(scale=10, size=(8, 16)).astype(np.float32)
    out = softmax(t(x)).data
    assert np.abs(out.sum(axis=-1) - 1.0).max() <= 1e-6
    assert out.min() > 0 and out.max() < 1


def test_softmax_rejects_nan():
    with pytest.raises(ValueError):
        softmax(t([np.nan, 0.0]))


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


def test_attention_single_token_returns_v():
    rng = np.random.default_rng(6)
    q, k, v = (rng.normal(size=(2, 1, 4)).astype(np.float32) for _ in range(3))
    out = scaled_dot_attention(t(q), t(k), t(v), n_heads=1)
    assert np.allclose(out.data, v, atol=1e-6)


def test_attention_zero_query_averages_v():
    rng = np.random.default_rng(7)
    k = rng.normal(size=(1, 3, 4)).astype(np.float32)
    v = rng.normal(size=(1, 3, 4)).astype(np.float32)
    out = scaled_dot_attention(t(np.zeros((1, 3, 4))), t(k), t(v), n_heads=1)
    assert np.allclose(out.data[0], np.broadcast_to(v[0].mean(axis=0), (3, 4)), atol=1e-6)


def test_attention_matches_loop_oracle():
    rng = np.random.default_rng(8)
    q, k, v = (rng.normal(size=(2, 2, 4)).astype(np.float32) for _ in range(3))
    out = scaled_dot_attention(t(q), t(k), t(v), n_heads=1)
    assert np.allclose(out.data, attention_oracle(q, k, v), atol=1e-5)

    # [B, H, L, Dh]: each sample attends within itself
    q, k, v = (rng.normal(size=(3, 2, 5, 4)).astype(np.float32) for _ in range(3))
    out = scaled_dot_attention(t(q), t(k), t(v), n_heads=1)
    for b in range(3):
        assert np.allclose(out.data[b], attention_oracle(q[b], k[b], v[b]), atol=1e-5)


def test_attention_shape_mismatch():
    with pytest.raises(ValueError):
        scaled_dot_attention(t(np.zeros((1, 2, 4))), t(np.zeros((1, 3, 4))),
                             t(np.zeros((1, 2, 4))), n_heads=1)


# ---------------------------------------------------------------------------
# fused ops against the unfused tape chains they replace: plain numpy,
# forward and backward node by node, so outputs and gradients must agree in
# every bit, not within a tolerance
# ---------------------------------------------------------------------------


def sum_to(g, shape):
    """A broadcast gradient summed back to `shape` as the chain's add and mul
    nodes did: leading axes first, one at a time, then size-1 axes."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def ln_modulate_chain(x, shift, scale, g, eps=1e-6):
    """layer_norm, then mul by (scale + 1), then add shift."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.float32(eps))
    normed = centered * inv
    gain = scale + np.float32(1.0)
    out = normed * gain + shift
    g_normed = g * gain
    gm = g_normed.mean(axis=-1, keepdims=True)
    proj = (g_normed * normed).mean(axis=-1, keepdims=True)
    gx = inv * (g_normed - gm - normed * proj)
    return out, (gx, sum_to(g, shift.shape), sum_to(g * normed, scale.shape))


def affine_chain(x, w, b, g):
    """matmul over the flattened rows, then add the bias."""
    rows = x.reshape(-1, x.shape[-1])
    out = (rows @ w).reshape(*x.shape[:-1], w.shape[1]) + b
    g2 = g.reshape(-1, w.shape[1])
    return out, ((g2 @ w.T).reshape(x.shape), rows.T @ g2, sum_to(g, b.shape))


def attention_chain(q, k, v, n_heads, g):
    """Split the heads (reshape, transpose), matmul by the transposed keys,
    scale, softmax, matmul by v, merge the heads (transpose, reshape)."""
    *lead, L, d = q.shape
    n = q.ndim + 1
    swap = (*range(n - 3), n - 2, n - 3, n - 1)  # tokens <-> heads, its own inverse
    flip = (*range(n - 2), n - 1, n - 2)         # the last two axes, its own inverse
    qh, kh, vh = (a.reshape(*lead, L, n_heads, d // n_heads).transpose(swap) for a in (q, k, v))
    kt = kh.transpose(flip)
    scale = np.float32(1.0 / math.sqrt(d // n_heads))
    scores = (qh @ kt) * scale
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    att = p @ vh
    out = att.transpose(swap).reshape(q.shape)
    ga = g.reshape(att.transpose(swap).shape).transpose(swap)
    gp = ga @ np.swapaxes(vh, -1, -2)
    gv = np.swapaxes(p, -1, -2) @ ga
    gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
    gq = gs @ np.swapaxes(kt, -1, -2)
    gk = (np.swapaxes(qh, -1, -2) @ gs).transpose(flip)
    return out, tuple(a.transpose(swap).reshape(q.shape) for a in (gq, gk, gv))


@pytest.mark.parametrize("lead", [(), (3,)], ids=["L,d", "B,L,d"])
def test_fused_ops_equal_the_unfused_chain_bit_for_bit(lead):
    rng = np.random.default_rng(15)
    L, d, n_heads = 5, 8, 2

    def arr(*shape):
        return rng.normal(size=shape).astype(np.float32)

    # adaLN parameters [..., 1, d] broadcast over tokens, as `_modulation` gives them
    mod = (*lead, 1, d)
    cases = (
        (lambda x, sh, sc: layer_norm(x, sh, sc), ln_modulate_chain,
         (arr(*lead, L, d), arr(*mod), arr(*mod))),
        (matmul, affine_chain, (arr(*lead, L, d), arr(d, 3 * d), arr(3 * d))),
        (lambda q, k, v: scaled_dot_attention(q, k, v, n_heads),
         lambda q, k, v, g: attention_chain(q, k, v, n_heads, g),
         (arr(*lead, L, d), arr(*lead, L, d), arr(*lead, L, d))),
    )
    for fused, chain, args in cases:
        leaves = [t(a, grad=True) for a in args]
        out = fused(*leaves)
        g = arr(*out.shape)
        backward(sum_all(mul(out, t(g))))  # out's gradient is exactly g
        expect, grads = chain(*args, g)
        assert out.data.dtype == expect.dtype == np.float32
        assert np.array_equal(out.data, expect)
        for leaf, grad in zip(leaves, grads):
            assert np.array_equal(leaf.grad, grad)
            # the memory layout too: it sets the summation order of later
            # reductions over the gradient, such as a bias gradient's
            assert leaf.grad.strides == grad.strides


def test_fused_ops_refuse_what_they_cannot_fuse():
    x = t(np.ones((2, 4, 6)))
    with pytest.raises(ValueError):
        matmul(x, t(np.ones((6, 3))), zeros(6))   # bias of the wrong width
    with pytest.raises(ValueError):
        matmul(x, t(np.ones((2, 6, 3))), zeros(3))  # a weight with batch axes
    with pytest.raises(ValueError):
        scaled_dot_attention(x, x, x, n_heads=4)  # 6 does not split into 4 heads
    q = np.zeros((4, 6), np.float32)
    q[1, 2] = np.nan
    with pytest.raises(ValueError):
        scaled_dot_attention(t(q), t(q), t(q), n_heads=2)   # NaN scores


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def test_backward_sum_gives_ones():
    x = t(np.arange(6).reshape(2, 3), grad=True)
    backward(sum_all(x))
    assert np.array_equal(x.grad, np.ones((2, 3), np.float32))


def test_backward_square_gives_2x():
    data = np.array([[1.0, -2.0], [0.5, 3.0]], np.float32)
    x = t(data, grad=True)
    backward(sum_all(mul(x, x)))
    assert np.allclose(x.grad, 2 * data, atol=1e-6)


def test_backward_requires_scalar():
    x = t(np.ones(3), grad=True)
    with pytest.raises(ValueError):
        backward(mul(x, x))


def test_backward_grad_accumulates_over_reuse():
    x = t([2.0], grad=True)
    y = mul(x, x) + mul(x, x)
    backward(sum_all(y))
    assert np.allclose(x.grad, [8.0])


def small_chain():
    """loss = sum(gelu(x @ w + b) ** 2) over leaves x, w, b; returns the
    loss, the leaves and the interior gelu output."""
    rng = np.random.default_rng(16)
    x, w, b = (t(rng.normal(size=s), grad=True) for s in ((3, 4), (4, 5), (5,)))
    inner = gelu(matmul(x, w, b))
    return sum_all(mul(inner, inner)), (x, w, b), inner


def test_backward_frees_the_tape_and_keeps_leaf_grads():
    loss, leaves, inner = small_chain()
    ref = weakref.ref(inner.data)  # the array mul's VJP saved, not the Tensor
    del inner
    assert ref() is not None  # the tape keeps it alive until the walk passes it
    backward(loss)
    assert ref() is None
    assert loss.grad is None and loss.item() > 0  # the loss keeps its value
    for leaf in leaves:
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape


def test_backward_through_a_freed_tape_raises():
    loss, _, inner = small_chain()
    backward(loss)
    with pytest.raises(ValueError):
        backward(loss)
    with pytest.raises(ValueError):
        backward(sum_all(inner))


def test_backward_peak_memory_stays_near_the_tape():
    """Freeing the tape as the walk goes keeps backward's peak close to what
    the forward's tape holds: 1.19x on this 6-block B=16 step, where a tape
    kept until the loss is dropped peaks at 2.18x."""
    cfg = BackboneConfig()
    model = DiT(cfg, np.random.default_rng(17))
    model.set_trainable(True)
    rng = np.random.default_rng(18)
    x = rng.normal(size=(16, cfg.channels, cfg.image_size, cfg.image_size)).astype(np.float32)
    ts, labels = rng.integers(1, cfg.T + 1, size=16), rng.integers(0, cfg.n_classes, size=16)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = mse(model.forward(x, ts, labels), t(x))
        tape = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * tape, (peak, tape)


def test_matmul_under_a_frozen_weight_keeps_no_input():
    """Only the weight gradient reads matmul's input: under a frozen weight
    and bias the interior input dies with the caller's hold on it, and the
    input gradient keeps its bits."""
    rng = np.random.default_rng(22)
    xd, w0, w1 = (rng.normal(size=s).astype(np.float32) for s in ((3, 4), (4, 6), (6, 5)))
    grads = []
    for trainable in (True, False):
        x = t(xd, grad=True)
        inner = matmul(x, t(w0), zeros(6))
        ref = weakref.ref(inner.data)
        out = matmul(inner, t(w1, grad=trainable), t(np.ones(5), grad=trainable))
        del inner
        assert (ref() is not None) == trainable
        backward(sum_all(mul(out, out)))
        assert ref() is None
        grads.append(x.grad)
    assert np.array_equal(*grads)


MULTI_INPUT_OPS = {
    "matmul": (((2, 3, 4), (4, 5), (5,)), matmul),
    "mul": (((2, 3, 4), (3, 1)), mul),
    "layer_norm": (((2, 3, 4), (2, 1, 4), (2, 1, 4)), layer_norm),
    "scaled_dot_attention": (((2, 3, 4),) * 3, lambda q, k, v: scaled_dot_attention(q, k, v, 2)),
}


@pytest.mark.parametrize("name", sorted(MULTI_INPUT_OPS))
def test_each_wanted_gradient_is_the_same_whatever_else_is_wanted(name):
    """An op computes only the gradients its inputs want, and each of those
    has the bits it has when every input wants one."""
    shapes, op = MULTI_INPUT_OPS[name]
    rng = np.random.default_rng(23)
    arrays = [rng.normal(size=s).astype(np.float32) for s in shapes]

    def grads(mask):
        leaves = [t(a, grad=m) for a, m in zip(arrays, mask)]
        out = op(*leaves)
        g = np.random.default_rng(24).normal(size=out.shape)
        backward(sum_all(mul(out, t(g))))
        return [leaf.grad for leaf in leaves]

    every = grads([True] * len(shapes))
    for mask in itertools.product((False, True), repeat=len(shapes)):
        if any(mask):
            for wanted, got, full in zip(mask, grads(mask), every):
                assert np.array_equal(got, full) if wanted else got is None, (mask, wanted)


def test_frozen_backbone_tape_is_well_below_the_backbone_step_tape():
    """A frozen backbone's ops save only what the feedback's gradients read:
    on the default 6-block config at B=16, the ILF step's tape is 0.53x the
    backbone step's, where a tape that kept every op output read 0.86x."""
    cfg = BackboneConfig()
    model = DiT(cfg, np.random.default_rng(25))
    fs = make_feedback(model, 2, 4, np.random.default_rng(26))
    rng = np.random.default_rng(27)
    x = rng.normal(size=(16, cfg.channels, cfg.image_size, cfg.image_size)).astype(np.float32)
    ts, labels = rng.integers(2, cfg.T + 1, size=16), rng.integers(0, cfg.n_classes, size=16)

    def tape(forward):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = mse(forward(), t(x))  # holds the tape while it is measured
            return tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()

    model.set_trainable(True)
    backbone = tape(lambda: model.forward(x, ts, labels))
    model.set_trainable(False)
    feedback = tape(lambda: ilf_forward(model, fs, x, ts, ts // 2, labels)[0])
    assert feedback <= 0.65 * backbone, (feedback, backbone)


@pytest.mark.parametrize("shape", [(16, 256), (16, 16, 256)])
def test_gelu_output_and_gradient_bits(shape):
    """gelu recomputes x * x in its VJP; the bits are those of the formulas
    that kept it."""
    rng = np.random.default_rng(19)
    xd = (rng.normal(size=shape) * 3).astype(np.float32)
    g = rng.normal(size=shape).astype(np.float32)
    x = t(xd, grad=True)
    out = gelu(x)
    backward(sum_all(mul(out, t(g))))  # out's gradient is exactly g
    c = math.sqrt(2.0 / math.pi)
    sq = xd * xd
    th = np.tanh(c * (xd + 0.044715 * (sq * xd)))
    local = 0.5 * (1.0 + th) + 0.5 * xd * (1.0 - th * th) * (c * (1.0 + 3 * 0.044715 * sq))
    assert np.array_equal(out.data, 0.5 * xd * (1.0 + th))
    assert np.array_equal(x.grad, g * local)


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, size=(4, 6)).astype(np.float32)
    w1 = t(rng.uniform(-1, 1, size=(6, 8)), grad=True)
    b1 = t(rng.uniform(-1, 1, size=8), grad=True)
    w2 = t(rng.uniform(-1, 1, size=(8, 3)), grad=True)
    target = rng.uniform(-1, 1, size=(4, 3)).astype(np.float32)

    def pred():
        return matmul(gelu(matmul(t(x), w1, b1)), w2, zeros(3))

    backward(mse(pred(), t(target)))
    for param in (w1, b1, w2):
        fd = finite_diff(lambda: mse64(pred().data, target), param.data)
        # the fd quotient carries ~1e-5 absolute noise from the f32 forward,
        # so the strict relative check targets identifiable coordinates
        mask = np.maximum(np.abs(param.grad), np.abs(fd)) > 5e-2
        assert mask.any()
        rel = np.abs(param.grad - fd)[mask] / np.maximum(
            np.abs(param.grad), np.abs(fd))[mask]
        assert rel.max() <= 1e-3
        assert np.abs(param.grad - fd)[~mask].max() <= 1e-4


def test_mlp_gradients_match_analytic_oracle():
    """Straight-line float64 chain rule, written independently of the tape;
    covers every coordinate, tiny ones included."""
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, size=(4, 6)).astype(np.float32)
    w1 = t(rng.uniform(-1, 1, size=(6, 8)), grad=True)
    b1 = t(rng.uniform(-1, 1, size=8), grad=True)
    w2 = t(rng.uniform(-1, 1, size=(8, 3)), grad=True)
    target = rng.uniform(-1, 1, size=(4, 3)).astype(np.float32)

    backward(mse(matmul(gelu(matmul(t(x), w1, b1)), w2, zeros(3)), t(target)))

    x64, t64 = x.astype(np.float64), target.astype(np.float64)
    pre = x64 @ w1.data.astype(np.float64) + b1.data.astype(np.float64)
    inner = np.sqrt(2 / np.pi) * (pre + 0.044715 * pre**3)
    hid = 0.5 * pre * (1 + np.tanh(inner))
    out = hid @ w2.data.astype(np.float64)
    g_out = 2 * (out - t64) / out.size
    g_hid = g_out @ w2.data.astype(np.float64).T
    g_pre = g_hid * gelu_grad_oracle(pre)
    expect = {
        "w1": x64.T @ g_pre,
        "b1": g_pre.sum(axis=0),
        "w2": hid.T @ g_out,
    }
    for name, param in (("w1", w1), ("b1", b1), ("w2", w2)):
        err = np.abs(param.grad - expect[name])
        assert err.max() <= 1e-3 * max(1.0, np.abs(expect[name]).max())


def test_layer_norm_and_softmax_gradients():
    rng = np.random.default_rng(10)
    x = t(rng.uniform(-1, 1, size=(3, 5)), grad=True)
    target = rng.uniform(-1, 1, size=(3, 5)).astype(np.float32)

    def pred():
        return softmax(layer_norm(x, zeros(5), zeros(5), 1e-6))

    backward(mse(pred(), t(target)))
    fd = finite_diff(lambda: mse64(pred().data, target), x.data)
    mask = np.maximum(np.abs(x.grad), np.abs(fd)) > 3e-2
    assert mask.any()
    rel = np.abs(x.grad - fd)[mask] / np.maximum(np.abs(x.grad), np.abs(fd))[mask]
    assert rel.max() <= 1e-3
    assert np.abs(x.grad - fd)[~mask].max() <= 1e-4


def test_silu_take_row_slice_gradients():
    rng = np.random.default_rng(13)
    table = t(rng.uniform(-1, 1, size=(5, 6)), grad=True)

    def loss_tensor():
        row = silu(take_row(table, 2))
        return mean_all(mul(slice_last(row, 1, 4), slice_last(row, 1, 4)))

    backward(loss_tensor())
    fd = finite_diff(lambda: loss_tensor().item(), table.data)
    assert np.allclose(table.grad, fd, atol=2e-3)
    assert np.allclose(table.grad[[0, 1, 3, 4]], 0.0)

    # a row per sample: repeated rows accumulate their gradients
    table.grad = None
    idx = np.array([2, 0, 2, 2])

    def rows_loss():
        rows = silu(take_row(table, idx))
        return mean_all(mul(slice_last(rows, 1, 4), slice_last(rows, 1, 4)))

    backward(rows_loss())
    fd = finite_diff(lambda: rows_loss().item(), table.data)
    assert np.allclose(table.grad, fd, atol=2e-3)
    assert np.abs(table.grad[2]).max() > 0.1
    assert np.allclose(table.grad[[1, 3, 4]], 0.0)


def test_frozen_leaves_get_no_grad_and_no_tape():
    x = t(np.ones(4), grad=False)
    y = mul(x, x)
    assert not y.requires_grad and y._vjp is None


# ---------------------------------------------------------------------------
# misc contracts
# ---------------------------------------------------------------------------


def test_forward_determinism():
    rng = np.random.default_rng(14)
    a = rng.normal(size=(8, 8)).astype(np.float32)
    b = rng.normal(size=(8, 8)).astype(np.float32)
    r1 = matmul(softmax(t(a)), gelu(t(b)), zeros(8)).data
    r2 = matmul(softmax(t(a)), gelu(t(b)), zeros(8)).data
    assert np.array_equal(r1, r2)


def test_is_finite_detects_bad_values():
    assert t([1.0, 2.0]).is_finite()
    assert not Tensor(np.array([np.nan], np.float32)).is_finite()
    assert not Tensor(np.array([np.inf], np.float32)).is_finite()


def test_transpose_roundtrip_gradient():
    x = t(np.arange(24).reshape(2, 3, 4), grad=True)
    y = transpose(transpose(x, (1, 0, 2)), (1, 0, 2))
    backward(sum_all(mul(y, y)))
    assert np.allclose(x.grad, 2 * x.data)
