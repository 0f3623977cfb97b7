import numpy as np
import pytest

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


def t(data, grad=False):
    return Tensor(np.asarray(data, dtype=np.float32), requires_grad=grad)


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
    out = matmul(t(np.eye(2)), t(a))
    assert np.array_equal(out.data, np.asarray(a, np.float32))


def test_matmul_zeros():
    out = matmul(t([[1.0, 2.0], [3.0, 4.0]]), t(np.zeros((2, 2))))
    assert np.array_equal(out.data, np.zeros((2, 2), np.float32))


def test_matmul_hand_case():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], np.float32)
    b = np.array([[5.0, 6.0], [7.0, 8.0]], np.float32)
    expect = matmul_oracle(a, b)
    assert np.allclose(expect, [[19, 22], [43, 50]])
    assert np.allclose(matmul(t(a), t(b)).data, expect)


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))))


def test_matmul_batched_matches_loop():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4, 5)).astype(np.float32)
    b = rng.normal(size=(3, 5, 2)).astype(np.float32)
    got = matmul(t(a), t(b)).data
    for h in range(3):
        assert np.allclose(got[h], matmul_oracle(a[h], b[h]), atol=1e-5)

    # [B, L, K] @ [K, N]: a batch of token rows against one weight, whose
    # gradient sums over every row of the batch in the weight's own shape
    x = rng.normal(size=(3, 4, 5)).astype(np.float32)
    w = t(rng.normal(size=(5, 2)), grad=True)
    target = rng.normal(size=(3, 4, 2)).astype(np.float32)
    got = matmul(t(x), w)
    for h in range(3):
        assert np.allclose(got.data[h], matmul_oracle(x[h], w.data), atol=1e-5)
    backward(mse(got, t(target)))
    assert w.grad.shape == (5, 2)
    fd = finite_diff(lambda: mse64(matmul(t(x), w).data, target), w.data)
    assert np.allclose(w.grad, fd, atol=2e-3)


# ---------------------------------------------------------------------------
# layer_norm
# ---------------------------------------------------------------------------


def test_layer_norm_constant_row():
    out = layer_norm(t([5.0, 5.0, 5.0, 5.0]), eps=1e-6)
    assert np.allclose(out.data, 0.0, atol=1e-4)


def test_layer_norm_already_normalized():
    out = layer_norm(t([1.0, -1.0]), eps=1e-12)
    assert np.allclose(out.data, [1.0, -1.0], atol=1e-5)


def test_layer_norm_simple_case():
    # mean 1, population std 1
    out = layer_norm(t([0.0, 2.0]), eps=1e-12)
    assert np.allclose(out.data, [-1.0, 1.0], atol=1e-5)


def test_layer_norm_statistics_random():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, size=(20, 32)).astype(np.float32)
    out = layer_norm(t(x), eps=1e-12).data
    assert np.abs(out.mean(axis=-1)).max() <= 1e-5
    assert np.abs(out.var(axis=-1) - 1.0).max() <= 1e-3


def test_layer_norm_empty_axis():
    with pytest.raises(ValueError):
        layer_norm(t(np.zeros((2, 0))))


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
    out = scaled_dot_attention(t(q), t(k), t(v))
    assert np.allclose(out.data, v, atol=1e-6)


def test_attention_zero_query_averages_v():
    rng = np.random.default_rng(7)
    k = rng.normal(size=(1, 3, 4)).astype(np.float32)
    v = rng.normal(size=(1, 3, 4)).astype(np.float32)
    out = scaled_dot_attention(t(np.zeros((1, 3, 4))), t(k), t(v))
    assert np.allclose(out.data[0], np.broadcast_to(v[0].mean(axis=0), (3, 4)), atol=1e-6)


def test_attention_matches_loop_oracle():
    rng = np.random.default_rng(8)
    q, k, v = (rng.normal(size=(2, 2, 4)).astype(np.float32) for _ in range(3))
    out = scaled_dot_attention(t(q), t(k), t(v))
    assert np.allclose(out.data, attention_oracle(q, k, v), atol=1e-5)

    # [B, H, L, Dh]: each sample attends within itself
    q, k, v = (rng.normal(size=(3, 2, 5, 4)).astype(np.float32) for _ in range(3))
    out = scaled_dot_attention(t(q), t(k), t(v))
    for b in range(3):
        assert np.allclose(out.data[b], attention_oracle(q[b], k[b], v[b]), atol=1e-5)


def test_attention_shape_mismatch():
    with pytest.raises(ValueError):
        scaled_dot_attention(t(np.zeros((1, 2, 4))), t(np.zeros((1, 3, 4))),
                             t(np.zeros((1, 2, 4))))


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


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, size=(4, 6)).astype(np.float32)
    w1 = t(rng.uniform(-1, 1, size=(6, 8)), grad=True)
    b1 = t(rng.uniform(-1, 1, size=8), grad=True)
    w2 = t(rng.uniform(-1, 1, size=(8, 3)), grad=True)
    target = rng.uniform(-1, 1, size=(4, 3)).astype(np.float32)

    def pred():
        return matmul(gelu(matmul(t(x), w1) + b1), w2)

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

    backward(mse(matmul(gelu(matmul(t(x), w1) + b1), w2), t(target)))

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
        return softmax(layer_norm(x, 1e-6))

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
    r1 = matmul(softmax(t(a)), gelu(t(b))).data
    r2 = matmul(softmax(t(a)), gelu(t(b))).data
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
