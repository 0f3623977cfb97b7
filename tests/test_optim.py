import numpy as np
import pytest

from ditlab.autodiff import Tensor
from ditlab.optim import Adam


def adam_oracle(w0, grad_fn, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Plain-python scalar Adam, written independently of the library."""
    w, m, v = w0, 0.0, 0.0
    trail = [w]
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        w -= lr * m_hat / (v_hat**0.5 + eps)
        trail.append(w)
    return trail


def test_zero_grad_leaves_params_unchanged():
    p = Tensor(np.array([1.0, -2.0, 3.0], np.float32), requires_grad=True)
    opt = Adam([p], lr=0.1)
    before = p.data.copy()
    p.grad = np.zeros(3, np.float32)
    opt.step()
    assert np.array_equal(p.data, before)


def test_first_step_moves_by_lr_sign():
    g = np.array([0.3, -0.001, 2.0], np.float32)
    p = Tensor(np.zeros(3, np.float32), requires_grad=True)
    opt = Adam([p], lr=0.05)
    p.grad = g
    opt.step()
    # bias-corrected m/sqrt(v) is sign(g) on the first step
    assert np.allclose(p.data, -0.05 * np.sign(g), atol=1e-4)


def test_quadratic_descent_matches_scalar_oracle():
    lr, steps = 0.1, 10
    trail = adam_oracle(1.0, lambda w: 2 * w, lr, steps)
    assert all(abs(b) < abs(a) for a, b in zip(trail, trail[1:]))

    p = Tensor(np.array([1.0], np.float32), requires_grad=True)
    opt = Adam([p], lr=lr)
    seen = [float(p.data[0])]
    for _ in range(steps):
        p.grad = (2 * p.data).astype(np.float32)
        opt.step()
        seen.append(float(p.data[0]))
    assert np.allclose(seen, trail, atol=1e-5)
    assert all(abs(b) < abs(a) for a, b in zip(seen, seen[1:]))


def test_shape_mismatch_rejected():
    p = Tensor(np.zeros(3, np.float32), requires_grad=True)
    opt = Adam([p])
    p.grad = np.zeros(4, np.float32)
    with pytest.raises(ValueError):
        opt.step()


def test_step_count_overflow_guard():
    p = Tensor(np.zeros(1, np.float32), requires_grad=True)
    opt = Adam([p])
    opt.step_count = 2**31 - 1
    p.grad = np.ones(1, np.float32)
    with pytest.raises(OverflowError):
        opt.step()


def test_adam_wrapper_reads_tensor_grads():
    p = Tensor(np.array([2.0], np.float32), requires_grad=True)
    opt = Adam([p], lr=0.5)
    p.grad = np.array([1.0], np.float32)
    opt.step()
    assert p.data[0] < 2.0
    opt.zero_grad()
    assert p.grad is None
