"""Adam with bias correction, operating on Tensor parameter lists."""

from __future__ import annotations

import numpy as np

_MAX_STEPS = 2**31  # step_count guard; beta powers underflow long before this


class Adam:
    """Adam over a list of Tensors, reading each gradient off `.grad`."""

    def __init__(self, params, lr: float = 1e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.step_count = 0
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps

    def step(self):
        """One Adam update, in place on the params; params without a
        gradient are skipped."""
        if self.step_count + 1 >= _MAX_STEPS:
            raise OverflowError("Adam step_count overflow")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ValueError(f"grad shape {g.shape} != param shape {p.data.shape}")
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / bc1
            v_hat = v / bc2
            p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(np.float32)

    def zero_grad(self):
        for p in self.params:
            p.grad = None
