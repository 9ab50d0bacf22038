"""Adam optimizer and weight initialization."""

from __future__ import annotations

import numpy as np

from .autodiff import Parameter
from .errors import ConfigError

__all__ = ["Adam", "xavier_uniform_init", "xavier_bound"]


class Adam:
    """Adaptive moment estimation with bias-corrected first and second
    moments.  The learning rate is passed per step so schedules stay
    outside the optimizer."""

    # moment decay rates and the denominator guard
    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params):
        self.params = [p for p in params if p.trainable]
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self, lr):
        """One update of every parameter, in place.

        The moments and values go through the same operations, in the same
        order, as the closed form ``m = b1 m + (1 - b1) g``,
        ``v = b2 v + (1 - b2) g g`` and ``p -= lr m_hat / (sqrt(v_hat) + eps)``,
        so the results are bit-identical to it.
        """
        self.t += 1
        c1 = 1.0 - self.BETA1**self.t
        c2 = 1.0 - self.BETA2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            step = np.divide(m, c1)
            step *= lr
            denom = np.divide(v, c2)
            np.sqrt(denom, out=denom)
            denom += self.EPS
            step /= denom
            p.value -= step

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


def xavier_bound(shape) -> float:
    """Half-width of the uniform initialization interval for a kernel shape."""
    rows, cols, kv, kh = shape
    fan_in = cols * kv * kh
    fan_out = rows * kv * kh
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def xavier_uniform_init(shape, rng: np.random.Generator) -> np.ndarray:
    """Draw a kernel i.i.d. uniform on [-a, a] with the fan-balanced bound,
    from the generator ``rng``."""
    if len(shape) != 4:
        raise ConfigError(f"expected a 4-D kernel shape, got {shape}")
    a = xavier_bound(shape)
    return rng.uniform(-a, a, size=shape)
