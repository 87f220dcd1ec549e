"""Adam with bias correction and a step-decay learning-rate schedule."""

import numpy as np


class Adam:
    """Keeps first/second moment estimates per parameter.

    ``params`` maps names to leaf tensors; one whose grad is None after
    backward takes no step. Parameters are visited in sorted-name order so
    the update sequence does not depend on dict construction order. Moments
    live in the parameter's own dtype; at 32 bits the whole update is 32-bit
    arithmetic.
    """

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self, lr: float):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name in sorted(self.params):
            p = self.params[name]
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def lr_at(epoch: int, lr0: float, decay_interval: int,
          decay_factor: float = 10.0) -> float:
    """lr0 divided by decay_factor once per completed interval."""
    if decay_interval <= 0:
        return float(lr0)
    return float(lr0) / float(decay_factor) ** (epoch // decay_interval)
