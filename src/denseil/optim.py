"""Adam with bias correction and a step-decay learning-rate schedule."""

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Kingma and Ba's defaults


class Adam:
    """Keeps first/second moment estimates per parameter.

    ``params`` maps names to leaf tensors; one whose grad is None after
    backward takes no step. Parameters are visited in sorted-name order so
    the update sequence does not depend on dict construction order. Moments
    live in the parameter's own dtype; at 32 bits the whole update is 32-bit
    arithmetic.
    """

    def __init__(self, params):
        self.params = params
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self, lr: float):
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        for name in sorted(self.params):
            p = self.params[name]
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p.data -= lr * (m / c1) / (np.sqrt(v / c2) + EPS)


def lr_at(epoch: int, lr0: float, decay_interval: int) -> float:
    """lr0 divided by 10 once per completed interval."""
    if decay_interval <= 0:
        return float(lr0)
    return float(lr0) / 10.0 ** (epoch // decay_interval)
