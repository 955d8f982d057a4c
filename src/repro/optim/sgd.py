"""Stochastic gradient descent with momentum, weight decay and grad masking.

The paper trains every client with SGD (lr 0.01, momentum 0.5).  ``SGD``
additionally accepts a per-parameter gradient mask so pruned coordinates stay
exactly zero during local training: masked entries have their gradient (and
momentum) forced to zero before the update.  This matches the reference
implementation's behaviour of multiplying weights by the binary mask after
every step, but without momentum leakage into pruned coordinates.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np


class SGD:
    """Vanilla/momentum SGD over a list of named parameters."""

    def __init__(
        self,
        named_params: Iterable,
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if momentum < 0:
            raise ValueError(f"momentum must be non-negative, got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._named: List[tuple] = self._normalize(named_params)
        self._velocity: Dict[str, np.ndarray] = {}
        self._masks: Dict[str, np.ndarray] = {}

    @staticmethod
    def _normalize(named_params) -> List[tuple]:
        items = list(named_params)
        for entry in items:
            if not isinstance(entry, tuple):
                raise TypeError(f"expected a (name, Parameter) pair, got {type(entry)}")
        if not items:
            raise ValueError("optimizer received no parameters")
        return items

    def set_masks(self, masks: Optional[Dict[str, np.ndarray]]) -> None:
        """Install binary keep-masks keyed by parameter name (1 = trainable).

        Pass ``None`` or an empty dict to clear masking.  Installing a mask
        also zeroes any accumulated momentum on pruned coordinates.
        """
        self._masks = dict(masks) if masks else {}
        for name, velocity in self._velocity.items():
            if name in self._masks:
                velocity *= self._masks[name]

    def zero_grad(self) -> None:
        for _, param in self._named:
            param.zero_grad()

    def step(self) -> None:
        """Apply one update to every parameter that has a gradient."""
        for name, param in self._named:
            if param.grad is None:
                continue
            data = param.data  # one property access per parameter
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * data
            mask = self._masks.get(name)
            if mask is not None:
                grad = grad * mask
            if self.momentum:
                velocity = self._velocity.get(name)
                if velocity is None:
                    velocity = np.zeros_like(data)
                    self._velocity[name] = velocity
                velocity *= self.momentum
                velocity += grad
                update = velocity
            else:
                update = grad
            data -= self.lr * update
            if mask is not None:
                # Keep pruned coordinates exactly zero even under weight decay.
                data *= mask
