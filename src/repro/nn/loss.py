"""The loss: softmax cross-entropy over integer class targets."""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, cross_entropy
from .module import Module


class CrossEntropyLoss(Module):
    """Softmax cross-entropy over integer class targets (mean reduction)."""

    def forward(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        return cross_entropy(logits, targets)

    def __repr__(self) -> str:
        return "CrossEntropyLoss()"
