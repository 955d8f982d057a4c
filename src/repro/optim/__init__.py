"""The optimizer: momentum SGD with per-parameter gradient masks.

Every federated client trains with :class:`SGD` (paper §4.1: lr 0.01,
momentum 0.5); the masks keep pruned coordinates at zero.
"""

from .sgd import SGD

__all__ = ["SGD"]
