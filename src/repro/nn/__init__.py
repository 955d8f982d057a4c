"""Neural-network layers and containers (PyTorch-style, numpy-backed)."""

from .module import Module, Parameter
from .layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from .loss import CrossEntropyLoss
from . import init

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "MaxPool2d",
    "ReLU",
    "Flatten",
    "Sequential",
    "CrossEntropyLoss",
    "init",
]
