"""Paper architectures (LeNet-5 + BN, 5-layer CNN) and the model registry."""

from .base import ConvNet, ConvUnit
from .cnn import CNN5
from .lenet import LeNet5
from .mlp import MLP
from .registry import (
    MODELS,
    create_model,
    input_spatial_size,
    parameter_census,
    register_model,
)
from .vgg import VGGLite

__all__ = [
    "ConvNet",
    "ConvUnit",
    "LeNet5",
    "CNN5",
    "MLP",
    "VGGLite",
    "create_model",
    "MODELS",
    "register_model",
    "input_spatial_size",
    "parameter_census",
]
