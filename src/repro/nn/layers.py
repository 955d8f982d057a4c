"""Core neural-network layers: linear, convolution, batch norm, pooling.

Every layer takes an explicit ``numpy.random.Generator`` for weight
initialization so that all clients in a federation can be constructed from
identical ``theta_0`` by sharing a seed (the paper's Algorithms 1-2 both
start clients and server from the same initialization).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor, batch_norm, conv2d, max_pool2d
from . import init
from .module import Module, Parameter


def _default_rng(rng: Optional[np.random.Generator]) -> np.random.Generator:
    return rng if rng is not None else np.random.default_rng()


class Linear(Module):
    """Affine map ``y = x W^T + b`` with weight shape ``(out, in)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = _default_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        if bias:
            self.bias = Parameter(init.bias_uniform((out_features, in_features), rng))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim == 2 and not self.training:
            # Eval mode runs one product per row: a 2-D GEMM's summation
            # order depends on the other rows of the batch, so an example's
            # logits would depend on its chunk (the evaluation memo needs
            # them not to).  Train mode keeps the single GEMM.
            rows = len(x)
            out = (x.reshape(rows, 1, self.in_features) @ self.weight.transpose()).reshape(
                rows, self.out_features
            )
        else:
            out = x @ self.weight.transpose()
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features})"


class Conv2d(Module):
    """2-D convolution with square kernels; weight shape ``(out, in, k, k)``."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = _default_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_uniform(shape, rng))
        if bias:
            self.bias = Parameter(init.bias_uniform(shape, rng))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv2d(in={self.in_channels}, out={self.out_channels}, "
            f"k={self.kernel_size}, stride={self.stride}, padding={self.padding})"
        )


class BatchNorm2d(Module):
    """Per-channel batch normalization for ``(N, C, H, W)`` inputs.

    The learnable scale ``weight`` (γ in the paper) is the channel-importance
    signal used by structured pruning (network-slimming style, Liu et al.
    2017): channels whose |γ| falls below a percentile threshold are pruned.
    """

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.weight = Parameter(np.ones(num_features))
        self.bias = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        return batch_norm(
            x,
            self.weight,
            self.bias,
            self.running_mean,
            self.running_var,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features})"


class MaxPool2d(Module):
    """Max pooling with square windows."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return max_pool2d(x, kernel=self.kernel_size, stride=self.stride)

    def __repr__(self) -> str:
        return f"MaxPool2d(k={self.kernel_size}, stride={self.stride})"


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def __repr__(self) -> str:
        return "ReLU()"


class Flatten(Module):
    """Flatten all dimensions after the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten_batch()

    def __repr__(self) -> str:
        return "Flatten()"


class Sequential(Module):
    """Run child modules in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        for index, layer in enumerate(layers):
            setattr(self, str(index), layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self._modules.values():
            x = layer(x)
        return x

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def __len__(self) -> int:
        return len(self._modules)
