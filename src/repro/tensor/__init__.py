"""Reverse-mode autograd engine on numpy (the reproduction's PyTorch stand-in).

It holds only the ops LeNet-5 and CNN5 train and evaluate with: tensor
arithmetic (add, negate, multiply, matmul, ReLU, sum/mean, reshape,
transpose, indexing) plus convolution, max-pooling, 4-D batch norm and
the log-softmax/NLL cross-entropy.  Every forward op runs its numpy
kernel from the :mod:`repro.engine` kernel table through the single
dispatch point :func:`~repro.engine.ops.run_kernel`.
"""

from .tensor import (
    Tensor,
    grad_enabled,
    no_grad,
    ones,
    unbroadcast,
    zeros,
)
from .ops import (
    batch_norm,
    conv2d,
    cross_entropy,
    im2col,
    col2im,
    log_softmax,
    max_pool2d,
    nll_loss,
)
from .gradcheck import check_gradients, numerical_gradient

__all__ = [
    "Tensor",
    "zeros",
    "ones",
    "unbroadcast",
    "no_grad",
    "grad_enabled",
    "conv2d",
    "max_pool2d",
    "batch_norm",
    "log_softmax",
    "nll_loss",
    "cross_entropy",
    "im2col",
    "col2im",
    "check_gradients",
    "numerical_gradient",
]
