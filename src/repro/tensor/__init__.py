"""Reverse-mode autograd engine on numpy (the reproduction's PyTorch stand-in).

Every forward op runs its numpy kernel from the :mod:`repro.engine` kernel
table through the single dispatch point
:func:`~repro.engine.ops.run_kernel`.
"""

from .tensor import (
    Tensor,
    concat,
    grad_enabled,
    no_grad,
    ones,
    stack,
    unbroadcast,
    zeros,
)
from .ops import (
    batch_norm,
    conv2d,
    cross_entropy,
    dropout,
    im2col,
    col2im,
    log_softmax,
    max_pool2d,
    nll_loss,
    softmax,
)
from .gradcheck import check_gradients, numerical_gradient

__all__ = [
    "Tensor",
    "concat",
    "stack",
    "zeros",
    "ones",
    "unbroadcast",
    "no_grad",
    "grad_enabled",
    "conv2d",
    "max_pool2d",
    "batch_norm",
    "log_softmax",
    "softmax",
    "nll_loss",
    "cross_entropy",
    "dropout",
    "im2col",
    "col2im",
    "check_gradients",
    "numerical_gradient",
]
