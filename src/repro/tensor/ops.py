"""Structured ops with hand-written backward passes.

Convolution, max-pooling and batch normalization are implemented as single
graph nodes rather than compositions of primitive tensor ops.  This keeps the
autograd graph small and the numpy work vectorized, which matters because the
federated experiments train hundreds of client models.

Forward values dispatch through :func:`~repro.engine.ops.run_kernel` like
the primitive tensor ops do; the kernels of convolution, pooling and
log-softmax also return *saved* intermediates (im2col columns, pool argmax,
softmax) that the backward closures read; pooling computes its argmax only
when the output will record a backward.  :func:`batch_norm` differs: it
computes directly in numpy, outside the kernel table, because it also
updates its running statistics in place at call time (PyTorch semantics).
Without a backward to feed it normalizes in place on one buffer.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..engine.ops import col2im, im2col  # noqa: F401  (re-exported, historical home)
from .tensor import Tensor, _apply, _make, grad_enabled


def _conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def _check_output_size(op: str, out_h: int, out_w: int) -> None:
    if out_h <= 0 or out_w <= 0:
        raise ValueError(f"{op} output size is non-positive; check kernel/stride/padding")


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D cross-correlation of ``x`` ``(N, C, H, W)`` with ``weight`` ``(F, C, kh, kw)``."""
    batch, in_channels, height, width = x.shape
    out_channels, weight_channels, kernel_h, kernel_w = weight.shape
    if in_channels != weight_channels:
        raise ValueError(
            f"input has {in_channels} channels but weight expects {weight_channels}"
        )
    out_h = _conv_output_size(height, kernel_h, stride, padding)
    out_w = _conv_output_size(width, kernel_w, stride, padding)
    _check_output_size("convolution", out_h, out_w)

    out_shape = (batch, out_channels, out_h, out_w)
    attrs = {"stride": stride, "padding": padding, "out_shape": out_shape}
    args = (x._data, weight._data) if bias is None else (x._data, weight._data, bias._data)
    value, saved = _apply("conv2d", args, attrs)

    parents = (x, weight) if bias is None else (x, weight, bias)
    requires = grad_enabled() and any(p.requires_grad for p in parents)
    out = _make(value, requires, parents)
    if requires:

        def _backward(grad: np.ndarray) -> None:
            cols, w2d, padded_shape = saved["cols"], saved["w2d"], saved["padded_shape"]
            grad2d = grad.reshape(batch, out_channels, out_h * out_w)
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad.sum(axis=(0, 2, 3)))
            if weight.requires_grad:
                grad_w = (grad2d @ cols.transpose(0, 2, 1)).sum(axis=0)
                weight._accumulate(grad_w.reshape(weight.shape))
            if x.requires_grad:
                grad_cols = w2d.T @ grad2d
                grad_padded = col2im(
                    grad_cols, padded_shape, kernel_h, kernel_w, stride, out_h, out_w
                )
                if padding:
                    grad_x = grad_padded[:, :, padding:-padding, padding:-padding]
                else:
                    grad_x = grad_padded
                x._accumulate(grad_x)

        out._backward = _backward
    return out


def max_pool2d(x: Tensor, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    """Max pooling over ``(N, C, H, W)`` with square windows."""
    if stride is None:
        stride = kernel
    batch, channels, height, width = x.shape
    out_h = _conv_output_size(height, kernel, stride, 0)
    out_w = _conv_output_size(width, kernel, stride, 0)
    _check_output_size("max-pool", out_h, out_w)

    requires = grad_enabled() and x.requires_grad
    attrs = {
        "kernel": kernel,
        "stride": stride,
        "out_shape": (batch, channels, out_h, out_w),
        "requires_grad": requires,
    }
    value, saved = _apply("max_pool2d", (x._data,), attrs)
    out = _make(value, requires, (x,))
    if requires:

        def _backward(grad: np.ndarray) -> None:
            argmax = saved["argmax"]
            grad_x = np.zeros(x.shape)
            for idx in range(kernel * kernel):
                i, j = divmod(idx, kernel)
                mask = argmax == idx
                if not mask.any():
                    continue
                i_end = i + stride * out_h
                j_end = j + stride * out_w
                grad_x[:, :, i:i_end:stride, j:j_end:stride] += grad * mask
            x._accumulate(grad_x)

        out._backward = _backward
    return out


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over the channel axis of ``(N, C, H, W)``.

    ``running_mean`` / ``running_var`` are updated in place during training,
    mirroring PyTorch semantics (exponential moving average with ``momentum``).
    """
    if x.ndim != 4:
        raise ValueError(f"batch_norm expects 4-D input, got {x.ndim}-D")
    axes = (0, 2, 3)
    shape = (1, -1, 1, 1)
    count = x.shape[0] * x.shape[2] * x.shape[3]

    parents = (x, gamma, beta)
    requires = grad_enabled() and any(p.requires_grad for p in parents)
    if training:
        # np.var's own steps (sum / count of squared deviations), sharing
        # the centred batch with the normalization below.
        mean = x.data.mean(axis=axes, keepdims=True)
        centered = x.data - mean
        var = np.square(centered).sum(axis=axes) / count
        if count > 1:
            unbiased = var * count / (count - 1)
        else:
            unbiased = var
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean.reshape(-1)
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        centered = x.data - running_mean.reshape(shape)
        var = running_var

    # Clamp to non-negative: running_var loaded from an untrusted state dict
    # (e.g. a corrupted federated upload) may be negative, and NaNs here
    # would silently poison every downstream activation.
    inv_std = 1.0 / np.sqrt(np.maximum(var, 0.0) + eps)
    x_hat = np.multiply(centered, inv_std.reshape(shape), out=centered)
    # The backward closure reads x_hat; with no backward, scale it in place.
    result = np.multiply(gamma.data.reshape(shape), x_hat, out=None if requires else x_hat)
    result += beta.data.reshape(shape)

    out = _make(result, requires, parents)
    if requires:

        def _backward(grad: np.ndarray) -> None:
            if beta.requires_grad:
                beta._accumulate(grad.sum(axis=axes))
            if gamma.requires_grad:
                gamma._accumulate((grad * x_hat).sum(axis=axes))
            if not x.requires_grad:
                return
            g = gamma.data.reshape(shape)
            if training:
                grad_xhat = grad * g
                sum_grad = grad_xhat.sum(axis=axes, keepdims=True)
                sum_grad_xhat = (grad_xhat * x_hat).sum(axis=axes, keepdims=True)
                grad_x = (
                    inv_std.reshape(shape)
                    / count
                    * (count * grad_xhat - sum_grad - x_hat * sum_grad_xhat)
                )
            else:
                grad_x = grad * g * inv_std.reshape(shape)
            x._accumulate(grad_x)

        out._backward = _backward
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    value, saved = _apply("log_softmax", (x._data,), {"axis": axis})
    requires = grad_enabled() and x.requires_grad
    out = _make(value, requires, (x,))
    if requires:

        def _backward(grad: np.ndarray) -> None:
            softmax = saved["softmax"]
            x._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True))

        out._backward = _backward
    return out


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Negative log-likelihood of integer ``targets`` under ``log_probs``."""
    targets = np.asarray(targets)
    batch = log_probs.shape[0]
    value, _ = _apply("nll_loss", (log_probs._data,), {"targets": targets})
    requires = grad_enabled() and log_probs.requires_grad
    out = _make(value, requires, (log_probs,))
    if requires:

        def _backward(grad: np.ndarray) -> None:
            full = np.zeros(log_probs.shape)
            full[np.arange(batch), targets] = -1.0 / batch
            log_probs._accumulate(full * grad)

        out._backward = _backward
    return out


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Softmax cross-entropy between ``logits`` ``(N, K)`` and integer targets."""
    return nll_loss(log_softmax(logits, axis=-1), targets)
