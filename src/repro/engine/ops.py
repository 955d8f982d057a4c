"""The kernel table: every tensor primitive and its numpy kernel.

Each primitive the tensor layer executes is declared here as an
:class:`OpSpec`: its numpy kernel, and whether the kernel also returns
*saved* intermediates that the autograd layer's backward closures consume
(e.g. the im2col columns of a convolution).  :func:`run_kernel` is the
single dispatch point: every forward op of :mod:`repro.tensor` passes
through it exactly once, which is where per-op timing hooks attach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class OpSpec:
    """Declaration of one tensor primitive."""

    name: str
    kernel: Callable  # kernel(attrs, *arrays) -> value (or (value, saved))
    saves: bool = False  # kernel returns (value, saved-intermediates dict)


#: name -> OpSpec table of every primitive the tensor layer executes.
OPS: Dict[str, OpSpec] = {}


def _register(name, kernel, saves=False) -> None:
    OPS[name] = OpSpec(name, kernel, saves)


def run_kernel(
    op: str, attrs: Optional[Dict[str, Any]], arrays
) -> Tuple[np.ndarray, Optional[Dict[str, Any]]]:
    """Execute ``op``'s kernel; returns ``(value, saved-or-None)``."""
    spec = OPS[op]
    out = spec.kernel(attrs or {}, *arrays)
    if spec.saves:
        return out
    return out, None


# ----------------------------------------------------------------------
# Elementwise kernels
# ----------------------------------------------------------------------
_register("add", lambda attrs, a, b: a + b)
_register("mul", lambda attrs, a, b: a * b)
_register("neg", lambda attrs, a: -a)
_register("relu", lambda attrs, a: a * (a > 0))

# ----------------------------------------------------------------------
# Reduction
# ----------------------------------------------------------------------
_register(
    "sum",
    lambda attrs, a: a.sum(axis=attrs.get("axis"), keepdims=attrs.get("keepdims", False)),
)

# ----------------------------------------------------------------------
# Movement (numpy views)
# ----------------------------------------------------------------------
_register("reshape", lambda attrs, a: a.reshape(attrs["shape"]))
_register("transpose", lambda attrs, a: a.transpose(attrs["axes"]))

# ----------------------------------------------------------------------
# Contractions
# ----------------------------------------------------------------------
_register("matmul", lambda attrs, a, b: a @ b)


def im2col(
    padded: np.ndarray, kernel_h: int, kernel_w: int, stride: int, out_h: int, out_w: int
) -> np.ndarray:
    """Unfold a padded ``(N, C, H, W)`` batch into ``(N, C*kh*kw, out_h*out_w)``.

    One copy of a strided window view, laid out ``(N, C, kh, kw, oh, ow)``.
    """
    batch, channels = padded.shape[:2]
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (kernel_h, kernel_w), axis=(2, 3)
    )[:, :, ::stride, ::stride][:, :, :out_h, :out_w]
    return windows.transpose(0, 1, 4, 5, 2, 3).reshape(
        batch, channels * kernel_h * kernel_w, out_h * out_w
    )


def col2im(
    cols: np.ndarray,
    padded_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Fold ``(N, C*kh*kw, out_h*out_w)`` columns back, summing overlaps."""
    batch, channels = padded_shape[:2]
    grad = np.zeros(padded_shape, dtype=cols.dtype)
    cols = cols.reshape(batch, channels, kernel_h, kernel_w, out_h, out_w)
    for i in range(kernel_h):
        i_end = i + stride * out_h
        for j in range(kernel_w):
            j_end = j + stride * out_w
            grad[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j]
    return grad


def _conv2d_kernel(attrs, x, weight, bias=None):
    stride, padding = attrs["stride"], attrs["padding"]
    out_h, out_w = attrs["out_shape"][-2:]
    batch = x.shape[0]
    out_channels, _, kernel_h, kernel_w = weight.shape
    if padding:
        padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        padded = x
    cols = im2col(padded, kernel_h, kernel_w, stride, out_h, out_w)
    w2d = weight.reshape(out_channels, -1)
    result = (w2d @ cols).reshape(batch, out_channels, out_h, out_w)
    if bias is not None:
        result += bias.reshape(1, -1, 1, 1)
    return result, {"cols": cols, "w2d": w2d, "padded_shape": padded.shape}


_register("conv2d", _conv2d_kernel, saves=True)


def _max_pool2d_kernel(attrs, x):
    """Running ``np.maximum`` over the k² strided window views of ``x``.

    ``np.maximum`` returns its second operand on ties, so the running max
    keeps the first of equal values (``-0.0`` vs ``0.0`` after ReLU) as
    ``np.argmax`` would.  The first-max window index (strict ``>``, the same
    tie-break) is tracked only when ``attrs["requires_grad"]``; otherwise
    ``saved["argmax"]`` is ``None``.
    """
    kernel, stride = attrs["kernel"], attrs["stride"]
    out_h, out_w = attrs["out_shape"][-2:]
    value = x[:, :, : stride * out_h : stride, : stride * out_w : stride].copy()
    argmax = np.zeros(value.shape, dtype=np.intp) if attrs["requires_grad"] else None
    for idx in range(1, kernel * kernel):
        i, j = divmod(idx, kernel)
        window = x[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride]
        if argmax is not None:
            np.copyto(argmax, idx, where=window > value)
        np.maximum(window, value, out=value)
    return value, {"argmax": argmax}


_register("max_pool2d", _max_pool2d_kernel, saves=True)


def _log_softmax_kernel(attrs, x):
    axis = attrs.get("axis", -1)
    shifted = x - x.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    value = shifted - log_sum
    return value, {"softmax": np.exp(value)}


_register("log_softmax", _log_softmax_kernel, saves=True)


def _nll_loss_kernel(attrs, log_probs):
    targets = attrs["targets"]
    picked = log_probs[np.arange(log_probs.shape[0]), targets]
    return np.asarray(-picked.mean())


_register("nll_loss", _nll_loss_kernel)

# ----------------------------------------------------------------------
# Indexing
# ----------------------------------------------------------------------
_register("getitem", lambda attrs, a: a[attrs["index"]])
