"""Reverse-mode automatic differentiation over the kernel table.

This module provides the :class:`Tensor` class, a thin autograd wrapper
that records a computation graph and supports backpropagation.  It
replaces the subset of PyTorch functionality the Sub-FedAvg reproduction
needs: addition, negation and multiplication with broadcasting, ReLU,
matrix multiplication, sum/mean, reshaping and indexing.  Convolution,
pooling, batch-norm and the cross-entropy loss live in
:mod:`repro.tensor.ops` as dedicated ops with hand-written backward
passes for speed.

Every forward primitive routes through :func:`_apply`, which runs the
op's numpy kernel from :mod:`repro.engine.ops` immediately via
:func:`~repro.engine.ops.run_kernel` — the one dispatch point per op.

Design notes
------------
* Gradients are accumulated into ``Tensor.grad`` as plain numpy arrays.
* The graph is a DAG of tensors; ``backward()`` runs a topological sort and
  calls each node's ``_backward`` closure exactly once.
* Broadcasting in the forward pass is undone in the backward pass by
  :func:`unbroadcast`, which sums gradient over broadcast axes.
* :func:`no_grad` suspends graph recording entirely — evaluation paths
  use it, so no backward closures are attached.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from ..engine.ops import run_kernel

ArrayLike = Union[np.ndarray, float, int, Sequence]

DEFAULT_DTYPE = np.float64

class _GradMode(threading.local):
    """Per-thread recording flag (the thread backend trains concurrently)."""

    enabled = True


_GRAD_MODE = _GradMode()


def grad_enabled() -> bool:
    """Whether new ops currently record backward closures (this thread)."""
    return _GRAD_MODE.enabled


@contextmanager
def no_grad():
    """Suspend gradient recording inside the block.

    Evaluation paths run under this: outputs never require grad and no
    backward closures are attached.  The flag is thread-local, so a client
    evaluating on one worker thread never disables recording for a client
    training on another.
    """
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


def _as_array(data: ArrayLike, dtype=DEFAULT_DTYPE) -> np.ndarray:
    """Coerce ``data`` to a numpy array of the engine's default dtype."""
    if isinstance(data, np.ndarray):
        if data.dtype == dtype:
            return data
        return data.astype(dtype)
    return np.asarray(data, dtype=dtype)


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    Numpy broadcasting may have expanded an operand from ``shape`` to
    ``grad.shape`` during the forward pass; the chain rule requires summing
    the incoming gradient over every broadcast dimension.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _apply(op, args, attrs=None):
    """Run one primitive's kernel over raw ``_data`` arrays.

    Returns ``(ndarray, saved-or-None)``; ``saved`` holds the
    intermediates a structured op's backward closure reads.
    """
    value, saved = run_kernel(op, attrs, args)
    if not isinstance(value, np.ndarray):
        value = np.asarray(value)  # numpy returns scalars for 0-d results
    return value, saved


def _make(value, requires: bool, parents: Tuple["Tensor", ...]) -> "Tensor":
    """Fast Tensor construction around a kernel result (no coercion)."""
    out = Tensor.__new__(Tensor)
    out._data = value
    out.grad = None
    out.requires_grad = requires
    out._backward = None
    out._parents = parents if requires else ()
    out.name = None
    return out


def _resolve_shape(shape: Tuple[int, ...], size: int) -> Tuple[int, ...]:
    """Resolve a single ``-1`` in a reshape target against ``size``."""
    shape = tuple(int(dim) for dim in shape)
    if -1 in shape:
        known = 1
        for dim in shape:
            if dim != -1:
                known *= dim
        shape = tuple(size // known if dim == -1 else dim for dim in shape)
    return shape


class Tensor:
    """A numpy array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("_data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        name: Optional[str] = None,
    ) -> None:
        self._data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents = _parents
        self.name = name

    # ------------------------------------------------------------------
    # Data access and introspection
    # ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """The underlying array."""
        return self._data

    @data.setter
    def data(self, value) -> None:
        self._data = _as_array(value)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self._data.shape

    @property
    def ndim(self) -> int:
        return self._data.ndim

    @property
    def size(self) -> int:
        return self._data.size

    @property
    def dtype(self):
        return self._data.dtype

    def __len__(self) -> int:
        shape = self._data.shape
        if not shape:
            raise TypeError("len() of unsized object")
        return shape[0]

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but outside the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _lift(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            borrowed = grad.base is not None or grad.flags.writeable is False
            self.grad = grad.copy() if borrowed else grad
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = _as_array(grad)
        if grad.shape != self.shape:
            raise ValueError(f"grad shape {grad.shape} does not match tensor shape {self.shape}")

        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        value, _ = _apply("add", (self._data, other._data))
        requires = _GRAD_MODE.enabled and (self.requires_grad or other.requires_grad)
        out = _make(value, requires, (self, other))
        if requires:

            def _backward(grad: np.ndarray) -> None:
                if self.requires_grad:
                    self._accumulate(unbroadcast(grad, self.shape))
                if other.requires_grad:
                    other._accumulate(unbroadcast(grad, other.shape))

            out._backward = _backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        value, _ = _apply("neg", (self._data,))
        requires = _GRAD_MODE.enabled and self.requires_grad
        out = _make(value, requires, (self,))
        if requires:

            def _backward(grad: np.ndarray) -> None:
                self._accumulate(-grad)

            out._backward = _backward
        return out

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        value, _ = _apply("mul", (self._data, other._data))
        requires = _GRAD_MODE.enabled and (self.requires_grad or other.requires_grad)
        out = _make(value, requires, (self, other))
        if requires:

            def _backward(grad: np.ndarray) -> None:
                if self.requires_grad:
                    self._accumulate(unbroadcast(grad * other.data, self.shape))
                if other.requires_grad:
                    other._accumulate(unbroadcast(grad * self.data, other.shape))

            out._backward = _backward
        return out

    __rmul__ = __mul__

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        value, _ = _apply("matmul", (self._data, other._data))
        requires = _GRAD_MODE.enabled and (self.requires_grad or other.requires_grad)
        out = _make(value, requires, (self, other))
        if requires:

            def _backward(grad: np.ndarray) -> None:
                if self.requires_grad:
                    if other.ndim == 1:
                        if grad.ndim == 1:
                            self._accumulate(np.outer(grad, other.data))
                        else:
                            self._accumulate(grad[..., None] * other.data)
                    else:
                        self._accumulate(unbroadcast(grad @ other.data.swapaxes(-1, -2), self.shape))
                if other.requires_grad:
                    if self.ndim == 1:
                        other._accumulate(np.outer(self.data, grad))
                    else:
                        other._accumulate(unbroadcast(self.data.swapaxes(-1, -2) @ grad, other.shape))

            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        value, _ = _apply("relu", (self._data,))
        requires = _GRAD_MODE.enabled and self.requires_grad
        out = _make(value, requires, (self,))
        if requires:

            def _backward(grad: np.ndarray) -> None:
                self._accumulate(grad * (self.data > 0))

            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        value, _ = _apply("sum", (self._data,), {"axis": axis, "keepdims": keepdims})
        requires = _GRAD_MODE.enabled and self.requires_grad
        out = _make(value, requires, (self,))
        if requires:

            def _backward(grad: np.ndarray) -> None:
                g = grad
                if axis is not None and not keepdims:
                    axes = axis if isinstance(axis, tuple) else (axis,)
                    for ax in sorted(a % self.ndim for a in axes):
                        g = np.expand_dims(g, ax)
                self._accumulate(np.broadcast_to(g, self.shape).copy())

            out._backward = _backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        resolved = _resolve_shape(shape, self.size)
        value, _ = _apply("reshape", (self._data,), {"shape": resolved})
        requires = _GRAD_MODE.enabled and self.requires_grad
        out = _make(value, requires, (self,))
        if requires:

            def _backward(grad: np.ndarray) -> None:
                self._accumulate(grad.reshape(self.shape))

            out._backward = _backward
        return out

    def flatten_batch(self) -> "Tensor":
        """Flatten all dimensions except the leading batch dimension."""
        return self.reshape(self.shape[0], -1)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        value, _ = _apply("transpose", (self._data,), {"axes": axes})
        requires = _GRAD_MODE.enabled and self.requires_grad
        out = _make(value, requires, (self,))
        inverse = np.argsort(axes)
        if requires:

            def _backward(grad: np.ndarray) -> None:
                self._accumulate(grad.transpose(inverse))

            out._backward = _backward
        return out

    def __getitem__(self, index) -> "Tensor":
        value, _ = _apply("getitem", (self._data,), {"index": index})
        requires = _GRAD_MODE.enabled and self.requires_grad
        out = _make(value, requires, (self,))
        if requires:

            def _backward(grad: np.ndarray) -> None:
                full = np.zeros(self.shape, dtype=DEFAULT_DTYPE)
                np.add.at(full, index, grad)
                self._accumulate(full)

            out._backward = _backward
        return out

def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)
