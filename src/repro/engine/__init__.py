"""The kernel table behind the tensor layer.

:mod:`repro.engine.ops` declares every primitive :mod:`repro.tensor`
executes as an :class:`OpSpec` with its numpy kernel, and
:func:`run_kernel` is the single point every forward op dispatches
through.
"""

from .ops import OPS, OpSpec, col2im, im2col, run_kernel

__all__ = ["OPS", "OpSpec", "col2im", "im2col", "run_kernel"]
