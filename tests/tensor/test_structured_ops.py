"""Convolution, pooling, batch norm, log-softmax/loss: references and gradients."""

from contextlib import nullcontext

import numpy as np
import pytest
from scipy import signal

from repro.engine import run_kernel
from repro.tensor import (
    Tensor,
    batch_norm,
    check_gradients,
    col2im,
    conv2d,
    cross_entropy,
    im2col,
    log_softmax,
    max_pool2d,
    nll_loss,
    no_grad,
)


def reference_conv(x, w, b, stride=1, padding=0):
    """Direct cross-correlation via scipy, for value verification."""
    n, c_in, h, w_in = x.shape
    f = w.shape[0]
    k = w.shape[2]
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (x.shape[2] - k) // stride + 1
    out_w = (x.shape[3] - k) // stride + 1
    out = np.zeros((n, f, out_h, out_w))
    for i in range(n):
        for j in range(f):
            acc = np.zeros((x.shape[2] - k + 1, x.shape[3] - k + 1))
            for ch in range(c_in):
                acc += signal.correlate2d(x[i, ch], w[j, ch], mode="valid")
            out[i, j] = acc[::stride, ::stride]
    if b is not None:
        out += b.reshape(1, -1, 1, 1)
    return out


def reference_conv_grads(x, w, upstream, stride, padding):
    """Conv grads of ``x``, ``w`` and bias from the einsum contractions."""
    n, f, out_h, out_w = upstream.shape
    k = w.shape[2]
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = im2col(padded, k, k, stride, out_h, out_w)
    grad2d = upstream.reshape(n, f, out_h * out_w)
    grad_w = np.einsum("nfl,nkl->fk", grad2d, cols).reshape(w.shape)
    grad_cols = np.einsum("fk,nfl->nkl", w.reshape(f, -1), grad2d)
    grad_padded = col2im(grad_cols, padded.shape, k, k, stride, out_h, out_w)
    grad_x = grad_padded[:, :, padding : padding + x.shape[2], padding : padding + x.shape[3]]
    return grad_x, grad_w, upstream.sum(axis=(0, 2, 3))


def reference_max_pool(x, kernel, stride):
    """Max pool as a window copy, ``argmax`` and ``take_along_axis``."""
    n, c, h, w = x.shape
    out_h, out_w = (h - kernel) // stride + 1, (w - kernel) // stride + 1
    windows = np.stack(
        [
            x[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride]
            for i in range(kernel)
            for j in range(kernel)
        ],
        axis=-1,
    )
    argmax = windows.argmax(axis=-1)
    return np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0], argmax


def reference_batch_norm(x, gamma, beta, running_mean, running_var, training,
                         momentum=0.1, eps=1e-5):
    """Batch norm from ``x.var`` and fresh temporaries; returns new running stats."""
    axes = (0, 2, 3)
    shape = (1, -1, 1, 1)
    count = x.size // x.shape[1]
    running_mean, running_var = running_mean.copy(), running_var.copy()
    if training:
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        unbiased = var * count / (count - 1) if count > 1 else var
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        mean, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(np.maximum(var, 0.0) + eps)
    x_hat = (x - mean.reshape(shape)) * inv_std.reshape(shape)
    return gamma.reshape(shape) * x_hat + beta.reshape(shape), running_mean, running_var


def post_relu(rng, shape):
    """Activations as ReLU leaves them: about half ``-0.0``, some ``0.0``."""
    x = rng.normal(size=shape)
    x = x * (x > 0)
    x[..., ::3, :] = 0.0
    return x


class TestConv2d:
    def test_value_matches_scipy(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, reference_conv(x, w, b), atol=1e-10)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 2)])
    def test_value_stride_padding(self, rng, stride, padding):
        x = rng.normal(size=(1, 2, 7, 7))
        w = rng.normal(size=(3, 2, 3, 3))
        out = conv2d(Tensor(x), Tensor(w), None, stride=stride, padding=padding)
        np.testing.assert_allclose(
            out.data, reference_conv(x, w, None, stride, padding), atol=1e-10
        )

    def test_gradcheck_all_inputs(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        check_gradients(lambda: conv2d(x, w, b).sum(), [x, w, b])

    def test_gradcheck_stride2_padded(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 1, 3, 3)), requires_grad=True)
        check_gradients(lambda: conv2d(x, w, None, stride=2, padding=1).sum(), [x, w])

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 5, 5)))
        w = Tensor(rng.normal(size=(2, 4, 3, 3)))
        with pytest.raises(ValueError, match="channels"):
            conv2d(x, w, None)

    def test_kernel_too_large_raises(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 2, 2)))
        w = Tensor(rng.normal(size=(1, 1, 5, 5)))
        with pytest.raises(ValueError, match="non-positive"):
            conv2d(x, w, None)

    def test_pool_window_too_large_raises_like_conv(self):
        with pytest.raises(ValueError, match="non-positive"):
            max_pool2d(Tensor(np.ones((1, 1, 1, 1))), 2)

    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 2)])
    def test_backward_batched_matches_einsum_reference(self, rng, stride, padding, with_bias):
        """Batch-3 grads of x, w and b against the einsum contractions."""
        x = Tensor(rng.normal(size=(3, 2, 7, 7)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True) if with_bias else None
        out = conv2d(x, w, b, stride=stride, padding=padding)
        upstream = rng.normal(size=out.shape)
        (out * Tensor(upstream)).sum().backward()

        grad_x, grad_w, grad_b = reference_conv_grads(
            x.data, w.data, upstream, stride, padding
        )
        np.testing.assert_allclose(x.grad, grad_x, atol=1e-10)
        np.testing.assert_allclose(w.grad, grad_w, atol=1e-10)
        if with_bias:
            np.testing.assert_allclose(b.grad, grad_b, atol=1e-10)

    def test_im2col_col2im_are_adjoint(self, rng):
        """col2im(im2col(x)) multiplies each pixel by its window count."""
        x = rng.normal(size=(1, 1, 4, 4))
        cols = im2col(x, 2, 2, 1, 3, 3)
        back = col2im(cols, x.shape, 2, 2, 1, 3, 3)
        counts = col2im(np.ones_like(cols), x.shape, 2, 2, 1, 3, 3)
        np.testing.assert_allclose(back, x * counts)


class TestMaxPool:
    def test_value(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = max_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data, [[[[5.0, 7.0], [13.0, 15.0]]]])

    def test_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
        check_gradients(lambda: max_pool2d(x, 2).sum(), [x])

    def test_gradcheck_kernel3_stride1_overlapping(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 5, 5)), requires_grad=True)
        check_gradients(lambda: max_pool2d(x, 3, stride=1).sum(), [x])

    def test_grad_routes_to_max_only(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]), requires_grad=True)
        max_pool2d(x, 2).sum().backward()
        np.testing.assert_allclose(x.grad, [[[[0, 0], [0, 1.0]]]])

    @pytest.mark.parametrize("kernel,stride,size", [(2, 2, 4), (3, 1, 5)])
    def test_tied_zero_windows_route_grad_to_first_position(self, kernel, stride, size):
        x = Tensor(np.zeros((1, 2, size, size)), requires_grad=True)
        out = max_pool2d(x, kernel, stride=stride)
        out.sum().backward()
        out_h = out.shape[-1]
        expected = np.zeros(x.shape)
        expected[:, :, : stride * out_h : stride, : stride * out_h : stride] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 1)])
    def test_repeated_max_routes_grad_to_first_occurrence(self, kernel, stride):
        window = np.zeros((kernel, kernel))
        window[0, kernel - 1] = window[kernel - 1, 0] = window[-1, -1] = 5.0
        x = Tensor(window.reshape(1, 1, kernel, kernel), requires_grad=True)
        max_pool2d(x, kernel, stride=stride).sum().backward()
        expected = np.zeros((kernel, kernel))
        expected[0, kernel - 1] = 1.0
        np.testing.assert_array_equal(x.grad[0, 0], expected)

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 1), (3, 2)])
    def test_kernel_matches_window_argmax_bitwise(self, rng, kernel, stride):
        """Values keep the first of tied maxima, signed zeros included."""
        x = post_relu(rng, (3, 4, 11, 11))
        ref_value, ref_argmax = reference_max_pool(x, kernel, stride)
        attrs = {"kernel": kernel, "stride": stride, "out_shape": ref_value.shape}
        value, saved = run_kernel("max_pool2d", {**attrs, "requires_grad": True}, (x,))
        np.testing.assert_array_equal(saved["argmax"], ref_argmax)
        assert value.tobytes() == ref_value.tobytes()
        value, saved = run_kernel("max_pool2d", {**attrs, "requires_grad": False}, (x,))
        assert saved["argmax"] is None
        assert value.tobytes() == ref_value.tobytes()


class TestBatchNorm:
    def _bn_args(self, channels):
        gamma = Tensor(np.ones(channels), requires_grad=True)
        beta = Tensor(np.zeros(channels), requires_grad=True)
        return gamma, beta, np.zeros(channels), np.ones(channels)

    def test_training_normalizes(self, rng):
        x = Tensor(rng.normal(loc=3.0, scale=2.0, size=(8, 4, 5, 5)))
        gamma, beta, mean, var = self._bn_args(4)
        out = batch_norm(x, gamma, beta, mean, var, training=True)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.data.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_updated(self, rng):
        x = Tensor(rng.normal(loc=5.0, size=(16, 2, 4, 4)))
        gamma, beta, mean, var = self._bn_args(2)
        batch_norm(x, gamma, beta, mean, var, training=True, momentum=1.0)
        np.testing.assert_allclose(mean, x.data.mean(axis=(0, 2, 3)))

    def test_eval_uses_running_stats(self, rng):
        x = Tensor(rng.normal(size=(4, 2, 3, 3)))
        gamma, beta, _, _ = self._bn_args(2)
        running_mean = np.array([1.0, -1.0])
        running_var = np.array([4.0, 9.0])
        out = batch_norm(x, gamma, beta, running_mean, running_var, training=False)
        expected = (x.data - running_mean.reshape(1, 2, 1, 1)) / np.sqrt(
            running_var.reshape(1, 2, 1, 1) + 1e-5
        )
        np.testing.assert_allclose(out.data, expected)

    def test_gradcheck_training_mode(self, rng):
        x = Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, size=2), requires_grad=True)
        beta = Tensor(rng.normal(size=2), requires_grad=True)

        def f():
            return batch_norm(
                x, gamma, beta, np.zeros(2), np.ones(2), training=True
            ).sum()

        # sum() of normalized output is ~0 w.r.t. x; use a weighted sum instead.
        weights = rng.normal(size=(4, 2, 3, 3))

        def g():
            out = batch_norm(x, gamma, beta, np.zeros(2), np.ones(2), training=True)
            return (out * Tensor(weights)).sum()

        check_gradients(g, [x, gamma, beta], atol=1e-4)

    def test_gradcheck_eval_mode(self, rng):
        x = Tensor(rng.normal(size=(3, 2, 2, 2)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, size=2), requires_grad=True)
        beta = Tensor(rng.normal(size=2), requires_grad=True)
        running_mean, running_var = rng.normal(size=2), rng.uniform(0.5, 2.0, size=2)
        check_gradients(
            lambda: batch_norm(
                x, gamma, beta, running_mean, running_var, training=False
            ).sum(),
            [x, gamma, beta],
        )

    def test_3d_input_rejected(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)))
        gamma, beta, mean, var = self._bn_args(3)
        with pytest.raises(ValueError):
            batch_norm(x, gamma, beta, mean, var, training=True)

    @pytest.mark.parametrize("shape", [(6, 4, 1, 1), (5, 4, 3, 3)])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("grad", [True, False])
    def test_bitwise_equal_to_reference(self, rng, shape, training, grad):
        x = rng.normal(loc=1.5, scale=2.0, size=shape)
        gamma, beta = rng.normal(size=4), rng.normal(size=4)
        running_mean, running_var = rng.normal(size=4), rng.uniform(0.5, 2.0, size=4)
        expected, ref_mean, ref_var = reference_batch_norm(
            x, gamma, beta, running_mean, running_var, training
        )
        args = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
        with nullcontext() if grad else no_grad():
            out = batch_norm(*args, running_mean, running_var, training=training)
        assert out.requires_grad is grad
        assert np.array_equal(out.data, expected)
        assert np.array_equal(running_mean, ref_mean)
        assert np.array_equal(running_var, ref_var)

    def test_zero_gamma_silences_channel(self, rng):
        """The structured-pruning mechanism: gamma=beta=0 => channel output 0."""
        x = Tensor(rng.normal(size=(4, 3, 2, 2)))
        gamma = Tensor(np.array([1.0, 0.0, 1.0]))
        beta = Tensor(np.zeros(3))
        out = batch_norm(x, gamma, beta, np.zeros(3), np.ones(3), training=True)
        np.testing.assert_allclose(out.data[:, 1], 0.0)


class TestSoftmaxLosses:
    def test_log_softmax_normalizes(self, rng):
        x = Tensor(rng.normal(size=(5, 7)))
        out = log_softmax(x)
        np.testing.assert_allclose(np.exp(out.data).sum(axis=1), 1.0)

    def test_log_softmax_shift_invariant(self, rng):
        x = rng.normal(size=(2, 4))
        a = log_softmax(Tensor(x)).data
        b = log_softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_log_softmax_grad(self, rng):
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        weights = rng.normal(size=(3, 5))
        check_gradients(lambda: (log_softmax(x) * Tensor(weights)).sum(), [x])

    def test_cross_entropy_matches_manual(self, rng):
        logits = rng.normal(size=(4, 3))
        targets = np.array([0, 2, 1, 1])
        loss = cross_entropy(Tensor(logits), targets)
        log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(4), targets].mean()
        np.testing.assert_allclose(loss.item(), expected, atol=1e-9)

    def test_cross_entropy_grad(self, rng):
        logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        targets = np.array([0, 2, 1, 1])
        check_gradients(lambda: cross_entropy(logits, targets), [logits])

    def test_perfect_prediction_low_loss(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-6

    def test_nll_loss_uniform(self):
        log_probs = Tensor(np.log(np.full((2, 4), 0.25)))
        loss = nll_loss(log_probs, np.array([0, 3]))
        np.testing.assert_allclose(loss.item(), np.log(4.0))
