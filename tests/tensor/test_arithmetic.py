"""Arithmetic ops: values, gradients and broadcasting."""

import numpy as np
import pytest

from repro.tensor import Tensor, check_gradients, unbroadcast


class TestElementwise:
    def test_add_values(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_add_scalar_promotes(self):
        out = Tensor([1.0, 2.0]) + 5
        np.testing.assert_allclose(out.data, [6.0, 7.0])

    def test_radd(self):
        out = 5 + Tensor([1.0])
        np.testing.assert_allclose(out.data, [6.0])

    def test_sub_and_rsub(self):
        a = Tensor([3.0])
        np.testing.assert_allclose((a - 1).data, [2.0])
        np.testing.assert_allclose((1 - a).data, [-2.0])

    def test_mul_grad(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [4.0, 5.0])
        np.testing.assert_allclose(b.grad, [2.0, 3.0])

    def test_neg(self):
        a = Tensor([1.0, -2.0], requires_grad=True)
        (-a).sum().backward()
        np.testing.assert_allclose(a.grad, [-1.0, -1.0])

    def test_gradient_accumulates_across_uses(self):
        a = Tensor([2.0], requires_grad=True)
        out = a * a  # a appears twice
        out.backward(np.array([1.0]))
        np.testing.assert_allclose(a.grad, [4.0])

    def test_relu_grad(self, rng):
        a = Tensor(rng.normal(size=(6,)) + 0.1, requires_grad=True)
        check_gradients(lambda: a.relu().sum(), [a])


class TestBroadcasting:
    def test_add_broadcast_grad_shapes(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((3,)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3,)
        np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])

    def test_mul_broadcast_numeric(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        check_gradients(lambda: (a * b).sum(), [a, b])

    def test_unbroadcast_sums_added_axes(self):
        grad = np.ones((4, 2, 3))
        out = unbroadcast(grad, (2, 3))
        np.testing.assert_allclose(out, np.full((2, 3), 4.0))

    def test_unbroadcast_sums_size_one_axes(self):
        grad = np.ones((2, 3))
        out = unbroadcast(grad, (2, 1))
        np.testing.assert_allclose(out, np.full((2, 1), 3.0))

    def test_unbroadcast_noop_when_same_shape(self):
        grad = np.ones((2, 2))
        assert unbroadcast(grad, (2, 2)) is grad


class TestMatmul:
    def test_matmul_value(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
        out = Tensor(a) @ Tensor(b)
        np.testing.assert_allclose(out.data, a @ b)

    def test_matmul_grad(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_batched_matmul_grad(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
        check_gradients(lambda: (a @ b).sum(), [a, b])


class TestBackwardProtocol:
    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_on_non_scalar_needs_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_backward_with_mismatched_grad_shape(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = a * 2
        with pytest.raises(ValueError):
            out.backward(np.ones((3,)))

    def test_diamond_graph_accumulation(self):
        a = Tensor([1.0], requires_grad=True)
        b = a * 2
        c = a * 3
        (b + c).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0])

    def test_zero_grad_clears(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_detach_leaves_graph(self):
        a = Tensor([1.0], requires_grad=True)
        d = a.detach()
        assert not d.requires_grad
        assert d.data is a.data

    def test_item_and_len_and_repr(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        assert len(a) == 1
        assert "requires_grad=True" in repr(a)
        assert Tensor([3.5]).item() == 3.5
