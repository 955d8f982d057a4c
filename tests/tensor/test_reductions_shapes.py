"""Reductions, reshaping, indexing and constructors: values and gradients."""

import numpy as np

from repro.tensor import Tensor, check_gradients, ones, zeros


class TestReductions:
    def test_sum_all(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        check_gradients(lambda: a.sum(), [a])

    def test_sum_axis(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        check_gradients(lambda: a.sum(axis=0).sum(), [a])
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (3, 1)

    def test_sum_negative_axis(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        check_gradients(lambda: a.sum(axis=-1).sum(), [a])

    def test_sum_tuple_axis(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        check_gradients(lambda: a.sum(axis=(0, 2)).sum(), [a])

    def test_mean_value_and_grad(self, rng):
        a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        np.testing.assert_allclose(a.mean().item(), a.data.mean())
        check_gradients(lambda: a.mean(), [a])

    def test_mean_axis_count(self, rng):
        a = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        np.testing.assert_allclose(a.mean(axis=1).data, a.data.mean(axis=1))
        check_gradients(lambda: a.mean(axis=1).sum(), [a])


class TestShapes:
    def test_reshape_grad(self, rng):
        a = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        check_gradients(lambda: a.reshape(3, 4).sum(), [a])

    def test_reshape_tuple_arg(self, rng):
        a = Tensor(rng.normal(size=(2, 6)))
        assert a.reshape((4, 3)).shape == (4, 3)

    def test_flatten_batch(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        out = a.flatten_batch()
        assert out.shape == (2, 48)
        check_gradients(lambda: a.flatten_batch().sum(), [a])

    def test_transpose_default_reverses(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)))
        assert a.transpose().shape == (4, 3, 2)

    def test_transpose_grad(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        check_gradients(lambda: (a.transpose() * 2).sum(), [a])

    def test_getitem_grad_scatter(self):
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        a[1].backward(np.array(1.0).reshape(()))
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])

    def test_getitem_slice(self, rng):
        a = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        check_gradients(lambda: a[1:4].sum(), [a])


class TestConstructors:
    def test_zeros_ones(self):
        assert zeros((2, 2)).data.sum() == 0.0
        assert ones((2, 2)).data.sum() == 4.0
