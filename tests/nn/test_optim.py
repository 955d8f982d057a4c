"""Optimizer semantics: update math, momentum and masking."""

import numpy as np
import pytest

from repro import nn
from repro.nn.module import Parameter
from repro.optim import SGD
from repro.tensor import Tensor


def make_param(value):
    param = Parameter(np.array(value, dtype=np.float64))
    param.grad = np.ones_like(param.data)
    return param


class TestSGD:
    def test_vanilla_step(self):
        param = make_param([1.0, 2.0])
        SGD([("p", param)], lr=0.1).step()
        np.testing.assert_allclose(param.data, [0.9, 1.9])

    def test_momentum_accumulates(self):
        param = make_param([0.0])
        optimizer = SGD([("p", param)], lr=1.0, momentum=0.5)
        optimizer.step()  # v=1, p=-1
        param.grad = np.ones(1)
        optimizer.step()  # v=1.5, p=-2.5
        np.testing.assert_allclose(param.data, [-2.5])

    def test_weight_decay(self):
        param = make_param([2.0])
        param.grad = np.zeros(1)
        SGD([("p", param)], lr=0.1, weight_decay=0.5).step()
        np.testing.assert_allclose(param.data, [2.0 - 0.1 * 0.5 * 2.0])

    def test_skips_parameters_without_grad(self):
        param = Parameter(np.array([1.0]))
        SGD([("p", param)], lr=0.1).step()
        np.testing.assert_allclose(param.data, [1.0])

    def test_masked_coordinates_frozen(self):
        param = make_param([1.0, 1.0])
        param.data[1] = 0.0
        optimizer = SGD([("p", param)], lr=0.1, momentum=0.9)
        optimizer.set_masks({"p": np.array([1.0, 0.0])})
        for _ in range(3):
            param.grad = np.ones(2)
            optimizer.step()
        assert param.data[1] == 0.0
        assert param.data[0] < 1.0

    def test_set_masks_zeroes_existing_velocity(self):
        param = make_param([1.0, 1.0])
        optimizer = SGD([("p", param)], lr=0.1, momentum=0.9)
        optimizer.step()
        optimizer.set_masks({"p": np.array([1.0, 0.0])})
        assert optimizer._velocity["p"][1] == 0.0

    def test_mask_clearing(self):
        param = make_param([1.0])
        optimizer = SGD([("p", param)], lr=0.1)
        optimizer.set_masks({"p": np.array([0.0])})
        optimizer.set_masks(None)
        param.grad = np.ones(1)
        optimizer.step()
        assert param.data[0] != 1.0

    def test_zero_grad(self):
        param = make_param([1.0])
        optimizer = SGD([("p", param)], lr=0.1)
        optimizer.zero_grad()
        assert param.grad is None

    def test_invalid_hyperparams_raise(self):
        param = make_param([1.0])
        with pytest.raises(ValueError):
            SGD([("p", param)], lr=0.0)
        with pytest.raises(ValueError):
            SGD([("p", param)], lr=0.1, momentum=-1.0)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_rejects_non_parameter(self):
        with pytest.raises(TypeError):
            SGD([np.zeros(3)], lr=0.1)


class TestTrainingIntegration:
    def test_linear_regression_converges(self, rng):
        """End-to-end: SGD on a linear model recovers planted weights."""
        true_w = np.array([[2.0, -1.0]])
        x = rng.normal(size=(100, 2))
        y = x @ true_w.T
        layer = nn.Linear(2, 1, rng=rng)
        optimizer = SGD(list(layer.named_parameters()), lr=0.1, momentum=0.5)
        for _ in range(100):
            optimizer.zero_grad()
            pred = layer(Tensor(x))
            loss = ((pred - y) * (pred - y)).mean()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(layer.weight.data, true_w, atol=0.05)
