"""Layer behaviour: shapes, modes, initialization and containers."""

import math

import numpy as np
import pytest

from repro import nn
from repro.nn import init
from repro.tensor import Tensor, check_gradients


class TestLinear:
    def test_output_shape(self, rng):
        layer = nn.Linear(8, 3, rng=rng)
        out = layer(Tensor(rng.normal(size=(5, 8))))
        assert out.shape == (5, 3)

    def test_no_bias(self, rng):
        layer = nn.Linear(4, 2, bias=False, rng=rng)
        assert layer.bias is None
        assert [n for n, _ in layer.named_parameters()] == ["weight"]

    def test_affine_correctness(self, rng):
        layer = nn.Linear(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)

    def test_gradcheck_through_layer(self, rng):
        layer = nn.Linear(3, 2, rng=rng)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        check_gradients(lambda: layer(x).sum(), [x, layer.weight, layer.bias])


class TestConvLayer:
    def test_shape_with_padding(self, rng):
        layer = nn.Conv2d(3, 8, kernel_size=3, padding=1, rng=rng)
        out = layer(Tensor(rng.normal(size=(2, 3, 10, 10))))
        assert out.shape == (2, 8, 10, 10)

    def test_shape_valid_conv(self, rng):
        layer = nn.Conv2d(1, 4, kernel_size=5, rng=rng)
        out = layer(Tensor(rng.normal(size=(1, 1, 28, 28))))
        assert out.shape == (1, 4, 24, 24)

    def test_parameter_count(self, rng):
        layer = nn.Conv2d(3, 6, kernel_size=5, rng=rng)
        assert layer.num_parameters() == 6 * 3 * 25 + 6


class TestBatchNormLayers:
    def test_train_mode_uses_batch_stats(self, rng):
        layer = nn.BatchNorm2d(4)
        x = Tensor(rng.normal(loc=10.0, size=(8, 4, 3, 3)))
        out = layer(x)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-8)

    def test_eval_mode_uses_running_stats(self, rng):
        layer = nn.BatchNorm2d(2)
        x = Tensor(rng.normal(loc=3.0, size=(32, 2, 4, 4)))
        for _ in range(50):
            layer(x)  # accumulate running stats
        layer.eval()
        out = layer(x)
        # After convergence of the EMA, eval output ~ train output.
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=0.05)

    def test_running_stats_are_buffers(self):
        layer = nn.BatchNorm2d(3)
        state = layer.state_dict()
        assert "running_mean" in state and "running_var" in state


class TestContainers:
    def test_sequential_order_and_len(self, rng):
        model = nn.Sequential(nn.Linear(4, 8, rng=rng), nn.ReLU(), nn.Linear(8, 2, rng=rng))
        assert len(model) == 3
        assert isinstance(model[1], nn.ReLU)
        out = model(Tensor(rng.normal(size=(3, 4))))
        assert out.shape == (3, 2)

    def test_flatten(self, rng):
        out = nn.Flatten()(Tensor(rng.normal(size=(2, 3, 4, 4))))
        assert out.shape == (2, 48)

    def test_relu(self):
        x = Tensor(np.array([-1.0, 2.0]))
        np.testing.assert_allclose(nn.ReLU()(x).data, [0.0, 2.0])

    def test_sequential_parameters_flow(self, rng):
        model = nn.Sequential(nn.Linear(4, 4, rng=rng), nn.Linear(4, 2, rng=rng))
        assert len(list(model.parameters())) == 4


class TestInit:
    def test_kaiming_bound(self, rng):
        shape = (64, 32)
        weights = init.kaiming_uniform(shape, rng)
        gain = math.sqrt(2.0 / (1.0 + 5.0))
        bound = gain * math.sqrt(3.0 / 32)
        assert np.abs(weights).max() <= bound

    def test_conv_fan_in(self, rng):
        weights = init.kaiming_uniform((8, 4, 3, 3), rng)
        assert weights.shape == (8, 4, 3, 3)

    def test_xavier_bound(self, rng):
        shape = (10, 20)
        weights = init.xavier_uniform(shape, rng)
        bound = math.sqrt(6.0 / 30)
        assert np.abs(weights).max() <= bound

    def test_bias_uniform_shape(self, rng):
        bias = init.bias_uniform((6, 3, 5, 5), rng)
        assert bias.shape == (6,)
        assert np.abs(bias).max() <= 1.0 / math.sqrt(75)

    def test_bad_shape_raises(self, rng):
        with pytest.raises(ValueError):
            init.kaiming_uniform((3,), rng)

    def test_determinism_given_seed(self):
        a = init.kaiming_uniform((4, 4), np.random.default_rng(7))
        b = init.kaiming_uniform((4, 4), np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


class TestLosses:
    def test_cross_entropy_module(self, rng):
        loss = nn.CrossEntropyLoss()(
            Tensor(rng.normal(size=(4, 3)), requires_grad=True), np.array([0, 1, 2, 0])
        )
        assert loss.size == 1
