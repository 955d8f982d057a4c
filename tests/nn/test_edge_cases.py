"""Edge cases and failure injection across the nn/data substrate."""

import numpy as np
import pytest

from repro import nn
from repro.data import ArrayDataset, DataLoader, Subset
from repro.tensor import Tensor, batch_norm, conv2d, cross_entropy


class TestBatchNormEdgeCases:
    def test_batch_size_one_does_not_crash(self, rng):
        """count == 1 must not divide by zero in the unbiased-variance EMA."""
        layer = nn.BatchNorm2d(3)
        out = layer(Tensor(rng.normal(size=(1, 3, 1, 1))))
        assert np.isfinite(out.data).all()
        assert np.isfinite(layer.running_var).all()

    def test_constant_input_stable(self):
        layer = nn.BatchNorm2d(2)
        x = Tensor(np.full((4, 2, 3, 3), 5.0))
        out = layer(x)
        # Zero variance: output should be ~0, not NaN.
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, 0.0, atol=1e-2)

    def test_eval_before_any_training_uses_init_stats(self, rng):
        layer = nn.BatchNorm2d(2)
        layer.eval()
        x = rng.normal(size=(4, 2, 3, 3))
        out = layer(Tensor(x))
        expected = x / np.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(out.data, expected, atol=1e-6)


class TestConvEdgeCases:
    def test_batch_of_one(self, rng):
        out = conv2d(
            Tensor(rng.normal(size=(1, 1, 5, 5))),
            Tensor(rng.normal(size=(2, 1, 3, 3))),
            None,
        )
        assert out.shape == (1, 2, 3, 3)

    def test_1x1_kernel(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        w = rng.normal(size=(5, 3, 1, 1))
        out = conv2d(Tensor(x), Tensor(w), None)
        expected = np.einsum("nchw,fc->nfhw", x, w[:, :, 0, 0])
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_kernel_equals_input(self, rng):
        x = rng.normal(size=(1, 2, 3, 3))
        w = rng.normal(size=(4, 2, 3, 3))
        out = conv2d(Tensor(x), Tensor(w), None)
        assert out.shape == (1, 4, 1, 1)


class TestLossEdgeCases:
    def test_single_example(self, rng):
        loss = cross_entropy(Tensor(rng.normal(size=(1, 4)), requires_grad=True),
                             np.array([2]))
        assert loss.size == 1

    def test_single_class_logits(self):
        loss = cross_entropy(Tensor(np.zeros((3, 1))), np.array([0, 0, 0]))
        np.testing.assert_allclose(loss.item(), 0.0, atol=1e-12)

    def test_extreme_logits_finite(self):
        logits = Tensor(np.array([[1000.0, -1000.0]]), requires_grad=True)
        loss = cross_entropy(logits, np.array([1]))
        assert np.isfinite(loss.item())
        loss.backward()
        assert np.isfinite(logits.grad).all()


class TestDataEdgeCases:
    def test_empty_subset_loader(self):
        dataset = ArrayDataset(np.zeros((4, 1, 2, 2)), np.zeros(4))
        empty = Subset(dataset, [])
        loader = DataLoader(empty, batch_size=2)
        assert len(loader) == 0
        assert list(loader) == []

    def test_batch_larger_than_dataset(self):
        dataset = ArrayDataset(np.zeros((3, 1, 2, 2)), np.arange(3))
        loader = DataLoader(dataset, batch_size=10, shuffle=False)
        batches = list(loader)
        assert len(batches) == 1
        assert len(batches[0][1]) == 3

    def test_single_example_dataset(self):
        dataset = ArrayDataset(np.zeros((1, 1, 2, 2)), np.zeros(1))
        loader = DataLoader(dataset, batch_size=1)
        assert len(list(loader)) == 1


class TestModuleEdgeCases:
    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            nn.Module()(Tensor(np.zeros(1)))

    def test_empty_sequential(self, rng):
        model = nn.Sequential()
        x = Tensor(rng.normal(size=(2, 3)))
        assert model(x) is x

    def test_deep_nesting_state_dict(self, rng):
        inner = nn.Sequential(nn.Linear(2, 2, rng=rng))
        outer = nn.Sequential(inner, nn.Linear(2, 1, rng=rng))
        state = outer.state_dict()
        assert "0.0.weight" in state
        outer.load_state_dict(state)
