"""Paper architectures: shapes, censuses and pruning metadata consistency."""

import numpy as np
import pytest

from repro.data import DATASETS
from repro.federated.evaluation import EVAL_CHUNK
from repro.models import CNN5, LeNet5, MLP, create_model, parameter_census
from repro.models.registry import input_spatial_size
from repro.tensor import Tensor, no_grad


class TestLeNet5:
    def test_forward_shape(self, rng):
        model = LeNet5(num_classes=10, rng=rng)
        out = model(Tensor(rng.normal(size=(4, 3, 32, 32))))
        assert out.shape == (4, 10)

    def test_parameter_count_matches_paper(self, rng):
        """§4.1 quotes ~62k parameters for the CIFAR-10 LeNet-5."""
        model = LeNet5(num_classes=10, rng=rng)
        total = model.num_parameters()
        assert abs(total - 62000) < 1500

    def test_channel_count_matches_paper(self, rng):
        """§4.2.3 speaks of 22 prunable channels (6 + 16)."""
        assert LeNet5(rng=rng).total_channels() == 22

    def test_cifar100_head(self, rng):
        model = LeNet5(num_classes=100, rng=rng)
        out = model(Tensor(rng.normal(size=(2, 3, 32, 32))))
        assert out.shape == (2, 100)


class TestCNN5:
    def test_forward_shape(self, rng):
        model = CNN5(num_classes=10, rng=rng)
        out = model(Tensor(rng.normal(size=(3, 1, 28, 28))))
        assert out.shape == (3, 10)

    def test_channel_count_matches_paper(self, rng):
        """§4.1: "30 channels" = 10 + 20."""
        assert CNN5(rng=rng).total_channels() == 30

    def test_emnist_head(self, rng):
        model = CNN5(num_classes=26, rng=rng)
        out = model(Tensor(rng.normal(size=(2, 1, 28, 28))))
        assert out.shape == (2, 26)


class TestMLP:
    def test_forward_flattens(self, rng):
        model = MLP(16, 3, hidden=(8,), rng=rng)
        out = model(Tensor(rng.normal(size=(5, 1, 4, 4))))
        assert out.shape == (5, 3)

    def test_layer_names(self, rng):
        model = MLP(4, 2, hidden=(8, 8), rng=rng)
        assert model.classifier_names == ["fc1", "fc2", "fc3"]

    def test_no_conv_units(self, rng):
        assert MLP(4, 2, rng=rng).conv_units == []


class TestRegistry:
    @pytest.mark.parametrize(
        "dataset,model_type",
        [("mnist", CNN5), ("emnist", CNN5), ("cifar10", LeNet5), ("cifar100", LeNet5)],
    )
    def test_pairing(self, dataset, model_type):
        assert isinstance(create_model(dataset), model_type)

    def test_seeded_models_identical(self):
        a = create_model("cifar10", seed=11)
        b = create_model("cifar10", seed=11)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seeds_differ(self):
        a = create_model("cifar10", seed=1)
        b = create_model("cifar10", seed=2)
        assert not np.allclose(a.conv1.weight.data, b.conv1.weight.data)

    def test_num_classes_override(self):
        model = create_model("mnist", num_classes=7)
        assert model.num_classes == 7

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            create_model("svhn")

    def test_registered_dataset_without_builder_falls_back_to_mlp(self):
        """Third-party datasets train out of the box on a flattened MLP."""
        from repro.data.registry import DATASETS, register_dataset
        from repro.data.synthetic import DatasetSpec
        from repro.models import MODELS, register_model

        spec = DatasetSpec("odd-shape", (2, 7, 9), 5, signal=1.0, noise=1.0, max_shift=0)
        register_dataset(spec)(lambda s, n_train, n_test, seed: None)
        try:
            fallback = create_model("odd-shape", seed=0)
            assert isinstance(fallback, MLP)
            assert fallback.num_classes == 5

            @register_model("odd-shape")
            def build(num_classes, in_channels, rng):
                return MLP(2 * 7 * 9, num_classes, hidden=(4,), rng=rng)

            registered = create_model("odd-shape", seed=0)
            assert isinstance(registered, MLP)
            # Teardown restores the fallback path.
            assert MODELS.unregister("odd-shape") is build
            assert isinstance(create_model("odd-shape", seed=0), MLP)
        finally:
            DATASETS.unregister("odd-shape")
        with pytest.raises(KeyError, match="model 'odd-shape' is not registered"):
            MODELS.unregister("odd-shape")

    def test_input_spatial_size(self):
        assert input_spatial_size("mnist") == 28
        assert input_spatial_size("cifar10") == 32

    def test_parameter_census_total(self):
        model = create_model("cifar10")
        census = parameter_census(model)
        assert census["total"] == model.num_parameters()
        assert census["conv1.weight"] == 6 * 3 * 25


class TestPruningMetadata:
    """The model metadata must be internally consistent for pruning to work."""

    @pytest.mark.parametrize("dataset", ["mnist", "cifar10"])
    def test_conv_units_reference_real_modules(self, dataset):
        model = create_model(dataset)
        modules = dict(model.named_modules())
        for unit in model.conv_units:
            assert unit.conv in modules
            assert unit.bn in modules
            if unit.next_conv is not None:
                assert unit.next_conv in modules

    @pytest.mark.parametrize("dataset", ["mnist", "cifar10"])
    def test_bn_width_matches_conv(self, dataset):
        model = create_model(dataset)
        modules = dict(model.named_modules())
        for unit in model.conv_units:
            assert modules[unit.bn].num_features == modules[unit.conv].out_channels

    @pytest.mark.parametrize("dataset", ["mnist", "cifar10"])
    def test_final_unit_spatial_maps_to_fc(self, dataset):
        model = create_model(dataset)
        modules = dict(model.named_modules())
        last = model.conv_units[-1]
        fc = modules[model.first_fc]
        expected = modules[last.conv].out_channels * last.spatial ** 2
        assert fc.in_features == expected

    def test_prunable_names_exist(self):
        model = create_model("cifar10")
        params = dict(model.named_parameters())
        for name in model.prunable_weight_names():
            assert name in params

    def test_fc_weight_names_subset_of_prunable(self):
        model = create_model("mnist")
        assert set(model.fc_weight_names()) <= set(model.prunable_weight_names())


class TestNoGradForward:
    """The inference kernels (no pool argmax, in-place batch norm) must give
    the logits of the recording kernels, bit for bit."""

    @pytest.mark.parametrize("cls,shape", [(LeNet5, (3, 32, 32)), (CNN5, (1, 28, 28))])
    def test_eval_logits_bit_identical(self, rng, cls, shape):
        model = cls(num_classes=10, in_channels=shape[0], rng=rng)
        for name, param in model.named_parameters():
            if name.startswith("bn"):
                param.data = rng.normal(loc=0.5, size=param.shape)
        model(Tensor(rng.normal(size=(8,) + shape)))  # running stats
        model.eval()
        x = Tensor(rng.normal(size=(5,) + shape))
        with no_grad():
            plain = model(x).data
        recorded = model(x)
        assert recorded.requires_grad
        assert plain.tobytes() == recorded.data.tobytes()


class TestRowInvariantInference:
    """An example's eval-mode logits do not depend on the rest of its chunk,
    bit for bit, so ``predict`` may memoize them per example."""

    @pytest.mark.parametrize("dataset", ["mnist", "emnist", "cifar10", "cifar100"])
    def test_subset_logits_equal_full_forward_rows(self, rng, dataset):
        model = create_model(dataset, seed=1)
        for name, buffer in model.named_buffers():
            buffer[...] = rng.uniform(0.5, 1.5, size=buffer.shape)
        images = rng.normal(size=(4 * EVAL_CHUNK,) + DATASETS[dataset].spec.shape)
        model.eval()
        with no_grad():
            full = model(Tensor(images)).data
            for size in list(range(1, EVAL_CHUNK + 1)) * 2:
                rows = rng.choice(len(images), size=size, replace=False)
                chunk = model(Tensor(images[rows])).data
                assert chunk.tobytes() == full[rows].tobytes(), (size, rows)
