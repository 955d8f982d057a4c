"""FederatedClient behaviour and client sampling."""

import re

import numpy as np
import pytest

from repro.data import ArrayDataset, Subset
from repro.data.partition import ClientData
from repro.federated import ClientSampler, FederatedClient, FixedSampler, LocalTrainConfig
from repro.models import MLP
from repro.pruning import PruningController, UnstructuredConfig


def make_client(rng, epochs=2, config_kwargs=None, count=40):
    images = rng.normal(size=(count, 1, 4, 4))
    labels = rng.integers(0, 2, size=count)
    images[labels == 0, 0, 0, :] += 2.5
    images[labels == 1, 0, 2, :] += 2.5
    dataset = ArrayDataset(images, labels)
    indices = np.arange(count)
    data = ClientData(
        client_id=0,
        train=Subset(dataset, indices[: count - 10]),
        val=Subset(dataset, indices[count - 10 : count - 5]),
        test=Subset(dataset, indices[count - 5 :]),
        labels=np.array([0, 1]),
    )
    kwargs = dict(lr=0.1, momentum=0.5, epochs=epochs, batch_size=8)
    kwargs.update(config_kwargs or {})
    model_fn = lambda: MLP(16, 2, hidden=(8,), rng=np.random.default_rng(7))
    return FederatedClient(data, model_fn, LocalTrainConfig(**kwargs))


class TestLocalTraining:
    def test_loss_decreases(self, rng):
        client = make_client(rng, epochs=1)
        first = client.train_local().mean_loss
        for _ in range(4):
            last = client.train_local().mean_loss
        assert last < first

    def test_result_counts_examples(self, rng):
        """num_examples reflects the work actually done: epochs × dataset."""
        client = make_client(rng)  # configured for 2 local epochs
        result = client.train_local()
        assert result.num_examples == 2 * len(client.data.train)
        assert client.train_local(epochs=1).num_examples == len(client.data.train)
        assert client.train_local(epochs=0).num_examples == 0

    def test_learns_separable_task(self, rng):
        client = make_client(rng, epochs=10)
        client.train_local()
        assert client.test_accuracy() >= 0.6

    def test_evaluate_empty_dataset(self, rng):
        client = make_client(rng)
        empty = Subset(client.data.train.base, [])
        assert client.evaluate(empty) == 0.0

    def test_load_global_roundtrip(self, rng):
        client = make_client(rng)
        state = client.state_dict()
        client.train_local()
        client.load_global(state)
        for name, value in client.state_dict().items():
            np.testing.assert_array_equal(value, state[name])

    def test_load_partial_updates_named_only(self, rng):
        client = make_client(rng)
        original = client.state_dict()
        incoming = {k: v + 1.0 for k, v in original.items()}
        client.load_partial(incoming, ["fc1.weight"])
        state = client.state_dict()
        np.testing.assert_array_equal(state["fc1.weight"], incoming["fc1.weight"])
        np.testing.assert_array_equal(state["fc2.weight"], original["fc2.weight"])

    def test_anchor_pulls_weights(self, rng):
        """With a strong proximal coefficient, weights stay near the anchor.

        The coefficient must keep lr*mu < 1 or the proximal step itself
        diverges; 1.0 with lr 0.1 gives a stable contraction.
        """
        free = make_client(rng, epochs=3)
        anchored = make_client(rng, epochs=3, config_kwargs={"prox_mu": 1.0})
        anchor = anchored.state_dict()
        anchored.set_anchor(anchor)
        free_start = free.state_dict()
        free.train_local()
        anchored.train_local()
        free_drift = sum(
            np.abs(v - free_start[k]).sum() for k, v in free.state_dict().items()
        )
        anchored_drift = sum(
            np.abs(v - anchor[k]).sum() for k, v in anchored.state_dict().items()
        )
        assert anchored_drift < free_drift

    def test_invalid_epochs_config(self):
        with pytest.raises(ValueError):
            LocalTrainConfig(epochs=0)

    @pytest.mark.parametrize(
        "field, value, rule",
        [
            ("weight_decay", -0.5, ">= 0"),
            ("prox_mu", -0.5, ">= 0"),
            ("mtl_lambda", -0.5, ">= 0"),
            ("momentum", -0.5, ">= 0"),
            ("lr", 0.0, "> 0"),
            ("lr", -1, "> 0"),
            ("batch_size", 0, ">= 1"),
        ],
        ids=["weight_decay", "prox_mu", "mtl_lambda", "momentum", "lr=0", "lr=-1",
             "batch_size"],
    )
    def test_negative_coefficient_rejected(self, field, value, rule):
        message = re.escape(f"{field} must be {rule}, got {value}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            LocalTrainConfig(**{field: value})


class TestClientPruning:
    def test_mask_respected_during_training(self, rng):
        client = make_client(rng, epochs=2)
        controller = PruningController(
            client.model,
            unstructured=UnstructuredConfig(target_rate=0.5, step=0.5, epsilon=0.0),
        )
        client.attach_controller(controller)
        client.train_local()  # commits a mask
        assert client.controller.unstructured_sparsity() > 0.0
        mask = client.mask
        client.train_local()  # trains under the committed mask
        for name in mask.names():
            pruned = mask[name] == 0
            values = client.state_dict()[name][pruned]
            np.testing.assert_allclose(values, 0.0)

    def test_val_accuracy_reported(self, rng):
        client = make_client(rng)
        controller = PruningController(
            client.model, unstructured=UnstructuredConfig()
        )
        client.attach_controller(controller)
        result = client.train_local()
        assert result.val_accuracy is not None

    def test_foreign_controller_rejected(self, rng):
        client = make_client(rng)
        other_model = MLP(16, 2, hidden=(8,), rng=rng)
        controller = PruningController(
            other_model, unstructured=UnstructuredConfig()
        )
        with pytest.raises(ValueError):
            client.attach_controller(controller)

    def test_mask_none_without_controller(self, rng):
        assert make_client(rng).mask is None


class TestSamplers:
    def test_sample_size(self):
        sampler = ClientSampler(100, sample_fraction=0.1, seed=0)
        assert sampler.clients_per_round == 10
        assert len(sampler.sample()) == 10

    def test_at_least_one_client(self):
        sampler = ClientSampler(5, sample_fraction=0.01, seed=0)
        assert sampler.clients_per_round == 1

    def test_no_replacement(self):
        sampler = ClientSampler(20, sample_fraction=0.5, seed=0)
        sample = sampler.sample()
        assert len(sample) == len(set(sample))

    def test_deterministic_given_seed(self):
        a = ClientSampler(50, 0.2, seed=3).sample()
        b = ClientSampler(50, 0.2, seed=3).sample()
        assert a == b

    def test_varies_across_rounds(self):
        sampler = ClientSampler(100, 0.1, seed=0)
        assert sampler.sample() != sampler.sample()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ClientSampler(0)
        with pytest.raises(ValueError):
            ClientSampler(10, sample_fraction=0.0)
        with pytest.raises(ValueError):
            ClientSampler(10, sample_fraction=1.5)

    def test_fixed_sampler(self):
        sampler = FixedSampler([3, 1, 4])
        assert sampler.sample() == [1, 3, 4]
        assert sampler.clients_per_round == 3

    def test_fixed_sampler_empty_raises(self):
        with pytest.raises(ValueError):
            FixedSampler([])
