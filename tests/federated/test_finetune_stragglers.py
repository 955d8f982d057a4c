"""FedAvg+fine-tune personalization."""

import pytest

from repro.federated import (
    DataConfig,
    FedAvg,
    FedAvgFinetune,
    FederationConfig,
    LocalTrainConfig,
    make_clients,
)
from repro.federated.builder import model_factory


def make_config(**overrides):
    defaults = dict(
        dataset="mnist", algorithm="fedavg", num_clients=6,
        data=DataConfig(n_train=240, n_test=120), seed=0,
        local=LocalTrainConfig(epochs=2, batch_size=10),
    )
    defaults.update(overrides)
    return FederationConfig(**defaults)


class TestFedAvgFinetune:
    def test_runs_and_reports(self):
        config = make_config()
        clients = make_clients(config)
        trainer = FedAvgFinetune(
            clients, model_factory(config), rounds=2, sample_fraction=0.5,
            seed=0, finetune_epochs=2,
        )
        history = trainer.run()
        assert 0.0 <= history.final_accuracy <= 1.0

    def test_finetune_beats_plain_fedavg_under_noniid(self):
        """The two-step recipe personalizes, so it must improve on raw FedAvg."""
        results = {}
        for cls, extra in ((FedAvg, {}), (FedAvgFinetune, {"finetune_epochs": 3})):
            config = make_config()
            clients = make_clients(config)
            trainer = cls(
                clients, model_factory(config), rounds=2, sample_fraction=1.0,
                seed=0, **extra,
            )
            results[cls.__name__] = trainer.run().final_accuracy
        assert results["FedAvgFinetune"] >= results["FedAvg"]

    def test_invalid_epochs(self):
        config = make_config()
        clients = make_clients(config)
        with pytest.raises(ValueError):
            FedAvgFinetune(
                clients, model_factory(config), rounds=1, finetune_epochs=0
            )

