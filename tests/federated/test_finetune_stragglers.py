"""FedAvg+fine-tune personalization and straggler (system heterogeneity) support."""

import numpy as np
import pytest

from repro.federated import (
    DataConfig,
    FedAvg,
    FedAvgFinetune,
    FederationConfig,
    LocalTrainConfig,
    StragglerModel,
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


class TestStragglers:
    def test_budget_assignment_in_range(self):
        model = StragglerModel(num_clients=50, min_epochs=1, max_epochs=4, seed=0)
        budgets = [model.epochs_for(i) for i in range(50)]
        assert min(budgets) >= 1 and max(budgets) <= 4
        assert len(set(budgets)) > 1  # actually heterogeneous

    def test_deterministic(self):
        a = StragglerModel(10, seed=3)
        b = StragglerModel(10, seed=3)
        assert [a.epochs_for(i) for i in range(10)] == [
            b.epochs_for(i) for i in range(10)
        ]

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            StragglerModel(4, min_epochs=3, max_epochs=2)
        with pytest.raises(ValueError):
            StragglerModel(4, min_epochs=0, max_epochs=2)

    def test_fedavg_with_stragglers_runs(self):
        config = make_config()
        clients = make_clients(config)
        trainer = FedAvg(
            clients, model_factory(config), rounds=2, sample_fraction=1.0,
            seed=0, stragglers=StragglerModel(6, min_epochs=1, max_epochs=3, seed=1),
        )
        history = trainer.run()
        assert len(history.rounds) == 2

    def test_straggler_budget_changes_outcome(self):
        """One-epoch stragglers must train differently from five-epoch clients."""
        outcomes = {}
        for name, stragglers in (
            ("uniform5", None),
            ("straggling", StragglerModel(6, min_epochs=1, max_epochs=1, seed=0)),
        ):
            config = make_config(local=LocalTrainConfig(epochs=5, batch_size=10))
            clients = make_clients(config)
            trainer = FedAvg(
                clients, model_factory(config), rounds=1, sample_fraction=1.0,
                seed=0, stragglers=stragglers,
            )
            trainer.run()
            outcomes[name] = trainer.global_state["conv1.weight"]
        assert not np.allclose(outcomes["uniform5"], outcomes["straggling"])
