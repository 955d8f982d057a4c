"""End-to-end trainer behaviour at miniature scale."""

import numpy as np
import pytest

from repro.federated import (
    DataConfig,
    FederationConfig,
    History,
    LocalTrainConfig,
    build_trainer,
    make_clients,
)
from repro.federated.accounting import closed_form_cost
from repro.pruning import StructuredConfig, UnstructuredConfig

FAST = dict(
    num_clients=4,
    rounds=2,
    sample_fraction=0.5,
    data=DataConfig(n_train=160, n_test=80),
    seed=0,
    local=LocalTrainConfig(epochs=1, batch_size=10),
)


def run(algorithm, **overrides):
    kwargs = dict(FAST, dataset="mnist", algorithm=algorithm)
    kwargs.update(overrides)
    config = FederationConfig(**kwargs)
    trainer = build_trainer(config, make_clients(config))
    return trainer, trainer.run()


class TestRunProtocol:
    @pytest.mark.parametrize(
        "algorithm",
        ["standalone", "fedavg", "fedprox", "lg-fedavg", "mtl", "sub-fedavg-un", "sub-fedavg-hy"],
    )
    def test_every_algorithm_completes(self, algorithm):
        _, history = run(algorithm)
        assert isinstance(history, History)
        assert len(history.rounds) == 2
        assert 0.0 <= history.final_accuracy <= 1.0
        assert len(history.final_per_client_accuracy) == 4

    def test_round_records_populated(self):
        _, history = run("fedavg")
        for record in history.rounds:
            assert record.round_index >= 1
            assert len(record.sampled_clients) == 2
            assert record.train_loss > 0

    def test_eval_every_populates_curve(self):
        _, history = run("fedavg", eval_every=1)
        assert len(history.accuracy_curve()) == 2

    def test_determinism(self):
        _, a = run("sub-fedavg-un")
        _, b = run("sub-fedavg-un")
        assert a.final_accuracy == b.final_accuracy
        assert a.total_communication_bytes == b.total_communication_bytes


class TestCommunicationAccounting:
    def test_fedavg_matches_closed_form(self):
        trainer, history = run("fedavg")
        expected = closed_form_cost(
            rounds=2, params_per_round=trainer.total_params, clients_per_round=2
        )
        assert history.total_communication_bytes == expected

    def test_standalone_costs_nothing(self):
        _, history = run("standalone")
        assert history.total_communication_bytes == 0.0

    def test_lg_fedavg_cheaper_than_fedavg(self):
        _, lg = run("lg-fedavg")
        _, fedavg = run("fedavg")
        assert lg.total_communication_bytes < fedavg.total_communication_bytes

    def test_subfedavg_cost_decreases_as_pruning_bites(self):
        config = UnstructuredConfig(target_rate=0.7, step=0.35, epsilon=0.0, acc_threshold=0.0)
        _, history = run("sub-fedavg-un", rounds=4, unstructured=config)
        first, last = history.rounds[0], history.rounds[-1]
        assert last.uploaded_bytes < first.uploaded_bytes


class TestSubFedAvgMechanics:
    def test_sparsity_reaches_target_with_permissive_gates(self):
        config = UnstructuredConfig(target_rate=0.5, step=0.25, epsilon=0.0, acc_threshold=0.0)
        trainer, history = run("sub-fedavg-un", rounds=3, sample_fraction=1.0, unstructured=config)
        assert trainer.mean_unstructured_sparsity() == pytest.approx(0.5, abs=0.01)

    def test_round_records_sparsity(self):
        config = UnstructuredConfig(target_rate=0.5, step=0.5, epsilon=0.0, acc_threshold=0.0)
        _, history = run("sub-fedavg-un", unstructured=config)
        assert history.rounds[-1].mean_sparsity > 0.0

    def test_hybrid_tracks_channel_sparsity(self):
        st = StructuredConfig(target_rate=0.4, step=0.4, epsilon=0.0, acc_threshold=0.0)
        un = UnstructuredConfig(target_rate=0.5, step=0.5, epsilon=0.0, acc_threshold=0.0)
        trainer, history = run(
            "sub-fedavg-hy", sample_fraction=1.0, structured=st, unstructured=un
        )
        assert trainer.mean_channel_sparsity() > 0.0

    def test_masks_differ_across_clients(self):
        """Non-IID data should personalize the subnetworks."""
        config = UnstructuredConfig(target_rate=0.5, step=0.5, epsilon=0.0, acc_threshold=0.0)
        trainer, _ = run("sub-fedavg-un", sample_fraction=1.0, unstructured=config)
        from repro.pruning import hamming_distance

        masks = [client.mask for client in trainer.clients]
        distances = [
            hamming_distance(masks[i], masks[j])
            for i in range(len(masks))
            for j in range(i + 1, len(masks))
        ]
        assert max(distances) > 0.0


class TestBuilder:
    def test_unknown_algorithm_raises(self):
        with pytest.raises(KeyError):
            FederationConfig(dataset="mnist", algorithm="bogus", **FAST)

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            FederationConfig(dataset="svhn")

    def test_fedprox_gets_default_mu(self):
        config = FederationConfig(
            dataset="mnist", algorithm="fedprox", num_clients=4,
            data=DataConfig(n_train=160, n_test=40), local=LocalTrainConfig(epochs=1),
        )
        clients = make_clients(config)
        assert all(client.config.prox_mu > 0 for client in clients)

    def test_mtl_gets_default_lambda(self):
        config = FederationConfig(
            dataset="mnist", algorithm="mtl", num_clients=4,
            data=DataConfig(n_train=160, n_test=40), local=LocalTrainConfig(epochs=1),
        )
        clients = make_clients(config)
        assert all(client.config.mtl_lambda > 0 for client in clients)

    def test_build_trainer_type_dispatch(self):
        from repro.federated import SubFedAvgHy

        config = FederationConfig(
            dataset="mnist", algorithm="sub-fedavg-hy", num_clients=4,
            data=DataConfig(n_train=160, n_test=40), local=LocalTrainConfig(epochs=1),
        )
        trainer = build_trainer(config, make_clients(config))
        assert isinstance(trainer, SubFedAvgHy)

    def test_all_clients_start_from_same_weights(self):
        config = FederationConfig(
            dataset="mnist", algorithm="fedavg", num_clients=3,
            data=DataConfig(n_train=120, n_test=40), local=LocalTrainConfig(epochs=1),
        )
        clients = make_clients(config)
        reference = clients[0].state_dict()
        for client in clients[1:]:
            for name, value in client.state_dict().items():
                np.testing.assert_array_equal(value, reference[name])

    def test_invalid_rounds(self):
        from repro.federated.trainers.base import FederatedTrainer

        config = FederationConfig(
            dataset="mnist", algorithm="fedavg", num_clients=2,
            data=DataConfig(n_train=80, n_test=40), local=LocalTrainConfig(epochs=1),
        )
        clients = make_clients(config)
        from repro.federated import FedAvg
        from repro.federated.builder import model_factory

        with pytest.raises(ValueError):
            FedAvg(clients, model_factory(config), rounds=0)
