"""Integration tests for the paper's headline phenomena at miniature scale.

These are slower (seconds each) and deliberately assert only the robust
qualitative shape — orderings, correlations — not absolute accuracies.
"""

import numpy as np
import pytest

from repro.data.partition import label_overlap
from repro.federated import (
    DataConfig,
    FederationConfig,
    LocalTrainConfig,
    build_trainer,
    make_clients,
)
from repro.pruning import UnstructuredConfig, hamming_distance


def run_federation(algorithm, seed=11, rounds=5, **extra):
    config = FederationConfig(
        dataset="mnist",
        algorithm=algorithm,
        num_clients=8,
        rounds=rounds,
        sample_fraction=1.0,
        data=DataConfig(n_train=480, n_test=240),
        seed=seed,
        local=LocalTrainConfig(epochs=3, batch_size=10),
        **extra,
    )
    clients = make_clients(config)
    trainer = build_trainer(config, clients)
    history = trainer.run()
    return trainer, clients, history


class TestRemark2:
    """Under 2-shard non-IID, personalization restores the value of federation."""

    @pytest.fixture(scope="class")
    def results(self):
        _, _, standalone = run_federation("standalone")
        _, _, fedavg = run_federation("fedavg")
        _, _, sub = run_federation(
            "sub-fedavg-un",
            unstructured=UnstructuredConfig(target_rate=0.5, step=0.2),
        )
        return standalone, fedavg, sub

    def test_fedavg_collapses_below_standalone(self, results):
        standalone, fedavg, _ = results
        assert fedavg.final_accuracy < standalone.final_accuracy

    def test_subfedavg_beats_fedavg(self, results):
        _, fedavg, sub = results
        assert sub.final_accuracy > fedavg.final_accuracy

    def test_subfedavg_near_or_above_standalone(self, results):
        standalone, _, sub = results
        assert sub.final_accuracy >= standalone.final_accuracy - 0.10


class TestClientSubnetworkObservation:
    """§3.1: clients with overlapping labels develop more similar masks."""

    def test_mask_agreement_correlates_with_label_overlap(self):
        trainer, clients, _ = run_federation(
            "sub-fedavg-un",
            rounds=6,
            seed=5,
            unstructured=UnstructuredConfig(target_rate=0.6, step=0.2),
        )
        overlaps, agreements = [], []
        for i in range(len(clients)):
            for j in range(i + 1, len(clients)):
                overlaps.append(label_overlap(clients[i].data, clients[j].data))
                agreements.append(
                    1.0 - hamming_distance(clients[i].mask, clients[j].mask)
                )
        overlaps = np.array(overlaps)
        agreements = np.array(agreements)
        assert overlaps.std() > 0, "partition produced no overlap variation"
        correlation = np.corrcoef(overlaps, agreements)[0, 1]
        assert correlation > 0.0


class TestCommunicationClaims:
    """§4.2.2: pruning shrinks exchanges below the dense FedAvg cost."""

    def test_subfedavg_total_cheaper_than_fedavg(self):
        _, _, fedavg = run_federation("fedavg")
        _, _, sub = run_federation(
            "sub-fedavg-un",
            unstructured=UnstructuredConfig(
                target_rate=0.7, step=0.35, epsilon=0.0, acc_threshold=0.0
            ),
        )
        assert sub.total_communication_bytes < fedavg.total_communication_bytes

    def test_uplink_shrinks_monotonically_with_commits(self):
        trainer, _, history = run_federation(
            "sub-fedavg-un",
            unstructured=UnstructuredConfig(
                target_rate=0.7, step=0.2, epsilon=0.0, acc_threshold=0.0
            ),
        )
        uploads = [record.uploaded_bytes for record in history.rounds]
        # Strict monotone not guaranteed (sampling), but the trend must hold.
        assert uploads[-1] < uploads[0]


class TestLGFedAvgPersonalization:
    def test_representation_layers_stay_personal(self):
        trainer, clients, _ = run_federation("lg-fedavg", rounds=3)
        conv_a = clients[0].state_dict()["conv1.weight"]
        conv_b = clients[1].state_dict()["conv1.weight"]
        assert not np.allclose(conv_a, conv_b)

    def test_shared_head_synchronized_at_round_start(self):
        trainer, clients, _ = run_federation("lg-fedavg", rounds=3)
        for client in clients:
            client.load_partial(trainer.global_state, trainer.shared_names)
        head_a = clients[0].state_dict()["fc2.weight"]
        head_b = clients[1].state_dict()["fc2.weight"]
        np.testing.assert_array_equal(head_a, head_b)
