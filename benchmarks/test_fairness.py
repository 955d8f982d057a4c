"""Benchmark: per-client accuracy distributions (the story behind Table 1).

The paper reports mean accuracy; the distribution over clients is where
FedAvg's failure actually lives — some clients are served well, others
collapse entirely.  This benchmark compares the fairness profile of
FedAvg vs Sub-FedAvg (Un) and ties it to the measured heterogeneity of the
partition (Zhao et al. 2018-style EMD).
"""

import pytest

from repro.data import heterogeneity_index
from repro.federated import (
    DataConfig,
    FederationConfig,
    LocalTrainConfig,
    build_trainer,
    fairness_report,
    make_clients,
)
from repro.pruning import UnstructuredConfig

SETTINGS = dict(
    dataset="mnist",
    num_clients=10,
    rounds=5,
    sample_fraction=0.5,
    data=DataConfig(n_train=600, n_test=300),
    seed=4,
    local=LocalTrainConfig(epochs=3, batch_size=10),
)


def run(algorithm, **extra):
    config = FederationConfig(algorithm=algorithm, **SETTINGS, **extra)
    clients = make_clients(config)
    trainer = build_trainer(config, clients)
    history = trainer.run()
    return clients, history


@pytest.mark.benchmark(group="fairness")
def test_fairness_profile(benchmark, once, capsys):
    def experiment():
        clients, fedavg = run("fedavg")
        _, sub = run(
            "sub-fedavg-un",
            unstructured=UnstructuredConfig(target_rate=0.5, step=0.2),
        )
        hetero = heterogeneity_index(
            [client.data for client in clients], num_classes=10
        )
        return hetero, fairness_report(fedavg), fairness_report(sub)

    hetero, fedavg_fair, sub_fair = once(benchmark, experiment)

    with capsys.disabled():
        print("\nPartition heterogeneity (Zhao-style EMD):")
        print(f"  mean EMD {hetero['mean_emd']:.2f}, "
              f"labels/client {hetero['mean_labels_per_client']:.1f}")
        print("Per-client accuracy distribution:")
        print(f"  fedavg:        {fedavg_fair.describe()}")
        print(f"  sub-fedavg-un: {sub_fair.describe()}")

    # The partition is pathological, as the protocol intends.
    assert hetero["mean_emd"] > 0.5
    # Personalization lifts the tail: the worst-served client does better.
    assert sub_fair.percentile_10 >= fedavg_fair.percentile_10 - 0.02
    assert sub_fair.below_half <= fedavg_fair.below_half
