#!/usr/bin/env python3
"""Federated learning under real-world failure modes (§1.1).

The paper scopes out "availability of the clients, corrupted updates by
the clients" — this example shows the library handling them anyway:

1. 20% of sampled clients drop out of every round,
2. 20% of uploads are replaced with large Gaussian noise (a crashed or
   Byzantine client),
3. clients have heterogeneous compute budgets (1-5 local epochs),

and compares a plain mean aggregator against the coordinate-wise median
under identical faults.

Usage::

    python examples/robust_federation.py
"""

from repro.federated import (
    AvailabilityModel,
    CorruptionModel,
    DataConfig,
    FederationConfig,
    LocalTrainConfig,
    RobustFedAvg,
    StragglerModel,
    make_clients,
)
from repro.federated.builder import model_factory


def run(aggregation: str):
    config = FederationConfig(
        dataset="mnist",
        algorithm="fedavg",
        num_clients=10,
        rounds=5,
        sample_fraction=0.8,
        data=DataConfig(n_train=600, n_test=300),
        seed=6,
        local=LocalTrainConfig(epochs=3, batch_size=10),
    )
    clients = make_clients(config)
    trainer = RobustFedAvg(
        clients=clients,
        model_fn=model_factory(config),
        rounds=config.rounds,
        sample_fraction=config.sample_fraction,
        seed=config.seed,
        availability=AvailabilityModel(dropout_prob=0.2, seed=1),
        corruption=CorruptionModel(rate=0.2, scale=10.0, seed=2),
        stragglers=StragglerModel(config.num_clients, 1, 5, seed=3),
        aggregation=aggregation,
        # With ~7 participants, trim at least one update from each end
        # (floor(0.2 * 7) = 1); smaller fractions trim nothing.
        trim_fraction=0.2,
    )
    return trainer.run()


def main() -> None:
    print("Faults injected every round: 20% dropout, 20% corrupted uploads,")
    print("heterogeneous 1-5 epoch budgets.\n")
    for aggregation in ("mean", "median", "trimmed"):
        history = run(aggregation)
        participants = [len(record.sampled_clients) for record in history.rounds]
        print(
            f"aggregation={aggregation:>7}: final accuracy "
            f"{history.final_accuracy:.1%} "
            f"(participants per round: {participants})"
        )
    print(
        "\nThe plain mean lets a single corrupted upload poison the global "
        "model; median/trimmed aggregation bound its influence."
    )


if __name__ == "__main__":
    main()
