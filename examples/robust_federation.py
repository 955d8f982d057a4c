#!/usr/bin/env python3
"""FedAvg over unreliable clients: dropout plus a round deadline.

The paper scopes out "availability of the clients" (§1.1); the library
models it with two config sections and no extra trainer:

1. ``scenario`` — the ``availability`` sampler drops 20% of the invited
   clients from every round,
2. ``systems`` — a ``deadline`` round policy over a fleet of phones and
   Raspberry Pis closes each round after 1 simulated second; a Pi misses
   it, so its upload becomes a 0-weight straggler.

Usage::

    python examples/robust_federation.py
"""

from repro.federated import (
    DataConfig,
    Federation,
    FederationConfig,
    LocalTrainConfig,
    SystemsConfig,
)
from repro.systems.report import total_stragglers


def main() -> None:
    config = FederationConfig(
        dataset="mnist",
        algorithm="fedavg",
        num_clients=10,
        rounds=5,
        sample_fraction=0.8,
        data=DataConfig(n_train=600, n_test=300),
        seed=6,
        local=LocalTrainConfig(epochs=3, batch_size=10),
        scenario={
            "sampler": "availability",
            "dropout": 0.2,
            "profiles": ["edge-phone", "raspberry-pi"],
        },
        systems=SystemsConfig(
            round_policy="deadline",
            deadline_seconds=1.0,
            flops_per_example=1e6,
            examples_per_round=100.0,
        ),
    )
    history = Federation.from_config(config).run()
    for record in history.rounds:
        print(
            f"round {record.round_index}: participants {record.sampled_clients}, "
            f"stragglers {record.stragglers}"
        )
    print(f"stragglers in all rounds: {total_stragglers(history)}")
    print(f"simulated time: {history.total_simulated_seconds:.2f} s")
    print(f"final accuracy: {history.final_accuracy:.1%}")


if __name__ == "__main__":
    main()
