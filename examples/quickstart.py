#!/usr/bin/env python3
"""Quickstart: train Sub-FedAvg (Un) on a small non-IID MNIST federation.

Runs in well under a minute on a laptop CPU.  Demonstrates the canonical
``Federation`` API: a serializable :class:`FederationConfig` describes the
run, ``Federation.from_config`` builds clients + trainer through the
algorithm registry, and lifecycle callbacks observe every round as it
happens.  The config is written to ``quickstart.json``, so the exact run
can be replayed later with ``python -m repro run --config quickstart.json``.

Usage::

    python examples/quickstart.py
"""

from repro.federated import (
    DataConfig,
    Federation,
    FederationConfig,
    LocalTrainConfig,
    ProgressLogger,
)
from repro.pruning import UnstructuredConfig


def main() -> None:
    config = FederationConfig(
        dataset="mnist",  # synthetic stand-in; see src/repro/data/synthetic.py
        algorithm="sub-fedavg-un",  # Algorithm 1 of the paper (registry name)
        num_clients=10,
        rounds=5,
        sample_fraction=0.5,  # 5 clients per round
        data=DataConfig(n_train=600, n_test=300),  # the 2-shard split (§4.1)
        seed=0,
        local=LocalTrainConfig(lr=0.01, momentum=0.5, batch_size=10, epochs=3),
        unstructured=UnstructuredConfig(
            target_rate=0.5,  # p_us: prune half of all weights, eventually
            step=0.15,  # r_us: 15% more per committed pruning event
            epsilon=1e-4,  # mask-distance gate (paper's value)
            acc_threshold=0.5,  # Acc_th on local validation accuracy
        ),
    )

    # The config is a plain serializable value: saved next to the results,
    # `python -m repro run --config quickstart.json` reproduces this run.
    from pathlib import Path

    Path("quickstart.json").write_text(config.to_json())
    print("run config written to quickstart.json")

    federation = Federation.from_config(config)
    history = federation.run(callbacks=[ProgressLogger()])

    print(f"algorithm: {history.algorithm}")
    print(f"final mean personalized accuracy: {history.final_accuracy:.1%}")
    print(f"total communication: {history.total_communication_gb * 1000:.1f} MB")

    worst = min(history.final_per_client_accuracy.items(), key=lambda kv: kv[1])
    best = max(history.final_per_client_accuracy.items(), key=lambda kv: kv[1])
    print(f"best client:  #{best[0]} at {best[1]:.1%}")
    print(f"worst client: #{worst[0]} at {worst[1]:.1%}")


if __name__ == "__main__":
    main()
