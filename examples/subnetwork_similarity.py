#!/usr/bin/env python3
"""The Client Subnetwork Observation (paper §3.1).

The paper's key empirical observation: clients whose local data share
labels end up with *similar* pruned subnetworks, without any coordination
or data sharing — the non-IID data alone shapes the masks.  Sub-FedAvg's
intersection averaging exploits exactly this.

This example runs Sub-FedAvg (Un), then compares every pair of clients on:

* label overlap (Jaccard similarity of owned label sets), and
* mask agreement (1 − normalized Hamming distance of their keep-masks),

and reports the correlation between the two.  A positive correlation is
the observation the paper builds on.

Usage::

    python examples/subnetwork_similarity.py
"""

import numpy as np

from repro.data.partition import label_overlap
from repro.federated import (
    DataConfig,
    FederationConfig,
    LocalTrainConfig,
    build_trainer,
    make_clients,
)
from repro.pruning import UnstructuredConfig, hamming_distance


def main() -> None:
    config = FederationConfig(
        dataset="mnist",
        algorithm="sub-fedavg-un",
        num_clients=12,
        rounds=6,
        sample_fraction=1.0,  # everyone participates: all masks evolve
        data=DataConfig(n_train=720, n_test=300),
        seed=5,
        local=LocalTrainConfig(epochs=3, batch_size=10),
        unstructured=UnstructuredConfig(target_rate=0.6, step=0.2),
    )
    clients = make_clients(config)
    trainer = build_trainer(config, clients)
    trainer.run()

    overlaps, agreements, pairs = [], [], []
    for i in range(len(clients)):
        for j in range(i + 1, len(clients)):
            a, b = clients[i], clients[j]
            overlap = label_overlap(a.data, b.data)
            agreement = 1.0 - hamming_distance(a.mask, b.mask)
            overlaps.append(overlap)
            agreements.append(agreement)
            pairs.append((a.client_id, b.client_id, overlap, agreement))

    print("client pair | label overlap | mask agreement")
    print("-" * 48)
    for i, j, overlap, agreement in sorted(pairs, key=lambda p: -p[2])[:8]:
        print(f"   ({i:2d},{j:2d})   | {overlap:>12.2f} | {agreement:>13.3f}")
    print("   ...")
    for i, j, overlap, agreement in sorted(pairs, key=lambda p: p[2])[:4]:
        print(f"   ({i:2d},{j:2d})   | {overlap:>12.2f} | {agreement:>13.3f}")

    overlaps = np.array(overlaps)
    agreements = np.array(agreements)
    same = agreements[overlaps > 0].mean() if (overlaps > 0).any() else float("nan")
    disjoint = agreements[overlaps == 0].mean() if (overlaps == 0).any() else float("nan")
    print()
    print(f"mean mask agreement, overlapping labels: {same:.4f}")
    print(f"mean mask agreement, disjoint labels:    {disjoint:.4f}")
    if overlaps.std() > 0:
        correlation = np.corrcoef(overlaps, agreements)[0, 1]
        print(f"correlation(label overlap, mask agreement) = {correlation:+.3f}")
        if correlation > 0:
            print("clients with similar data share similar subnetworks (§3.1).")


if __name__ == "__main__":
    main()
