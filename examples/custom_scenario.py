#!/usr/bin/env python3
"""A complete third-party scenario: dataset + partitioner + sampler plugins.

Everything the paper's evaluation varies about the *data scenario* —
which dataset, how it is split across clients, who shows up each round —
is a registry.  This example registers one of each with decorators only
(zero edits to ``builder.py``, ``partition.py`` or ``federation.py``) and
runs FedAvg on the result:

* ``rings``        — a new dataset: concentric-ring images, 3 classes,
* ``first-labels`` — a new partitioner: client i owns the lowest labels
                     left after clients 0..i-1 took theirs,
* ``flaky-fleet``  — a new sampler: half the fleet is reliable, half
                     rarely reachable.

Usage::

    python examples/custom_scenario.py
"""

import numpy as np

from repro.data import ArrayDataset
from repro.data.registry import register_dataset, register_partitioner
from repro.data.synthetic import DatasetSpec
from repro.federated import (
    AvailabilitySampler,
    DataConfig,
    Federation,
    FederationConfig,
    LocalTrainConfig,
    ProgressLogger,
    ScenarioConfig,
)
from repro.federated.scenario import register_sampler


# ----------------------------------------------------------------------
# 1. A new dataset: 12x12 images whose class is the radius of a ring.
# ----------------------------------------------------------------------
@register_dataset(
    DatasetSpec("rings", (1, 12, 12), 3, signal=2.5, noise=1.0, max_shift=0),
    summary="concentric rings, class = ring radius",
)
def load_rings(spec, n_train, n_test, seed):
    yy, xx = np.mgrid[0 : spec.shape[1], 0 : spec.shape[2]]
    radius = np.sqrt((yy - 5.5) ** 2 + (xx - 5.5) ** 2)

    def split(count, offset):
        rng = np.random.default_rng(seed + offset)
        labels = rng.integers(0, spec.num_classes, size=count)
        rings = np.stack(
            [np.abs(radius - (2 + 1.5 * label)) < 0.9 for label in labels]
        )[:, None, :, :]
        images = spec.signal * rings + rng.normal(
            scale=spec.noise, size=(count, *spec.shape)
        )
        return ArrayDataset(images, labels.astype(np.int64))

    return split(n_train, 0), split(n_test, 1)


# ----------------------------------------------------------------------
# 2. A new partitioner: deterministic label blocks, one per client.
# ----------------------------------------------------------------------
@register_partitioner(
    "first-labels",
    params={"k": "labels_per_client"},
    summary="client i owns labels [i*k, i*k + k), wrapping around",
)
def first_labels(labels, num_clients, k=1, rng=None):
    num_classes = int(labels.max()) + 1
    owned = [
        {(i * k + j) % num_classes for j in range(k)} for i in range(num_clients)
    ]
    owners = [
        [client for client in range(num_clients) if label in owned[client]]
        for label in range(num_classes)
    ]
    # Split each label's examples among exactly its owners, so the deal is
    # disjoint and covers every example of every owned label.
    assignments = [[] for _ in range(num_clients)]
    for label, label_owners in enumerate(owners):
        if not label_owners:
            continue
        chunks = np.array_split(np.flatnonzero(labels == label), len(label_owners))
        for client, chunk in zip(label_owners, chunks):
            assignments[client].extend(chunk.tolist())
    return [np.sort(np.asarray(a, dtype=np.int64)) for a in assignments]


# ----------------------------------------------------------------------
# 3. A new participation model: a bimodal (reliable/flaky) fleet.
# ----------------------------------------------------------------------
@register_sampler("flaky-fleet", summary="even clients reliable, odd clients flaky")
def flaky_fleet(num_clients, sample_fraction, seed, scenario):
    probs = [0.95 if i % 2 == 0 else 0.25 for i in range(num_clients)]
    return AvailabilitySampler(
        num_clients,
        sample_fraction,
        seed=seed,
        participation_probs=probs,
        dropout=scenario.dropout,
    )


def main() -> None:
    config = FederationConfig(
        dataset="rings",
        algorithm="fedavg",
        num_clients=6,
        rounds=5,
        sample_fraction=1.0,
        data=DataConfig(n_train=360, n_test=120, partition="first-labels"),
        seed=0,
        local=LocalTrainConfig(lr=0.05, momentum=0.5, batch_size=10, epochs=2),
        scenario=ScenarioConfig(sampler="flaky-fleet", dropout=0.1),
    )
    history = Federation.from_config(config).run(callbacks=[ProgressLogger()])

    print(f"final mean personalized accuracy: {history.final_accuracy:.1%}")
    attendance = {}
    for record in history.rounds:
        for client in record.sampled_clients:
            attendance[client] = attendance.get(client, 0) + 1
    print("rounds attended per client (even = reliable, odd = flaky):")
    for client in range(config.num_clients):
        print(f"  client {client}: {attendance.get(client, 0)}/{len(history.rounds)}")


if __name__ == "__main__":
    main()
