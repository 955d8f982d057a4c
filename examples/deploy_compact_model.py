#!/usr/bin/env python3
"""From federated hybrid pruning to an actually-smaller deployed model.

The hybrid algorithm (Sub-FedAvg Hy) prunes whole channels via batch-norm
scales, which the paper motivates with edge deployment: "a compressed
network that can be efficiently inferenced on conventional CNN platforms"
(§3.3).  Masks only *simulate* that; this example completes the story:

1. run a small Sub-FedAvg (Hy) federation,
2. take one client's personal channel mask,
3. **physically compact** the model (channels sliced out of every tensor),
4. verify the compacted network predicts identically to the masked one and
   report the parameter / FLOP savings and measured inference speed-up.

Usage::

    python examples/deploy_compact_model.py
"""

import time

import numpy as np

from repro.data import full_batch
from repro.federated import (
    DataConfig,
    FederationConfig,
    LocalTrainConfig,
    build_trainer,
    make_clients,
)
from repro.federated.accounting import dense_conv_flops, pruned_conv_flops
from repro.pruning import StructuredConfig, UnstructuredConfig, compact_model, compaction_summary
from repro.tensor import Tensor


def main() -> None:
    config = FederationConfig(
        dataset="mnist",
        algorithm="sub-fedavg-hy",
        num_clients=8,
        rounds=4,
        sample_fraction=1.0,
        data=DataConfig(n_train=480, n_test=240),
        seed=2,
        local=LocalTrainConfig(epochs=3, batch_size=10),
        unstructured=UnstructuredConfig(target_rate=0.5, step=0.25, acc_threshold=0.0),
        structured=StructuredConfig(target_rate=0.4, step=0.2, acc_threshold=0.0),
    )
    clients = make_clients(config)
    trainer = build_trainer(config, clients)
    trainer.run()

    client = max(clients, key=lambda c: c.controller.channel_sparsity())
    channels = client.controller.ch_mask
    print(
        f"client #{client.client_id}: "
        f"{channels.kept_channels()}/{channels.total_channels()} channels kept "
        f"({channels.sparsity():.0%} pruned)"
    )

    compacted = compact_model(client.model, channels)
    summary = compaction_summary(client.model, compacted)
    print(f"parameters: {summary['dense_params']} -> {summary['compact_params']} "
          f"({summary['param_reduction']:.0%} removed)")

    side = 28
    dense_flops = dense_conv_flops(client.model, side)
    compact_flops = pruned_conv_flops(client.model, channels, side)
    print(f"conv FLOPs: {dense_flops} -> {compact_flops} "
          f"({dense_flops / max(compact_flops, 1):.2f}x reduction)")

    # Predictions must match exactly.
    images, labels = full_batch(client.data.test)
    client.model.eval()
    compacted.eval()
    dense_pred = client.model(Tensor(images)).data.argmax(axis=1)
    compact_pred = compacted(Tensor(images)).data.argmax(axis=1)
    assert (dense_pred == compact_pred).all(), "compaction changed predictions!"
    accuracy = (compact_pred == labels).mean()
    print(f"compacted model accuracy on the client's test view: {accuracy:.1%} "
          "(identical to the masked model)")

    # Measured wall-clock inference speed-up.
    def time_model(model, repeats=10):
        start = time.perf_counter()
        for _ in range(repeats):
            model(Tensor(images))
        return (time.perf_counter() - start) / repeats

    dense_time = time_model(client.model)
    compact_time = time_model(compacted)
    print(f"inference: {dense_time * 1000:.1f} ms -> {compact_time * 1000:.1f} ms "
          f"per batch ({dense_time / compact_time:.2f}x speed-up)")


if __name__ == "__main__":
    main()
