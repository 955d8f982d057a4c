"""Benchmark: gradient compression vs Sub-FedAvg pruning (related work, §2).

The paper's communication claim is that pruning beats generic update
compression because it *also* personalizes.  This benchmark runs FedAvg
with top-k / random / 8-bit-quantized uplinks against Sub-FedAvg (Un) at
matched scale and prints the accuracy-vs-uplink frontier.
"""

import pytest

from repro.federated import (
    DataConfig,
    FedAvgCompressed,
    FederationConfig,
    LocalTrainConfig,
    QuantizationCompressor,
    RandomMaskCompressor,
    TopKCompressor,
    build_trainer,
    make_clients,
)
from repro.federated.builder import model_factory
from repro.pruning import UnstructuredConfig

SETTINGS = dict(
    dataset="mnist",
    num_clients=8,
    rounds=4,
    sample_fraction=0.5,
    data=DataConfig(n_train=480, n_test=240),
    seed=0,
    local=LocalTrainConfig(epochs=3, batch_size=10),
)


def run_compressed(compressor):
    config = FederationConfig(algorithm="fedavg", **SETTINGS)
    clients = make_clients(config)
    trainer = FedAvgCompressed(
        clients=clients,
        model_fn=model_factory(config),
        rounds=config.rounds,
        sample_fraction=config.sample_fraction,
        seed=config.seed,
        compressor=compressor,
    )
    return trainer.run()


def run_subfedavg():
    config = FederationConfig(
        algorithm="sub-fedavg-un",
        unstructured=UnstructuredConfig(target_rate=0.7, step=0.25),
        **SETTINGS,
    )
    return build_trainer(config, make_clients(config)).run()


@pytest.mark.benchmark(group="compression")
def test_compression_vs_pruning_frontier(benchmark, once, capsys):
    def frontier():
        return {
            "fedavg+top10%": run_compressed(TopKCompressor(0.1)),
            "fedavg+random10%": run_compressed(RandomMaskCompressor(0.1, seed=0)),
            "fedavg+int8": run_compressed(QuantizationCompressor(bits=8)),
            "sub-fedavg-un@70": run_subfedavg(),
        }

    results = once(benchmark, frontier)
    with capsys.disabled():
        print("\nAccuracy vs uplink (compression baselines vs pruning):")
        for name, history in results.items():
            uploaded = sum(record.uploaded_bytes for record in history.rounds)
            print(
                f"  {name:>18}: acc={history.final_accuracy:.3f} "
                f"uplink={uploaded / 1e6:.2f} MB"
            )

    # Personalized pruning must beat every global-model compression baseline
    # on accuracy under non-IID (they inherit FedAvg's collapse).
    sub = results["sub-fedavg-un@70"].final_accuracy
    for name, history in results.items():
        if name != "sub-fedavg-un@70":
            assert sub >= history.final_accuracy - 0.02, name
