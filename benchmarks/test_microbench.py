"""Micro-benchmarks of the substrate's hot paths.

These quantify the per-round cost drivers of the federation simulator:
convolution forward/backward, one client SGD step, the evaluation forward
(``no_grad``, no pool argmax), a federation's final all-client evaluation,
mask derivation and the Sub-FedAvg intersection average.

Run them at one BLAS thread, as perfbench and CI do; with the default
thread pool a small machine measures oversubscription, not the kernels::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        PYTHONPATH=src python -m pytest -q benchmarks/test_microbench.py
"""

import numpy as np
import pytest

from repro import nn
from repro.federated import Federation, FederationConfig, intersection_average
from repro.federated import evaluation
from repro.federated.evaluation import EVAL_CHUNK
from repro.models import LeNet5, create_model
from repro.optim import SGD
from repro.pruning import MaskSet, bn_scale_channel_mask, magnitude_mask
from repro.tensor import Tensor, conv2d, max_pool2d, no_grad


@pytest.fixture(scope="module")
def lenet():
    return LeNet5(rng=np.random.default_rng(0))


@pytest.mark.benchmark(group="micro")
def test_conv_forward(benchmark, rng=np.random.default_rng(0)):
    x = Tensor(rng.normal(size=(10, 3, 32, 32)))
    w = Tensor(rng.normal(size=(6, 3, 5, 5)))
    b = Tensor(rng.normal(size=6))
    benchmark(lambda: conv2d(x, w, b))


@pytest.mark.benchmark(group="micro")
def test_conv_backward(benchmark, rng=np.random.default_rng(0)):
    x = Tensor(rng.normal(size=(10, 3, 32, 32)), requires_grad=True)
    w = Tensor(rng.normal(size=(6, 3, 5, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=6), requires_grad=True)

    def run():
        for tensor in (x, w, b):
            tensor.zero_grad()
        conv2d(x, w, b).sum().backward()

    benchmark(run)


@pytest.mark.benchmark(group="micro")
def test_max_pool_forward(benchmark, rng=np.random.default_rng(0)):
    """LeNet's first pool on one evaluation chunk, outside any graph."""
    x = Tensor(rng.normal(size=(EVAL_CHUNK, 6, 28, 28)))

    def run():
        with no_grad():
            return max_pool2d(x, 2)

    benchmark(run)


@pytest.mark.benchmark(group="micro")
def test_lenet_inference_forward(benchmark, lenet, rng=np.random.default_rng(0)):
    """One evaluation chunk through LeNet-5 in eval mode, as ``predict`` runs it."""
    images = Tensor(rng.normal(size=(EVAL_CHUNK, 3, 32, 32)))

    def run():
        lenet.eval()
        with no_grad():
            logits = lenet(images)
        lenet.train()
        return logits

    benchmark(run)


@pytest.fixture(scope="module")
def fleet_trainer():
    """The perfbench fleet federation (seed 1) after its 4 rounds, run serially."""
    config = FederationConfig(
        dataset="mnist",
        algorithm="sub-fedavg-un",
        num_clients=100,
        rounds=4,
        sample_fraction=0.1,
        seed=1,
        backend="serial",
        client_cache=16,
        local={"epochs": 1},
        scenario={"profiles": ["edge-phone", "raspberry-pi"]},
        systems={"round_policy": "async-buffer"},
    )
    federation = Federation.from_config(config)
    federation.run()
    return federation.trainer


@pytest.mark.benchmark(group="micro")
def test_final_evaluation(benchmark, fleet_trainer):
    """All 100 clients' eval tasks, starting from an empty prediction memo."""
    benchmark.pedantic(
        fleet_trainer.evaluate_all, setup=evaluation._memo.clear, rounds=5, iterations=1
    )


@pytest.mark.benchmark(group="micro")
def test_lenet_training_step(benchmark, lenet, rng=np.random.default_rng(0)):
    """One batch-10 SGD step on LeNet-5 — the paper's unit of local work."""
    images = rng.normal(size=(10, 3, 32, 32))
    labels = rng.integers(0, 10, size=10)
    optimizer = SGD(list(lenet.named_parameters()), lr=0.01, momentum=0.5)
    loss_fn = nn.CrossEntropyLoss()

    def step():
        optimizer.zero_grad()
        loss = loss_fn(lenet(Tensor(images)), labels)
        loss.backward()
        optimizer.step()
        return loss.item()

    benchmark(step)


@pytest.mark.benchmark(group="micro")
def test_magnitude_mask_derivation(benchmark, lenet):
    state = {name: param.data for name, param in lenet.named_parameters()}
    names = lenet.prunable_weight_names()
    benchmark(lambda: magnitude_mask(state, names, rate=0.5))


@pytest.mark.benchmark(group="micro")
def test_channel_mask_derivation(benchmark, lenet):
    benchmark(lambda: bn_scale_channel_mask(lenet, rate=0.5))


@pytest.mark.benchmark(group="micro")
def test_intersection_average_10_clients(benchmark):
    model = create_model("cifar10")
    base = model.state_dict()
    rng = np.random.default_rng(0)
    states, masks = [], []
    for _ in range(10):
        states.append({k: v + rng.normal(size=v.shape) for k, v in base.items()})
        masks.append(
            MaskSet(
                {
                    name: (rng.random(base[name].shape) > 0.5).astype(float)
                    for name in model.prunable_weight_names()
                }
            )
        )
    benchmark(lambda: intersection_average(states, masks, base))
