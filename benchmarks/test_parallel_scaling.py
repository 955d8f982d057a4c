"""Parallel client-execution scaling: rounds/sec, serial vs threaded.

The execution-backend subsystem promises that running a round's sampled
clients concurrently buys wall-clock throughput without changing results
(equivalence is covered by ``tests/federated/test_execution.py``; this
module tracks the *perf* trajectory).  The workload is one FedAvg round at
8 sampled clients — the smoke-preset population — with batch sizes large
enough that local SGD spends its time inside GIL-releasing BLAS kernels,
which is exactly the regime edge-scale simulation runs in.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.federated import DataConfig, FederationConfig, LocalTrainConfig
from repro.federated.builder import build_trainer, make_clients

SAMPLED_CLIENTS = 8


def build_trainer_for(backend: str, workers: int = 0):
    config = FederationConfig(
        dataset="mnist",
        algorithm="fedavg",
        num_clients=SAMPLED_CLIENTS,
        rounds=1,
        sample_fraction=1.0,
        data=DataConfig(n_train=1024, n_test=256),
        seed=0,
        backend=backend,
        workers=workers,
        local=LocalTrainConfig(epochs=1, batch_size=32),
    )
    return build_trainer(config, make_clients(config))


def rounds_per_second(trainer, measured_rounds: int = 3) -> float:
    """Best-of-N round throughput.

    The best (not mean) round is what the backend can deliver; it shields
    the CI assertion from noisy-neighbor interference on shared runners.
    """
    sampled = list(range(SAMPLED_CLIENTS))
    trainer._round(1, sampled)  # warm-up: page in data, stabilize BLAS pools
    best = float("inf")
    for offset in range(measured_rounds):
        start = time.perf_counter()
        trainer._round(2 + offset, sampled)
        best = min(best, time.perf_counter() - start)
    return 1.0 / best


@pytest.mark.benchmark(group="parallel-scaling")
@pytest.mark.parametrize("backend", ("serial", "thread"))
def test_round_throughput(benchmark, backend):
    """One FedAvg round over 8 sampled clients, per backend."""
    workers = min(4, os.cpu_count() or 1)
    trainer = build_trainer_for(backend, workers=workers)
    sampled = list(range(SAMPLED_CLIENTS))
    trainer._round(1, sampled)  # warm-up outside the timer
    round_counter = iter(range(2, 1_000_000))
    benchmark.pedantic(
        lambda: trainer._round(next(round_counter), sampled),
        rounds=3,
        iterations=1,
    )


def test_thread_speedup_at_8_clients():
    """Acceptance: threaded round throughput >= 1.5x serial on >=2 cores."""
    cores = os.cpu_count() or 1
    if cores < 2:
        pytest.skip(f"parallel speedup needs >= 2 cores (have {cores})")
    serial = rounds_per_second(build_trainer_for("serial"))
    threaded = rounds_per_second(
        build_trainer_for("thread", workers=min(4, cores))
    )
    speedup = threaded / serial
    print(f"\nserial {serial:.3f} rounds/s, threaded {threaded:.3f} rounds/s, "
          f"speedup {speedup:.2f}x on {cores} cores")
    assert speedup >= 1.5, (
        f"threaded backend only reached {speedup:.2f}x serial throughput "
        f"({threaded:.3f} vs {serial:.3f} rounds/s on {cores} cores)"
    )
