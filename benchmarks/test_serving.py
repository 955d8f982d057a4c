"""Serving load test: concurrent wire clients against a live server.

The acceptance axis for the federation-as-a-service stack: a real
:class:`~repro.serving.server.FederationServer` on localhost must sustain
a thousand concurrently attached clients — every one registering,
long-polling, downloading the round's global weights and uploading an
update — and still close rounds promptly.  The recorded
``BENCH_serving`` artifact carries per-round dispatch-to-close latency
and aggregate task throughput (``extra_info``).

Clients here are protocol-complete fakes (they echo weights instead of
running SGD) so the measured cost is the serving path itself; see
``tests/serving/test_server.py`` for the bit-identity of real runs.
"""

from __future__ import annotations

import pytest

from repro.data.registry import DATASETS
from repro.serving import run_load_test
from repro.serving.loadtest import MICRO_DATASET


@pytest.fixture(scope="module", autouse=True)
def isolated_micro_dataset():
    """Drop the harness's dataset registration after this module.

    The dataset registry is process-global;
    later-collected suites assert the exact stock family set.
    """
    registered_before = MICRO_DATASET in DATASETS
    yield
    if not registered_before and MICRO_DATASET in DATASETS:
        DATASETS.unregister(MICRO_DATASET)

#: (clients, rounds) scale points; the 1k cell is the acceptance gate.
SCALE_POINTS = ((300, 2), (1000, 2))


@pytest.mark.parametrize(
    "num_clients,rounds",
    SCALE_POINTS,
    ids=[f"{clients}c" for clients, _ in SCALE_POINTS],
)
def test_serving_sustains_concurrent_clients(benchmark, once, num_clients, rounds):
    report = once(
        benchmark,
        run_load_test,
        num_clients=num_clients,
        rounds=rounds,
        poll_seconds=5.0,
        timeout=300.0,
    )
    # Every client survives, and every task the trainer published (one
    # train task per client per round + the final evaluation pass) was
    # executed over the wire.
    assert report.failed_clients == 0
    assert report.tasks_completed == num_clients * (rounds + 1)
    assert len(report.round_latencies) == rounds
    assert report.tasks_per_second > 0
    benchmark.extra_info.update(report.to_dict())
