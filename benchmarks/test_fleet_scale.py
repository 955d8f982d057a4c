"""Fleet-scale round planning: rounds/sec and memory vs population size.

Array round pricing promises that *planning* a round — sampling a
cohort, pricing its timelines, deciding deliveries, advancing the clock —
costs O(cohort) numpy work, independent of how many million clients the
fleet holds.  This module tracks that trajectory from 100 clients to
1,000,000 at 1% participation and runs the 100k-client CI smoke cell.

Model training is *not* in the loop here (that is
``test_parallel_scaling.py``'s axis); the workload is the pure systems
layer every million-client study runs per round.
"""

from __future__ import annotations

import time

import pytest

from repro.federated import (
    AvailabilitySampler,
    EDGE_PHONE,
    RASPBERRY_PI,
    WORKSTATION,
)
from repro.systems import DeadlinePolicy, Fleet, FleetSimulator

THREE_TIER = Fleet(cycle=(EDGE_PHONE, RASPBERRY_PI, WORKSTATION))
PARTICIPATION = {"edge-phone": 0.6, "raspberry-pi": 0.4, "workstation": 0.9}
#: Uniform dense-exchange estimate (2 MB each way) — the tuple fast path,
#: so planning never builds a per-client dict.
TRAFFIC = (2e6, 2e6)

FLEET_SIZES = (100, 1_000, 10_000, 100_000, 1_000_000)


def rss_mb() -> float:
    """Current resident set of this process, in MB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


def make_fleet_run(num_clients: int):
    """A (sampler, simulator) pair for a 1%-participation deployment."""
    sampler = AvailabilitySampler(
        num_clients,
        sample_fraction=0.01,
        seed=0,
        fleet=THREE_TIER,
        profile_participation=PARTICIPATION,
        dropout=0.05,
    )
    simulator = FleetSimulator(
        THREE_TIER,
        DeadlinePolicy(2.5),
        flops_per_example=1e6,
        examples_per_round=100,
        jitter=0.1,
        seed=0,
    )
    return sampler, simulator


def drive_rounds(sampler, simulator, rounds: int) -> int:
    """Sample + plan + complete ``rounds`` rounds; returns cohort total."""
    first = len(simulator.outcomes) + 1
    planned = 0
    for round_index in range(first, first + rounds):
        cohort = sampler.sample()
        simulator.plan_round(round_index, cohort, TRAFFIC)
        simulator.complete_round(None)
        planned += len(cohort)
    return planned


@pytest.mark.benchmark(group="fleet-scale")
@pytest.mark.parametrize("num_clients", FLEET_SIZES)
def test_round_planning_throughput(benchmark, num_clients):
    """Rounds/sec of the full sample→plan→complete loop, 1% participation."""
    sampler, simulator = make_fleet_run(num_clients)
    drive_rounds(sampler, simulator, 1)  # warm-up: rate tables, prob arrays
    benchmark.pedantic(
        lambda: drive_rounds(sampler, simulator, 1), rounds=3, iterations=1
    )
    benchmark.extra_info["num_clients"] = num_clients
    benchmark.extra_info["rss_mb"] = round(rss_mb(), 1)


def test_smoke_100k_fleet():
    """CI smoke cell: 100k clients at 1% participation, 5 priced rounds."""
    sampler, simulator = make_fleet_run(100_000)
    start = time.perf_counter()
    planned = drive_rounds(sampler, simulator, 5)
    elapsed = time.perf_counter() - start
    print(
        f"\n100k-client smoke: 5 rounds, {planned} cohort slots in "
        f"{elapsed:.2f}s, RSS {rss_mb():.0f} MB"
    )
    assert len(simulator.outcomes) == 5
    assert planned >= 5 * 100  # ~1% of 100k survive availability + dropout
    assert simulator.total_seconds > 0
    assert elapsed < 60.0


def test_million_client_fleet_fits_the_budget():
    """Acceptance: a 1M-client 1%-participation systems run stays in
    minutes of wall clock and a few GB of memory (it is, in fact, orders
    of magnitude under both)."""
    sampler, simulator = make_fleet_run(1_000_000)
    start = time.perf_counter()
    planned = drive_rounds(sampler, simulator, 3)
    elapsed = time.perf_counter() - start
    memory = rss_mb()
    print(
        f"\n1M-client fleet: 3 rounds, {planned} cohort slots in "
        f"{elapsed:.2f}s, RSS {memory:.0f} MB"
    )
    assert planned >= 3 * 1_000
    assert elapsed < 180.0
    assert memory < 4096.0
