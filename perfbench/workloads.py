"""The three perfbench workloads and why each exists.

Every workload is closed loop and seeded from the command line; the seed
is the only input that varies between runs.  Sizes fit a 2-vCPU box.
"""

from __future__ import annotations

from typing import Dict

#: name -> (summary, rounds per federation).  Rounds are fixed, so final
#: accuracy is a pure function of (workload, seed) and can be pinned.
WORKLOADS: Dict[str, dict] = {
    "hybrid-cifar10": {
        "rounds": 3,
        "why": (
            "compute-bound baseline: conv/batch-norm kernels, SGD and both "
            "mask derivations; the pool never evicts and the wire is idle"
        ),
    },
    "unstructured-mnist-fleet": {
        "rounds": 4,
        "why": (
            "orchestration-bound: fork dispatch, ClientSync replay, pool "
            "evict/spill (100 clients, 16 cached), async-buffer fleet plans"
        ),
    },
    "served-fedavg-mnist": {
        "rounds": 40,
        "why": (
            "serving path only: HTTP long-poll, JSON+base64 envelopes, codec, "
            "hub bookkeeping and FedAvg averaging, with echo clients and no SGD"
        ),
    },
}

#: Load generator shape for the served workload: one process, this many
#: threads, each one ServerClient session for a slice of the clients.
SERVED_SESSIONS = 2


def federation_config(workload: str, seed: int, backend: str = ""):
    """The ``FederationConfig`` of one federation of ``workload``.

    ``backend`` overrides the execution backend (the pinning script runs
    the fleet workload on ``serial`` to get its reference accuracy).
    """
    from repro.federated import FederationConfig

    rounds = WORKLOADS[workload]["rounds"]
    if workload == "hybrid-cifar10":
        return FederationConfig(
            dataset="cifar10",
            algorithm="sub-fedavg-hy",
            num_clients=20,
            rounds=rounds,
            sample_fraction=0.25,
            seed=seed,
            backend=backend or "serial",
            local={"epochs": 2},
        )
    if workload == "unstructured-mnist-fleet":
        return FederationConfig(
            dataset="mnist",
            algorithm="sub-fedavg-un",
            num_clients=100,
            rounds=rounds,
            sample_fraction=0.1,
            seed=seed,
            backend=backend or "process",
            workers=2,
            client_cache=16,
            local={"epochs": 1},
            scenario={"profiles": ["edge-phone", "raspberry-pi"]},
            systems={"round_policy": "async-buffer"},
        )
    if workload == "served-fedavg-mnist":
        return FederationConfig(
            dataset="mnist",
            algorithm="fedavg",
            num_clients=40,
            rounds=rounds,
            sample_fraction=1.0,
            seed=seed,
            data={"partition": "iid"},
        )
    raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
