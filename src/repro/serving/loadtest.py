"""Load-test harness: thousands of fake wire clients against a real server.

The point is to stress the *serving* path — registration, long-poll
dispatch, upload decode, round close — not local SGD, so the harness
registers a tiny synthetic dataset (``wire-micro``: 1×8×8, two classes,
which resolves to the shape-generic MLP) and attaches fake clients that
echo the round's global weights back as their update instead of training.
Echoing is a *valid* update (aggregating identical states is the
identity), so every server-side code path — codec decode, weighted
averaging, round records, the final evaluation — runs for real.

Each fake client is a session for one client index, whose next task
is almost never queued yet when it uploads: nearly every task costs a
``GET /v1/work`` long-poll plus the upload, so the load test exercises
the long-poll path at thousands of sessions.  A session serving several
indices (the wire runners, perfbench's load generator) gets its next
lease on the upload reply instead.

:func:`run_load_test` returns a :class:`LoadTestReport`; the benchmark
suite dumps it as the ``BENCH_serving`` artifact.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..data.registry import DATASETS, register_dataset
from ..data.synthetic import DatasetSpec, _synthetic_loader
from ..federated.builder import FederationConfig
from ..federated.compression import IdentityCompressor, unpack_state
from ..federated.execution import WIRE_VERSION
from .client import ServerClient
from .protocol import STATUS_DONE, STATUS_TASK, b64_decode, b64_encode
from .server import FederationServer

#: The harness's registered micro dataset (lazily added on first use).
MICRO_DATASET = "wire-micro"


def ensure_micro_dataset() -> str:
    """Register the load test's tiny dataset family (idempotent)."""
    if MICRO_DATASET not in DATASETS:
        register_dataset(
            DatasetSpec(MICRO_DATASET, (1, 8, 8), 2, signal=2.0, noise=1.0,
                        max_shift=0),
            summary="tiny synthetic family for serving load tests",
        )(_synthetic_loader)
    return MICRO_DATASET


def load_test_config(
    num_clients: int, rounds: int, seed: int = 0
) -> FederationConfig:
    """A serving-shaped config: every client sampled every round."""
    ensure_micro_dataset()
    return FederationConfig(
        dataset=MICRO_DATASET,
        algorithm="fedavg",
        num_clients=num_clients,
        rounds=rounds,
        seed=seed,
        sample_fraction=1.0,
        data={
            "partition": "iid",
            "n_train": max(4 * num_clients, 256),
            "n_test": max(2 * num_clients, 128),
        },
    )


def echo_state(global_b64: str) -> Dict[str, Any]:
    """A published global state, re-encoded as an identity-codec upload."""
    encoded = IdentityCompressor().encode(unpack_state(b64_decode(global_b64)))
    return {
        "codec": encoded.codec,
        "bits": encoded.bits,
        "blob": b64_encode(encoded.payload),
    }


def echo_update(task: Dict[str, Any], state_field) -> Dict[str, Any]:
    """The wire update an echo client sends for a wire ``task``: the
    batch's weights back (train) or a fixed 0.5 accuracy (evaluate)."""
    train = task["kind"] == "train"
    index = int(task["client_index"])
    return {
        "schema": WIRE_VERSION,
        "client_index": index,
        "client_id": index,
        "num_examples": 1 if train else 0,
        "mean_loss": 0.0,
        "val_accuracy": None,
        "pruned_unstructured": False,
        "pruned_structured": False,
        "accuracy": None if train else 0.5,
        "sparsity": None,
        "channel_sparsity": None,
        "state": state_field if train else None,
        "mask": None,
    }


class FakeWireClient:
    """One protocol-complete session that echoes instead of training.

    It registers for ``clients``; per batch it decodes the published
    global weights once, re-encodes them once with the identity codec,
    and answers every train task with that cached blob (evaluate tasks
    get a fixed accuracy) — so the server does full wire work while the
    client only frames each upload.  Like any :class:`ServerClient` user it
    makes one request per task while the board has work for it (the
    upload brings back the next lease) and long-polls otherwise.
    """

    def __init__(
        self, base_url: str, clients: Sequence[int], poll_seconds: float = 10.0
    ) -> None:
        self.api = ServerClient(base_url, timeout=poll_seconds + 30.0)
        self.clients = list(clients)
        self.poll_seconds = poll_seconds
        self.tasks_completed = 0
        self.error: Optional[BaseException] = None

    def serve(self) -> None:
        try:
            self.api.register(self.clients)
            have_batch = 0
            state_field: Optional[Dict[str, Any]] = None
            while True:
                response = self.api.work(
                    wait_seconds=self.poll_seconds, have_batch=have_batch
                )
                status = response["status"]
                if status == STATUS_DONE:
                    return
                if status != STATUS_TASK:
                    continue
                if "global" in response:
                    state_field = echo_state(response["global"])
                    have_batch = int(response["batch_id"])
                self.api.post_result(
                    int(response["task_id"]),
                    echo_update(response["task"], state_field),
                )
                self.tasks_completed += 1
        except BaseException as exc:
            self.error = exc


@dataclass
class LoadTestReport:
    """What ``BENCH_serving`` publishes."""

    clients: int
    rounds: int
    wall_seconds: float
    tasks_completed: int
    round_latencies: List[float] = field(default_factory=list)
    failed_clients: int = 0
    final_accuracy: Optional[float] = None

    @property
    def tasks_per_second(self) -> float:
        return self.tasks_completed / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def mean_round_latency(self) -> Optional[float]:
        if not self.round_latencies:
            return None
        return sum(self.round_latencies) / len(self.round_latencies)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "clients": self.clients,
            "rounds": self.rounds,
            "wall_seconds": self.wall_seconds,
            "tasks_completed": self.tasks_completed,
            "tasks_per_second": self.tasks_per_second,
            "round_latencies": self.round_latencies,
            "mean_round_latency": self.mean_round_latency,
            "failed_clients": self.failed_clients,
            "final_accuracy": self.final_accuracy,
        }


def run_load_test(
    num_clients: int = 1000,
    rounds: int = 2,
    seed: int = 0,
    poll_seconds: float = 10.0,
    lease_seconds: float = 30.0,
    timeout: float = 600.0,
) -> LoadTestReport:
    """Serve one run to ``num_clients`` concurrent fake clients.

    Starts a real :class:`~repro.serving.server.FederationServer` on an
    ephemeral localhost port, attaches one :class:`FakeWireClient` thread
    per client index, waits for the run, and distills the hub's batch
    stats into a :class:`LoadTestReport`.
    """
    config = load_test_config(num_clients, rounds, seed=seed)
    server = FederationServer(
        config, lease_seconds=lease_seconds
    ).start()
    started = time.monotonic()
    fakes = [
        FakeWireClient(server.url, [index], poll_seconds=poll_seconds)
        for index in range(num_clients)
    ]
    threads = [
        threading.Thread(target=fake.serve, daemon=True) for fake in fakes
    ]
    try:
        for thread in threads:
            thread.start()
        history = server.wait(timeout=timeout)
        wall = time.monotonic() - started
        for thread in threads:
            thread.join(timeout=poll_seconds + 30.0)
        stats = server.hub.stats()
        return LoadTestReport(
            clients=num_clients,
            rounds=rounds,
            wall_seconds=wall,
            tasks_completed=server.hub.tasks_completed,
            round_latencies=[
                batch.latency_seconds
                for batch in stats
                if batch.kind == "train" and batch.latency_seconds is not None
            ],
            failed_clients=sum(1 for fake in fakes if fake.error is not None),
            final_accuracy=history.final_accuracy,
        )
    finally:
        server.stop()
