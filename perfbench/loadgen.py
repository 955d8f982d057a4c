"""Closed-loop echo load for the served workload.

One process, ``SERVED_SESSIONS`` threads, each thread one
``ServerClient`` session registered for its slice of the client indices.
A thread loops: poll for work, answer a train task with the round's
global weights unchanged (a valid update: averaging identical states is
the identity) and an evaluate task with the fixed accuracy 0.5, post,
repeat until the server says ``done``.  No local SGD runs, so the numbers
are the server's.

Wire bytes are counted at ``urllib.request.urlopen``, the one call every
``ServerClient`` request goes through: request bodies up, response bodies
down.  A transport error there is a failed HTTP attempt (``ServerClient``
retries it), so every retry counts as a failed operation.
"""

from __future__ import annotations

import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, List, Optional

ECHO_ACCURACY = 0.5


class WireCounter:
    """Counts HTTP attempts and body bytes of every urlopen in-process."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.reset()
        self._urlopen = urllib.request.urlopen
        urllib.request.urlopen = self._counted

    def reset(self) -> None:
        self.requests = 0
        self.failed = 0
        self.up_bytes = 0
        self.down_bytes = 0

    def close(self) -> None:
        urllib.request.urlopen = self._urlopen

    def _counted(self, request, *args, **kwargs):
        data = getattr(request, "data", None)
        try:
            response = self._urlopen(request, *args, **kwargs)
            body = response.read()
            response.close()
        except (urllib.error.URLError, ConnectionError, TimeoutError):
            with self.lock:
                self.requests += 1
                self.failed += 1
            raise
        with self.lock:
            self.requests += 1
            self.up_bytes += len(data or b"")
            self.down_bytes += len(body)
        return _Body(body)


class _Body:
    """The already-read response, as the ``with urlopen(...)`` caller sees it."""

    def __init__(self, body: bytes) -> None:
        self._body = body

    def read(self) -> bytes:
        return self._body

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        return None


@dataclass
class SessionLog:
    """What one session saw."""

    train_s: List[float] = field(default_factory=list)
    eval_s: List[float] = field(default_factory=list)
    polls: int = 0
    rejected: int = 0
    task_ids: List[int] = field(default_factory=list)
    done_at: Optional[float] = None
    error: Optional[BaseException] = None


def _echo_update(task: Dict, state_field) -> Dict:
    from repro.federated.execution import WIRE_VERSION

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
        "accuracy": None if train else ECHO_ACCURACY,
        "sparsity": None,
        "channel_sparsity": None,
        "state": state_field if train else None,
        "mask": None,
    }


def _echo_state(global_b64: str) -> Dict:
    from repro.federated.compression import IdentityCompressor, unpack_state
    from repro.serving.protocol import b64_decode, b64_encode

    encoded = IdentityCompressor().encode(unpack_state(b64_decode(global_b64)))
    return {"codec": encoded.codec, "bits": encoded.bits,
            "blob": b64_encode(encoded.payload)}


def serve_session(api, log: SessionLog) -> None:
    """One session's closed loop (``api`` is registered already)."""
    from repro.serving.protocol import STATUS_DONE, STATUS_TASK

    have_batch = 0
    state_field = None
    try:
        while True:
            sent = time.perf_counter()
            response = api.work(wait_seconds=5.0, have_batch=have_batch)
            log.polls += 1
            status = response["status"]
            if status == STATUS_DONE:
                log.done_at = time.monotonic()
                return
            if status != STATUS_TASK:
                continue
            if "global" in response:
                state_field = _echo_state(response["global"])
                have_batch = int(response["batch_id"])
            task = response["task"]
            task_id = int(response["task_id"])
            accepted = api.post_result(task_id, _echo_update(task, state_field))
            elapsed = time.perf_counter() - sent
            log.task_ids.append(task_id)
            (log.train_s if task["kind"] == "train" else log.eval_s).append(elapsed)
            if not accepted:
                log.rejected += 1
    except BaseException as exc:  # reported by the caller as a failed run
        log.error = exc


def run_load(url: str, num_clients: int, sessions: int, counter: WireCounter):
    """Register ``sessions`` sessions over disjoint client slices, serve
    until every one sees ``done``; returns ``(run_start, logs)``."""
    from repro.serving.client import ServerClient

    counter.reset()
    run_start = time.monotonic()
    apis = []
    for part in range(sessions):
        api = ServerClient(url, timeout=60.0)
        api.register(list(range(part, num_clients, sessions)))
        apis.append(api)
    logs = [SessionLog() for _ in apis]
    threads = [
        threading.Thread(target=serve_session, args=(api, log), daemon=True)
        for api, log in zip(apis, logs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
        if thread.is_alive():
            raise TimeoutError("a load session did not finish within 170 s")
    return run_start, logs
