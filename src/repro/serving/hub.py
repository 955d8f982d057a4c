"""The :class:`WireHub` task board and the :class:`WireBackend` that feeds it.

The hub is the server's in-memory meeting point between the trainer loop
(one thread, submitting batches of :class:`ClientTask` work and blocking
on results) and many wire-attached clients (HTTP handler threads leasing
tasks and posting updates).  Dispatch rules:

* **Per-client FIFO** — only the head of a client's queue is leasable, so
  one client's tasks execute in submission (= round) order even when an
  async straggler's training task is still outstanding when its next
  round's work arrives.
* **Leases expire** — a task leased to a client that disconnects is
  re-queued after ``lease_seconds`` and re-dispatched to whoever polls
  next; results are idempotent, so the original client's late upload is
  acknowledged and dropped.
* **The upload is the next poll** — the server answers an accepted
  ``POST /v1/result`` with a non-blocking :meth:`WireHub.take` for the
  uploading session, so a session with queued work gets its next lease
  on the upload reply; only an empty board sends it back to the
  ``GET /v1/work`` long-poll.  A duplicate or late upload leases nothing.
* **Restart cancellation** — submitting a *train* batch cancels any
  incomplete train task for the same clients (the fleet simulator's
  all-busy restart: stale work is discarded, not aggregated).
* **Bounded memory** — a batch's packed global weights are freed once
  every task in it is completed or cancelled, and a completed task's
  entry (carrying a full client-state update) leaves the board when the
  trainer consumes it via ``wait_for`` — so a long-lived server holds
  only the *outstanding* work, not one model copy per round served.

:class:`WireBackend` is a normal
:class:`~repro.federated.execution.ExecutionBackend`, so the trainer loop
is completely unchanged — which is what makes a synchronous-policy wire
run bit-identical to the in-process loop.  Under the async-buffer policy
it only blocks on the round plan's *delivered* set: stragglers stay
outstanding on the wire and their uploads are collected in the later
round whose plan carries them (so per-round ``train_loss`` membership —
and nothing else — differs from the in-process simulation, which trains
stragglers eagerly).
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..federated.execution import (
    ClientTask,
    ClientUpdate,
    ExecutionBackend,
    State,
)
from .protocol import STATUS_DONE, STATUS_TASK, STATUS_WAIT, b64_encode

#: TaskEntry lifecycle states.
PENDING = "pending"
LEASED = "leased"
DONE = "done"
CANCELLED = "cancelled"


class HubClosed(RuntimeError):
    """The hub shut down while a caller was blocked on it."""


@dataclass
class TaskEntry:
    """One task on the board, from submission to completion."""

    task_id: int
    batch_id: int
    round_index: int
    task: ClientTask
    codec: str
    not_before: float = 0.0  # monotonic time before which take() hides it
    status: str = PENDING
    lease_expiry: float = 0.0
    lease_session: Optional[int] = None
    update: Optional[ClientUpdate] = None


@dataclass
class BatchStats:
    """Timing of one submitted batch (the BENCH_serving raw material)."""

    batch_id: int
    round_index: int
    kind: str
    size: int
    submitted: float
    finished: Optional[float] = None
    completed: int = 0
    cancelled: int = 0

    @property
    def settled(self) -> bool:
        """Every task accounted for: no lease will ever need this batch."""
        return self.completed + self.cancelled >= self.size

    @property
    def latency_seconds(self) -> Optional[float]:
        if self.finished is None:
            return None
        return self.finished - self.submitted


@dataclass
class _Session:
    session_id: int
    clients: Optional[frozenset]  # None = serves any client index


class WireHub:
    """Thread-safe task board between the trainer loop and wire clients."""

    def __init__(self, lease_seconds: float = 30.0) -> None:
        if lease_seconds <= 0:
            raise ValueError(f"lease_seconds must be > 0, got {lease_seconds}")
        self.lease_seconds = lease_seconds
        self._cond = threading.Condition()
        self._task_ids = itertools.count(1)
        self._batch_ids = itertools.count(1)
        self._session_ids = itertools.count(1)
        self._entries: Dict[int, TaskEntry] = {}
        self._queues: Dict[int, deque] = {}  # client_index -> deque[task_id]
        self._globals: Dict[int, str] = {}  # batch_id -> b64 packed weights
        self._sessions: Dict[int, _Session] = {}
        self._batches: Dict[int, BatchStats] = {}
        # Dispatch must stay O(log n) per poll at thousands of clients, so
        # two lazy heaps index the entries: queue heads ready to lease, and
        # outstanding leases by expiry.  Stale records are skipped on pop.
        self._ready: List[int] = []  # heap of candidate head task_ids
        self._lease_heap: List[Tuple[float, int]] = []  # (expiry, task_id)
        self._done = False
        self._closed = False
        self.tasks_completed = 0

    # ------------------------------------------------------------------
    # Trainer side
    # ------------------------------------------------------------------
    def submit_batch(
        self,
        tasks: Sequence[ClientTask],
        global_state: State,
        *,
        codec: str = "identity",
        round_index: int = 0,
        not_before: Optional[Dict[int, float]] = None,
    ) -> Tuple[int, List[int]]:
        """Publish one batch; returns ``(batch_id, task_ids)`` in task order.

        The global weights are packed once per batch and shared by every
        task in it; sessions download them at most once per batch (the
        ``have_batch`` etag in the work response).  ``not_before`` maps a
        client index to a monotonic time before which its task stays
        hidden — the fleet-simulated dispatch pacing.
        """
        from ..federated.compression import pack_state

        kind = "train" if all(t.kind == "train" for t in tasks) else "evaluate"
        blob = b64_encode(pack_state(global_state))
        with self._cond:
            if self._closed:
                raise HubClosed("hub is closed")
            batch_id = next(self._batch_ids)
            self._globals[batch_id] = blob
            if kind == "train":
                self._cancel_stale_train(
                    {task.client_index for task in tasks}
                )
            task_ids = []
            for task in tasks:
                entry = TaskEntry(
                    task_id=next(self._task_ids),
                    batch_id=batch_id,
                    round_index=round_index,
                    task=task,
                    codec=codec,
                    not_before=(not_before or {}).get(task.client_index, 0.0),
                )
                self._entries[entry.task_id] = entry
                self._queues.setdefault(task.client_index, deque()).append(
                    entry.task_id
                )
                task_ids.append(entry.task_id)
            for index in {task.client_index for task in tasks}:
                self._push_head(index)
            self._batches[batch_id] = BatchStats(
                batch_id=batch_id,
                round_index=round_index,
                kind=kind,
                size=len(task_ids),
                submitted=time.monotonic(),
            )
            self._cond.notify_all()
            return batch_id, task_ids

    def _cancel_stale_train(self, client_indices: Set[int]) -> None:
        """Discard incomplete train tasks for clients getting fresh ones.

        The all-busy restart: the simulator discarded these clients'
        in-flight work, so their stale tasks must never be aggregated.
        Finished entries stay (a later plan may still carry them); only
        pending/leased ones are cancelled — and dropped from the board
        entirely, so a long-lived server does not accumulate them (a late
        upload for a dropped id is acknowledged and ignored, exactly like
        a duplicate).
        """
        for index in client_indices:
            queue = self._queues.get(index)
            if not queue:
                continue
            for task_id in list(queue):
                entry = self._entries[task_id]
                if entry.task.kind == "train" and entry.status in (
                    PENDING,
                    LEASED,
                ):
                    entry.status = CANCELLED
                    queue.remove(task_id)
                    del self._entries[task_id]
                    stats = self._batches[entry.batch_id]
                    stats.cancelled += 1
                    self._settle_batch(stats)
            self._push_head(index)

    def _settle_batch(self, stats: BatchStats) -> None:
        """Free a fully accounted batch's packed global weights.

        Every task is completed or cancelled, so no future lease can need
        the batch's blob — dropping it caps the server's memory at the
        *outstanding* batches instead of one model copy per round served.
        Only the small :class:`BatchStats` record survives for
        introspection.
        """
        if stats.settled:
            if stats.finished is None:
                stats.finished = time.monotonic()
            self._globals.pop(stats.batch_id, None)

    def wait_for(
        self, task_ids: Sequence[int], timeout: Optional[float] = None
    ) -> Dict[int, ClientUpdate]:
        """Block until every listed task is done; ``{task_id: update}``.

        Consuming is destructive: returned tasks leave the board (their
        entries — holding full client-state updates — would otherwise
        accumulate for the lifetime of a long-lived server).  Raises
        :class:`HubClosed` if the hub shuts down first, and
        ``RuntimeError`` if an awaited task is gone from the board — it
        was cancelled by a restart batch, or already consumed (the
        trainer asked for work it also discarded — a logic error
        upstream).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if self._closed:
                    raise HubClosed("hub closed while awaiting results")
                pending = []
                for task_id in task_ids:
                    entry = self._entries.get(task_id)
                    if entry is None:
                        raise RuntimeError(
                            f"task {task_id} is gone from the board "
                            "(cancelled by a restart batch, or already "
                            "consumed)"
                        )
                    if entry.status != DONE:
                        pending.append(task_id)
                if not pending:
                    return {
                        task_id: self._entries.pop(task_id).update
                        for task_id in task_ids
                    }
                remaining = 0.5
                if deadline is not None:
                    remaining = min(remaining, deadline - time.monotonic())
                    if remaining <= 0:
                        raise TimeoutError(
                            f"tasks {pending} not completed within {timeout}s"
                        )
                self._cond.wait(remaining)

    def mark_done(self) -> None:
        """The run finished: tell polling clients to exit cleanly."""
        with self._cond:
            self._done = True
            self._cond.notify_all()

    def close(self) -> None:
        """Shut down: wake every waiter with :class:`HubClosed`."""
        with self._cond:
            self._closed = True
            self._done = True
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def register(self, clients: Optional[Sequence[int]] = None) -> int:
        """Open a session serving ``clients`` (None = any client index)."""
        with self._cond:
            if self._closed:
                raise HubClosed("hub is closed")
            session = _Session(
                session_id=next(self._session_ids),
                clients=None if clients is None else frozenset(
                    int(index) for index in clients
                ),
            )
            self._sessions[session.session_id] = session
            return session.session_id

    def _push_head(self, index: int) -> None:
        """Offer a client's queue head to the global ready heap."""
        queue = self._queues.get(index)
        if not queue:
            return
        entry = self._entries[queue[0]]
        if entry.status == PENDING:
            heapq.heappush(self._ready, entry.task_id)

    def _requeue_expired(self, now: float) -> None:
        while self._lease_heap and self._lease_heap[0][0] <= now:
            expiry, task_id = heapq.heappop(self._lease_heap)
            entry = self._entries.get(task_id)
            if (
                entry is None
                or entry.status != LEASED
                or entry.lease_expiry > expiry
            ):
                continue  # stale record: completed, cancelled, or re-leased
            entry.status = PENDING
            entry.lease_session = None
            heapq.heappush(self._ready, task_id)

    def _leasable(self, session: _Session, now: float) -> Optional[TaskEntry]:
        if session.clients is not None:
            # Scoped session: scan its own queue heads (scopes are small —
            # one index per fake client, a slice per runner).
            best: Optional[TaskEntry] = None
            for index in session.clients:
                queue = self._queues.get(index)
                if not queue:
                    continue
                entry = self._entries[queue[0]]  # per-client FIFO: head only
                if entry.status != PENDING or entry.not_before > now:
                    continue
                if best is None or entry.task_id < best.task_id:
                    best = entry
            return best
        # Serve-anything session: pop the lowest ready task id, lazily
        # discarding records that are no longer a pending queue head.
        deferred: List[int] = []
        best = None
        while self._ready:
            task_id = heapq.heappop(self._ready)
            entry = self._entries.get(task_id)
            if entry is None or entry.status != PENDING:
                continue
            queue = self._queues.get(entry.task.client_index)
            if not queue or queue[0] != task_id:
                continue
            if entry.not_before > now:
                deferred.append(task_id)
                continue
            best = entry
            break
        for task_id in deferred:
            heapq.heappush(self._ready, task_id)
        return best

    def take(
        self, session_id: int, wait_seconds: float = 0.0, have_batch: int = 0
    ) -> Dict[str, Any]:
        """Long-poll for one task; the wire's ``GET /v1/work`` semantics
        (and, with ``wait_seconds=0``, of the lease an upload brings back).

        Returns a ``{"status": ...}`` payload: a leased task (with the
        batch's global weights unless the session already holds
        ``have_batch``), a ``wait`` hint, or ``done`` when the run is
        over and nothing is left to serve.
        """
        deadline = time.monotonic() + max(0.0, wait_seconds)
        with self._cond:
            session = self._sessions.get(session_id)
            if session is None:
                raise KeyError(f"unknown session {session_id}")
            while True:
                if self._closed:
                    return {"status": STATUS_DONE}
                now = time.monotonic()
                self._requeue_expired(now)
                entry = self._leasable(session, now)
                if entry is not None:
                    entry.status = LEASED
                    entry.lease_expiry = now + self.lease_seconds
                    entry.lease_session = session_id
                    heapq.heappush(
                        self._lease_heap, (entry.lease_expiry, entry.task_id)
                    )
                    payload: Dict[str, Any] = {
                        "status": STATUS_TASK,
                        "task_id": entry.task_id,
                        "batch_id": entry.batch_id,
                        "round_index": entry.round_index,
                        "codec": entry.codec,
                        "lease_seconds": self.lease_seconds,
                        "task": entry.task.to_wire(),
                    }
                    if entry.batch_id != have_batch:
                        payload["global"] = self._globals[entry.batch_id]
                    return payload
                if self._done:
                    return {"status": STATUS_DONE}
                remaining = min(0.5, deadline - now)
                if remaining <= 0:
                    return {"status": STATUS_WAIT}
                self._cond.wait(remaining)

    def complete(
        self,
        task_id: int,
        update: ClientUpdate,
        session_id: Optional[int] = None,
    ) -> bool:
        """Record one task's result.  Idempotent: duplicates and results
        for cancelled (or unknown) tasks return ``False`` and are dropped.

        ``session_id`` names the uploading session when the upload also
        asks for its next lease; an unknown session raises ``KeyError``
        before anything is recorded.
        """
        with self._cond:
            if session_id is not None and session_id not in self._sessions:
                raise KeyError(f"unknown session {session_id}")
            entry = self._entries.get(task_id)
            if entry is None or entry.status in (DONE, CANCELLED):
                return False
            entry.status = DONE
            entry.update = update
            entry.lease_session = None
            queue = self._queues.get(entry.task.client_index)
            if queue and queue[0] == task_id:
                queue.popleft()
            elif queue and task_id in queue:  # pragma: no cover - defensive
                queue.remove(task_id)
            self._push_head(entry.task.client_index)
            self.tasks_completed += 1
            stats = self._batches[entry.batch_id]
            stats.completed += 1
            self._settle_batch(stats)
            self._cond.notify_all()
            return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> List[BatchStats]:
        """Per-batch submission/completion timing, in submission order."""
        with self._cond:
            return list(self._batches.values())

    def outstanding(self) -> int:
        """Tasks not yet completed or cancelled."""
        with self._cond:
            return sum(
                1
                for entry in self._entries.values()
                if entry.status in (PENDING, LEASED)
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WireHub(entries={len(self._entries)}, "
            f"completed={self.tasks_completed})"
        )


@dataclass
class WireBackend(ExecutionBackend):
    """Execution backend that dispatches tasks over a :class:`WireHub`.

    The trainer loop hands it each round's task batch exactly as it would
    hand the serial backend; the backend publishes the batch, blocks on
    the results the round plan requires, and returns
    :class:`ClientUpdate` objects in task order — so every aggregation
    code path upstream is untouched.

    Round semantics follow the bound trainer's plan:

    * no plan / synchronous / deadline — block until **every** task in
      the batch has a result (the deadline policy zero-weights its
      stragglers at aggregation; execution itself is synchronous);
    * async-buffer (``policy.carries_late``) — block only on the
      delivered-and-started set; stragglers stay outstanding on the
      wire, and a later round whose plan carries their arrival blocks on
      (usually just collects) the already-posted result then.

    ``time_scale`` > 0 paces dispatch: a started client's task stays
    hidden until its fleet-simulated download-done offset (scaled) has
    elapsed, so real dispatch order tracks simulated order.
    """

    hub: WireHub
    codec: str = "identity"
    time_scale: float = 0.0
    name = "wire"

    def __post_init__(self) -> None:
        self._trainer = None
        # Outstanding async straggler tasks: client_index -> task_id.
        self._carried: Dict[int, int] = {}

    def bind_trainer(self, trainer) -> None:
        """Called by ``FederatedTrainer.__init__`` (duck-typed hook)."""
        self._trainer = trainer

    def _plan(self):
        trainer = self._trainer
        return None if trainer is None else trainer.round_plan

    def _carries_late(self) -> bool:
        trainer = self._trainer
        if trainer is None or trainer.fleet_sim is None:
            return False
        return bool(trainer.fleet_sim.policy.carries_late)

    def _dispatch_pacing(self, plan) -> Optional[Dict[int, float]]:
        """Monotonic ``not_before`` per client from the simulated timelines."""
        if self.time_scale <= 0 or plan is None or self._trainer is None:
            return None
        sim = self._trainer.fleet_sim
        if sim is None:
            return None
        timelines = sim.pending_timelines()
        if timelines is None:
            return None
        now = time.monotonic()
        pacing = {}
        for position in range(len(timelines)):
            view = timelines.view(position)
            offset = max(0.0, view.download_done - plan.start)
            pacing[view.client_id] = now + offset * self.time_scale
        return pacing

    def run(
        self, tasks: Sequence[ClientTask], clients, global_state: State
    ) -> List[ClientUpdate]:
        del clients  # remote executors own all client state
        tasks = list(tasks)
        plan = self._plan()
        is_train = all(task.kind == "train" for task in tasks)
        async_round = is_train and plan is not None and self._carries_late()
        round_index = (
            plan.round_index
            if plan is not None
            else (len(self._trainer.history.rounds) + 1 if self._trainer else 0)
        )
        if async_round:
            # These clients are being restarted or re-sampled; their old
            # outstanding tasks are superseded (submit_batch cancels the
            # incomplete ones) so the markers must go first.
            for task in tasks:
                self._carried.pop(task.client_index, None)
        _, task_ids = self.hub.submit_batch(
            tasks,
            global_state,
            codec=self.codec,
            round_index=round_index,
            not_before=self._dispatch_pacing(plan),
        )
        if not async_round:
            results = self.hub.wait_for(task_ids)
            return [results[task_id] for task_id in task_ids]
        # Async-buffer round: block only on deliveries that started now.
        delivered = plan.delivered_ids
        waited: List[int] = []
        for task, task_id in zip(tasks, task_ids):
            if task.client_index in delivered:
                waited.append(task_id)
            else:
                self._carried[task.client_index] = task_id
        results = self.hub.wait_for(waited)
        updates = [results[task_id] for task_id in waited]
        started = {task.client_index for task in tasks}
        for client_id in sorted(delivered - started):
            carried_id = self._carried.pop(client_id, None)
            if carried_id is None:
                continue  # plan carried a client we never dispatched
            arrived = self.hub.wait_for([carried_id])
            updates.append(arrived[carried_id])
        return updates

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WireBackend(codec={self.codec!r}, time_scale={self.time_scale})"
