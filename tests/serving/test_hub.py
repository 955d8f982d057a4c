"""WireHub dispatch semantics: FIFO, leases, cancellation, idempotence.

The hub is the meeting point between one trainer thread and many wire
clients; every rule it enforces exists to keep a wire-served run
aggregating exactly what an in-process run would.  These tests pin the
rules down without HTTP in the way.
"""

import time

import numpy as np
import pytest

from repro.federated.execution import ClientTask, ClientUpdate
from repro.serving import HubClosed, WireHub
from repro.serving.protocol import STATUS_DONE, STATUS_TASK, STATUS_WAIT


def state():
    return {"w": np.arange(4, dtype=np.float64)}


def train(index):
    return ClientTask(client_index=index, kind="train", load="global")


def evaluate(index):
    return ClientTask(client_index=index, kind="evaluate", load="global")


def update(index):
    return ClientUpdate(client_index=index, client_id=index, num_examples=1)


class TestDispatchOrder:
    def test_per_client_fifo_head_only(self):
        hub = WireHub()
        _, (first,) = hub.submit_batch([train(0)], state(), round_index=1)
        _, (second,) = hub.submit_batch([evaluate(0)], state(), round_index=1)
        session = hub.register()
        got = hub.take(session)
        assert got["status"] == STATUS_TASK and got["task_id"] == first
        # The head is leased, the second task is behind it: nothing to serve.
        assert hub.take(session)["status"] == STATUS_WAIT
        hub.complete(first, update(0))
        assert hub.take(session)["task_id"] == second

    def test_lowest_task_id_served_first_across_clients(self):
        hub = WireHub()
        _, ids = hub.submit_batch([train(2), train(0), train(1)], state())
        session = hub.register()
        served = [hub.take(session)["task_id"] for _ in range(3)]
        assert served == sorted(ids)

    def test_session_scope_filters_clients(self):
        hub = WireHub()
        _, (for_zero, for_one) = hub.submit_batch(
            [train(0), train(1)], state()
        )
        only_one = hub.register([1])
        assert hub.take(only_one)["task_id"] == for_one
        assert hub.take(only_one)["status"] == STATUS_WAIT
        anything = hub.register()
        assert hub.take(anything)["task_id"] == for_zero

    def test_not_before_hides_tasks_until_due(self):
        hub = WireHub()
        soon = time.monotonic() + 0.15
        hub.submit_batch([train(0)], state(), not_before={0: soon})
        scoped = hub.register([0])
        unscoped = hub.register()
        assert hub.take(scoped)["status"] == STATUS_WAIT
        assert hub.take(unscoped)["status"] == STATUS_WAIT
        got = hub.take(unscoped, wait_seconds=2.0)
        assert got["status"] == STATUS_TASK
        assert time.monotonic() >= soon

    def test_done_after_run_finishes(self):
        hub = WireHub()
        session = hub.register()
        hub.mark_done()
        assert hub.take(session)["status"] == STATUS_DONE

    def test_unknown_session_rejected(self):
        hub = WireHub()
        with pytest.raises(KeyError):
            hub.take(12345)


class TestGlobalWeightsEtag:
    def test_global_sent_once_per_batch(self):
        hub = WireHub()
        batch, _ = hub.submit_batch([train(0), train(1)], state())
        session = hub.register()
        first = hub.take(session)
        assert "global" in first and first["batch_id"] == batch
        # Same batch, client says it already holds it: no re-download.
        second = hub.take(session, have_batch=batch)
        assert "global" not in second

    def test_new_batch_resends_global(self):
        hub = WireHub()
        old_batch, (old,) = hub.submit_batch([train(0)], state())
        session = hub.register()
        hub.take(session)
        hub.complete(old, update(0))
        new_batch, _ = hub.submit_batch([evaluate(0)], state())
        got = hub.take(session, have_batch=old_batch)
        assert got["batch_id"] == new_batch and "global" in got


class TestResults:
    def test_complete_is_idempotent(self):
        hub = WireHub()
        _, (task_id,) = hub.submit_batch([train(0)], state())
        assert hub.complete(task_id, update(0)) is True
        assert hub.complete(task_id, update(0)) is False
        assert hub.complete(987654, update(0)) is False
        assert hub.tasks_completed == 1

    def test_unknown_session_refused_before_recording(self):
        hub = WireHub()
        _, (task_id,) = hub.submit_batch([train(0)], state())
        session = hub.register()
        with pytest.raises(KeyError, match="unknown session"):
            hub.complete(task_id, update(0), session_id=session + 1)
        assert hub.outstanding() == 1
        assert hub.complete(task_id, update(0), session_id=session) is True

    def test_wait_for_returns_updates_in_request_order(self):
        hub = WireHub()
        _, ids = hub.submit_batch([train(0), train(1)], state())
        for task_id, index in zip(ids, (0, 1)):
            hub.complete(task_id, update(index))
        results = hub.wait_for(ids)
        assert [results[task_id].client_index for task_id in ids] == [0, 1]

    def test_wait_for_times_out(self):
        hub = WireHub()
        _, ids = hub.submit_batch([train(0)], state())
        with pytest.raises(TimeoutError):
            hub.wait_for(ids, timeout=0.05)

    def test_wait_for_raises_when_hub_closes(self):
        hub = WireHub()
        _, ids = hub.submit_batch([train(0)], state())
        hub.close()
        with pytest.raises(HubClosed):
            hub.wait_for(ids, timeout=1.0)


class TestLeases:
    def test_expired_lease_requeues_first_result_wins(self):
        hub = WireHub(lease_seconds=0.05)
        _, (task_id,) = hub.submit_batch([train(0)], state())
        flaky = hub.register()
        steady = hub.register()
        assert hub.take(flaky)["task_id"] == task_id  # ...then disconnects
        time.sleep(0.06)
        retaken = hub.take(steady, wait_seconds=1.0)
        assert retaken["task_id"] == task_id
        assert hub.complete(task_id, update(0)) is True
        # The flaky client's late duplicate is acknowledged and dropped.
        assert hub.complete(task_id, update(0)) is False
        assert hub.tasks_completed == 1

    def test_live_lease_is_not_redispatched(self):
        hub = WireHub(lease_seconds=30.0)
        hub.submit_batch([train(0)], state())
        first, second = hub.register(), hub.register()
        assert hub.take(first)["status"] == STATUS_TASK
        assert hub.take(second)["status"] == STATUS_WAIT


class TestRestartCancellation:
    def test_new_train_batch_cancels_stale_train(self):
        hub = WireHub()
        _, (stale,) = hub.submit_batch([train(0)], state(), round_index=1)
        _, (fresh,) = hub.submit_batch([train(0)], state(), round_index=2)
        session = hub.register()
        assert hub.take(session)["task_id"] == fresh
        with pytest.raises(RuntimeError, match="cancelled"):
            hub.wait_for([stale], timeout=0.5)

    def test_evaluate_batch_does_not_cancel_train(self):
        hub = WireHub()
        _, (pending,) = hub.submit_batch([train(0)], state(), round_index=1)
        hub.submit_batch([evaluate(0)], state(), round_index=1)
        session = hub.register()
        # The straggler trains first, then evaluates — round order holds.
        assert hub.take(session)["task_id"] == pending

    def test_completed_train_survives_restart_batch(self):
        hub = WireHub()
        _, (finished,) = hub.submit_batch([train(0)], state(), round_index=1)
        hub.complete(finished, update(0))
        hub.submit_batch([train(0)], state(), round_index=2)
        results = hub.wait_for([finished], timeout=0.5)
        assert results[finished].client_index == 0


class TestMemoryBounds:
    """A long-lived server must not accumulate per-round state."""

    def test_settled_batch_frees_global_blob(self):
        hub = WireHub()
        _, ids = hub.submit_batch([train(0), train(1)], state())
        assert len(hub._globals) == 1
        for task_id, index in zip(ids, (0, 1)):
            hub.complete(task_id, update(index))
        assert hub._globals == {}

    def test_wait_for_consumes_entries_off_the_board(self):
        hub = WireHub()
        _, ids = hub.submit_batch([train(0), train(1)], state())
        for task_id, index in zip(ids, (0, 1)):
            hub.complete(task_id, update(index))
        hub.wait_for(ids)
        assert hub._entries == {}
        # A late duplicate for a consumed task is still dropped quietly.
        assert hub.complete(ids[0], update(0)) is False
        # Introspection survives consumption.
        (stats,) = hub.stats()
        assert stats.completed == 2 and stats.settled
        with pytest.raises(RuntimeError, match="gone from the board"):
            hub.wait_for(ids, timeout=0.1)

    def test_cancelled_tasks_freed_and_settle_their_batch(self):
        hub = WireHub()
        _, (stale,) = hub.submit_batch([train(0)], state(), round_index=1)
        hub.submit_batch([train(0)], state(), round_index=2)
        # The restart batch settled round 1's batch: blob + entry freed.
        assert stale not in hub._entries
        assert len(hub._globals) == 1  # only round 2's blob remains
        stats = hub.stats()[0]
        assert stats.cancelled == 1 and stats.settled


class TestStats:
    def test_batch_latency_recorded_on_completion(self):
        hub = WireHub()
        _, ids = hub.submit_batch([train(0), train(1)], state(), round_index=3)
        (stats,) = hub.stats()
        assert stats.size == 2 and stats.latency_seconds is None
        for task_id, index in zip(ids, (0, 1)):
            hub.complete(task_id, update(index))
        (stats,) = hub.stats()
        assert stats.round_index == 3
        assert stats.completed == 2
        assert stats.latency_seconds is not None and stats.latency_seconds >= 0

    def test_outstanding_counts_pending_and_leased(self):
        hub = WireHub()
        _, ids = hub.submit_batch([train(0), train(1)], state())
        session = hub.register()
        hub.take(session)
        assert hub.outstanding() == 2
        for task_id, index in zip(ids, (0, 1)):
            hub.complete(task_id, update(index))
        assert hub.outstanding() == 0
