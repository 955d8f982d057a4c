"""The seeded discrete-event clock driving every fleet simulation.

:class:`SimClock` is a priority queue of :class:`~repro.systems.events.Event`
objects plus the current simulated time.  Three properties make it the
deterministic spine of the subsystem:

* **Stable tie-breaking** — events are heap-ordered by ``(time, seq)``
  where ``seq`` increments at schedule time, so two events at the same
  instant always drain in schedule order, independent of dict/hash order
  or platform.
* **Seeded randomness** — the clock owns the simulation's only RNG
  (``numpy`` generator seeded at construction); anything stochastic
  (duration jitter) draws from it in a fixed call order,
  so one seed reproduces one timeline bit-for-bit.
* **A drained-event trace** — every popped event is appended to
  :attr:`trace`, which the determinism tests compare across runs and
  which makes "what did the fleet do" inspectable after a simulation.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

import numpy as np

from .events import Event


class SimClock:
    """Seeded event queue with stable ordering and a drain trace."""

    def __init__(self, seed: Optional[int] = 0) -> None:
        self.now = 0.0
        self.rng = np.random.default_rng(seed)
        self._heap: List[Event] = []
        self._seq = 0
        self.trace: List[Event] = []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(
        self, time: float, kind: str, client_id: int = -1, round_index: int = -1
    ) -> Event:
        """Enqueue an event at an absolute simulated time (>= now)."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past: time {time} < now {self.now}"
            )
        event = Event(
            time=time,
            seq=self._seq,
            kind=kind,
            client_id=client_id,
            round_index=round_index,
        )
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def schedule(
        self, delay: float, kind: str, client_id: int = -1, round_index: int = -1
    ) -> Event:
        """Enqueue an event ``delay`` seconds from now."""
        if delay < 0.0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(
            self.now + delay, kind, client_id=client_id, round_index=round_index
        )

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def pop(self) -> Event:
        """Pop the next event and advance ``now`` to its time."""
        if not self._heap:
            raise IndexError("pop from an empty SimClock")
        event = heapq.heappop(self._heap)
        self.now = event.time
        self.trace.append(event)
        return event

    def pop_until(self, time: float) -> List[Event]:
        """Drain every event with ``event.time <= time``; ``now`` ends at ``time``.

        The returned list is in drain order — i.e. ``(time, seq)`` order —
        and is also appended to :attr:`trace`.
        """
        drained: List[Event] = []
        while self._heap and self._heap[0].time <= time:
            drained.append(self.pop())
        self.advance_to(time)
        return drained

    def advance_to(self, time: float) -> None:
        """Move ``now`` forward without draining (no-op if already past)."""
        if time > self.now:
            self.now = time

    def discard(self, client_id: int) -> int:
        """Remove every queued event of one client (a dropped straggler).

        Returns the number of events removed.  The heap is rebuilt, which
        is fine at fleet-simulation scale (a few events per client per
        round).
        """
        kept = [event for event in self._heap if event.client_id != client_id]
        removed = len(self._heap) - len(kept)
        if removed:
            heapq.heapify(kept)
            self._heap = kept
        return removed

    def __len__(self) -> int:
        return len(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimClock(now={self.now:.3f}, pending={len(self._heap)})"
