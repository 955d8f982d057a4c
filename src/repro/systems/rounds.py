"""Round-completion policies and the :class:`FleetSimulator` engine.

The server's *round-completion policy* decides when a communication round
closes and which client uploads it aggregates:

* ``synchronous`` — wait for every participant (the paper's protocol: a
  round lasts as long as its slowest client plus server overhead),
* ``deadline`` — close the round after a fixed budget of seconds; late
  clients become zero-weight stragglers (their wasted upload is still
  metered, their update is dropped),
* ``async-buffer`` — FedBuff-style: close as soon as the first ``K``
  uploads arrive, from *any* in-flight client — stragglers keep running
  across round boundaries and deliver later with staleness-discounted
  weights.

Policies are a registry (:data:`ROUND_POLICIES`) selected through
the ``systems`` section of a
:class:`~repro.federated.builder.FederationConfig`.

:class:`FleetSimulator` drives one simulation: it owns the
:class:`~repro.systems.clock.SimClock`, the in-flight client set, and the
two-phase round protocol —

1. :meth:`~FleetSimulator.plan_round` (round start): price the sampled
   cohort's estimated timelines as arrays, ask the policy who will
   deliver, and hand the trainer a :class:`RoundPlan` (busy clients to
   skip, deliveries with staleness weights, predicted stragglers);
2. :meth:`~FleetSimulator.complete_round` (round end): re-price the
   timelines from the *actual* per-client bytes the round recorded,
   schedule the uploads that carry into later rounds, drain the clock to
   the close, and advance simulated time.

:meth:`~FleetSimulator.observe` collapses the two phases for post-hoc use
(the estimate *is* the record), and :meth:`~FleetSimulator.simulate`
replays a whole finished :class:`~repro.federated.metrics.History` on a
fresh engine.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..registry import Registry
from .clock import SimClock
from .events import UPLOAD_DONE, Event
from .fleet import Fleet
from .timeline import (
    ClientTimeline,
    RoundTimelines,
    TrafficLike,
    TrafficMap,
    build_round_timelines,
)


# ----------------------------------------------------------------------
# Policy decisions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Delivery:
    """One upload the server aggregates this round.

    ``staleness`` counts the rounds since the client started the work
    (0 = started this round); ``weight`` is the policy's aggregation
    discount for that staleness (1.0 under synchronous semantics).
    """

    client_id: int
    round_started: int
    staleness: int
    weight: float


class LazyDeliveries(SequenceABC):
    """A delivery list stored as four aligned arrays.

    Constructing a million :class:`Delivery` objects would eat the whole
    array-pricing win, so the deliveries stay arrays and a
    :class:`Delivery` is materialized only when someone indexes in.
    """

    __slots__ = (
        "client_ids",
        "rounds_started",
        "staleness",
        "weights",
        "_id_set",
        "_weight_map",
    )

    def __init__(self, client_ids, rounds_started, staleness, weights) -> None:
        self.client_ids = np.asarray(client_ids, dtype=np.int64)
        self.rounds_started = np.asarray(rounds_started, dtype=np.int64)
        self.staleness = np.asarray(staleness, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.float64)
        self._id_set: Optional[frozenset] = None
        self._weight_map: Optional[Dict[int, float]] = None

    @classmethod
    def uniform(cls, client_ids: np.ndarray, round_index: int) -> "LazyDeliveries":
        """Fresh on-time deliveries: staleness 0, weight 1.0 for everyone."""
        count = int(client_ids.size)
        return cls(
            client_ids,
            np.full(count, round_index, dtype=np.int64),
            np.zeros(count, dtype=np.int64),
            np.ones(count, dtype=np.float64),
        )

    def __len__(self) -> int:
        return int(self.client_ids.size)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(
                self[position] for position in range(*index.indices(len(self)))
            )
        return Delivery(
            client_id=int(self.client_ids[index]),
            round_started=int(self.rounds_started[index]),
            staleness=int(self.staleness[index]),
            weight=float(self.weights[index]),
        )

    @property
    def id_set(self) -> frozenset:
        if self._id_set is None:
            self._id_set = frozenset(self.client_ids.tolist())
        return self._id_set

    def weight_for(self, client_id: int) -> float:
        if self._weight_map is None:
            self._weight_map = dict(
                zip(self.client_ids.tolist(), self.weights.tolist())
            )
        return self._weight_map.get(int(client_id), 0.0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LazyDeliveries):
            return NotImplemented
        return (
            np.array_equal(self.client_ids, other.client_ids)
            and np.array_equal(self.rounds_started, other.rounds_started)
            and np.array_equal(self.staleness, other.staleness)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LazyDeliveries(n={len(self)})"


@dataclass(frozen=True)
class PolicyDecision:
    """A policy's verdict on one round: weighted deliveries, arrays kept."""

    deliveries: LazyDeliveries
    stragglers: Tuple[int, ...]  # fresh clients whose upload misses the close
    close_seconds: float  # seconds from round start to close (excl. overhead)


class RoundPolicy:
    """Strategy interface: when does a round close, who gets aggregated."""

    name = "abstract"
    #: Do late clients keep running into later rounds (async) or is their
    #: work dropped when the round closes (deadline)?
    carries_late = False

    def decide(
        self,
        round_index: int,
        start: float,
        fresh: RoundTimelines,
        carried: Sequence[ClientTimeline],
    ) -> PolicyDecision:
        """Who delivers and when the round closes, from estimated timelines."""
        raise NotImplementedError(f"{type(self).__name__} does not implement decide")

    def close_seconds_for(
        self,
        plan: "RoundPlan",
        fresh: RoundTimelines,
        carried: Sequence[ClientTimeline],
    ) -> float:
        """Close time for *re-priced* timelines, keeping the plan's verdict.

        The trainer has already acted on the plan (who trains, whose
        update is aggregated), so the completion pass never changes the
        delivered set — it only re-prices when the close happens from the
        actual bytes.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement close_seconds_for"
        )

    def weight(self, staleness: int) -> float:
        return 1.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SynchronousPolicy(RoundPolicy):
    """Wait for every participant — the paper's semantics."""

    name = "synchronous"

    def decide(self, round_index, start, fresh, carried) -> PolicyDecision:
        return PolicyDecision(
            deliveries=LazyDeliveries.uniform(fresh.client_ids, round_index),
            stragglers=(),
            close_seconds=fresh.max_duration(),
        )

    def close_seconds_for(self, plan, fresh, carried) -> float:
        return fresh.max_duration()


class DeadlinePolicy(RoundPolicy):
    """Close the round after ``deadline_seconds``; late uploads are dropped."""

    name = "deadline"

    def __init__(self, deadline_seconds: float) -> None:
        if deadline_seconds <= 0:
            raise ValueError(
                "the deadline policy requires systems.deadline_seconds > 0, "
                f"got {deadline_seconds}"
            )
        self.deadline_seconds = deadline_seconds

    def decide(self, round_index, start, fresh, carried) -> PolicyDecision:
        on_time = fresh.durations <= self.deadline_seconds
        late_ids = fresh.client_ids[~on_time]
        close = (
            self.deadline_seconds if late_ids.size else fresh.max_duration()
        )
        return PolicyDecision(
            deliveries=LazyDeliveries.uniform(
                fresh.client_ids[on_time], round_index
            ),
            stragglers=tuple(late_ids.tolist()),
            close_seconds=close,
        )

    def close_seconds_for(self, plan, fresh, carried) -> float:
        if plan.stragglers:
            return self.deadline_seconds
        return min(self.deadline_seconds, fresh.max_duration())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DeadlinePolicy(deadline_seconds={self.deadline_seconds})"


class AsyncBufferPolicy(RoundPolicy):
    """FedBuff-style: aggregate the first ``K`` arrivals, discount staleness.

    Arrivals are ordered by ``(finish time, client id)`` over both the
    clients starting this round and the in-flight stragglers carried from
    earlier rounds.  A carried arrival's weight is
    ``(1 + staleness) ** -staleness_exponent`` with staleness counted in
    rounds — the FedBuff ``1/sqrt(1+τ)`` discount at the default 0.5.
    ``buffer_size=0`` auto-sizes ``K`` to half the pending arrivals
    (minimum 1).
    """

    name = "async-buffer"
    carries_late = True

    def __init__(self, buffer_size: int = 0, staleness_exponent: float = 0.5) -> None:
        if buffer_size < 0:
            raise ValueError(f"buffer_size must be >= 0, got {buffer_size}")
        if staleness_exponent < 0:
            raise ValueError(
                f"staleness_exponent must be >= 0, got {staleness_exponent}"
            )
        self.buffer_size = buffer_size
        self.staleness_exponent = staleness_exponent

    def _buffer(self, pending: int) -> int:
        if self.buffer_size > 0:
            return min(self.buffer_size, pending)
        return max(1, pending // 2)

    def weight(self, staleness: int) -> float:
        return float((1 + staleness) ** -self.staleness_exponent)

    def _weights(self, staleness: np.ndarray) -> np.ndarray:
        # Per-unique scalar pow: a cohort has at most a handful of distinct
        # staleness values, and routing each through `weight()` keeps every
        # weight bit-identical to CPython's float pow.
        unique, inverse = np.unique(staleness, return_inverse=True)
        table = np.array(
            [self.weight(int(value)) for value in unique.tolist()],
            dtype=np.float64,
        )
        return table[inverse]

    def decide(self, round_index, start, fresh, carried) -> PolicyDecision:
        carried = tuple(carried)
        ids = fresh.client_ids
        finishes = fresh.finishes
        rounds_started = np.full(len(fresh), round_index, dtype=np.int64)
        if carried:
            ids = np.concatenate(
                [ids, np.array([t.client_id for t in carried], dtype=np.int64)]
            )
            finishes = np.concatenate(
                [finishes, np.array([t.finish for t in carried], dtype=np.float64)]
            )
            rounds_started = np.concatenate(
                [
                    rounds_started,
                    np.array([t.round_index for t in carried], dtype=np.int64),
                ]
            )
        if ids.size == 0:
            empty = np.array([], dtype=np.int64)
            return PolicyDecision(
                deliveries=LazyDeliveries.uniform(empty, round_index),
                stragglers=(),
                close_seconds=0.0,
            )
        # Matches sorted(key=(finish, client_id)): lexsort's last key is
        # primary, and client ids are unique so the order is total.
        order = np.lexsort((ids, finishes))
        k = self._buffer(int(ids.size))
        take = order[:k]
        staleness = round_index - rounds_started[take]
        late = order[k:]
        fresh_late = late[rounds_started[late] == round_index]
        return PolicyDecision(
            deliveries=LazyDeliveries(
                ids[take], rounds_started[take], staleness, self._weights(staleness)
            ),
            stragglers=tuple(ids[fresh_late].tolist()),
            close_seconds=max(0.0, float(finishes[take[-1]]) - start),
        )

    def close_seconds_for(self, plan, fresh, carried) -> float:
        finish_by_id = {t.client_id: t.finish for t in carried}
        finish_by_id.update(
            zip(fresh.client_ids.tolist(), fresh.finishes.tolist())
        )
        finishes = [
            finish_by_id[cid]
            for cid in plan.deliveries.client_ids.tolist()
            if cid in finish_by_id
        ]
        if not finishes:
            return 0.0
        return max(0.0, max(finishes) - plan.start)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AsyncBufferPolicy(buffer_size={self.buffer_size}, "
            f"staleness_exponent={self.staleness_exponent})"
        )


# ----------------------------------------------------------------------
# Policy registry
# ----------------------------------------------------------------------
#: Registered round policies, ``name -> Plugin`` whose
#: ``factory(systems_config)`` returns a :class:`RoundPolicy`.
ROUND_POLICIES = Registry("round policy")
register_round_policy = ROUND_POLICIES.register


def build_round_policy(systems) -> RoundPolicy:
    """Instantiate the configured policy from a ``SystemsConfig``."""
    return ROUND_POLICIES[systems.round_policy].factory(systems)


@register_round_policy(
    "synchronous", summary="wait for every participant (paper protocol)"
)
def _synchronous_policy(systems) -> SynchronousPolicy:
    return SynchronousPolicy()


@register_round_policy(
    "deadline", summary="close after T seconds; late uploads become 0-weight"
)
def _deadline_policy(systems) -> DeadlinePolicy:
    return DeadlinePolicy(systems.deadline_seconds)


@register_round_policy(
    "async-buffer",
    summary="FedBuff-style: first K arrivals, staleness-discounted weights",
)
def _async_buffer_policy(systems) -> AsyncBufferPolicy:
    return AsyncBufferPolicy(systems.buffer_size, systems.staleness_exponent)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RoundPlan:
    """The server's schedule for one round, issued at round start.

    Trainers consume it before local work runs: ``busy`` clients (still
    in flight from an earlier round under async semantics) are skipped,
    ``deliveries`` is the aggregation list (this round's on-time clients
    plus carried arrivals, each with its staleness weight), and
    ``stragglers`` are the clients starting this round whose upload will
    miss the close.
    """

    round_index: int
    start: float
    sampled: Tuple[int, ...]
    started: Tuple[int, ...]
    busy: Tuple[int, ...]
    deliveries: LazyDeliveries
    stragglers: Tuple[int, ...]
    close_seconds: float
    round_seconds: float

    @property
    def delivered_ids(self) -> frozenset:
        return self.deliveries.id_set

    def delivery_weight(self, client_id: int) -> float:
        """Aggregation weight for one client (0.0 when not delivered)."""
        return self.deliveries.weight_for(client_id)


@dataclass(frozen=True)
class RoundOutcome:
    """What actually happened, priced from the round's recorded bytes."""

    round_index: int
    start: float
    close_seconds: float
    round_seconds: float
    deliveries: LazyDeliveries
    stragglers: Tuple[int, ...]
    busy: Tuple[int, ...]
    events: Tuple[Event, ...]


@dataclass
class FleetSimReport:
    """A whole history replayed through the engine (post-hoc mode)."""

    outcomes: List[RoundOutcome] = field(default_factory=list)
    trace: Tuple[Event, ...] = ()

    @property
    def round_seconds(self) -> List[float]:
        return [outcome.round_seconds for outcome in self.outcomes]

    @property
    def total_seconds(self) -> float:
        return float(sum(outcome.round_seconds for outcome in self.outcomes))

    @property
    def total_stragglers(self) -> int:
        return sum(len(outcome.stragglers) for outcome in self.outcomes)

    def time_to_accuracy(self, history, target: float) -> Optional[float]:
        """Simulated seconds until ``history`` reaches ``target`` accuracy."""
        elapsed = 0.0
        for record, outcome in zip(history.rounds, self.outcomes):
            elapsed += outcome.round_seconds
            if record.mean_accuracy is not None and record.mean_accuracy >= target:
                return elapsed
        return None


class FleetSimulator:
    """Deterministic discrete-event simulation of one federated deployment."""

    def __init__(
        self,
        fleet: Fleet,
        policy: RoundPolicy,
        flops_per_example: float,
        examples_per_round: float,
        server_overhead_seconds: float = 0.5,
        jitter: float = 0.0,
        seed: int = 0,
    ) -> None:
        if flops_per_example <= 0 or examples_per_round <= 0:
            raise ValueError(
                "flops_per_example and examples_per_round must be positive"
            )
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self.fleet = fleet
        self.policy = policy
        self.flops_per_example = flops_per_example
        self.examples_per_round = examples_per_round
        self.server_overhead_seconds = server_overhead_seconds
        self.jitter = jitter
        self.seed = seed
        self.clock = SimClock(seed=seed)
        self.in_flight: Dict[int, ClientTimeline] = {}
        self.pending: Optional[RoundPlan] = None
        self.total_seconds = 0.0
        self.outcomes: List[RoundOutcome] = []
        self._plan_traffic: TrafficLike = {}
        self._plan_draws: Optional[np.ndarray] = None

    def fresh(self) -> "FleetSimulator":
        """A new engine with the same parameters and seed, at time zero."""
        return FleetSimulator(
            fleet=self.fleet,
            policy=self.policy,
            flops_per_example=self.flops_per_example,
            examples_per_round=self.examples_per_round,
            server_overhead_seconds=self.server_overhead_seconds,
            jitter=self.jitter,
            seed=self.seed,
        )

    # ------------------------------------------------------------------
    # Two-phase live protocol
    # ------------------------------------------------------------------
    def _jitter_draws(self, count: int) -> Optional[np.ndarray]:
        """One batched RNG draw per plan, one factor per started client."""
        if self.jitter <= 0.0 or count == 0:
            return None
        return self.clock.rng.uniform(
            1.0 - self.jitter, 1.0 + self.jitter, size=count
        )

    def plan_round(
        self, round_index: int, sampled: Sequence[int], traffic: TrafficMap
    ) -> RoundPlan:
        """Phase 1 (round start): estimated timelines → the server's schedule.

        ``traffic`` holds the *estimated* per-client bytes (dense model
        size; the committed mask's size for Sub-FedAvg); the completion
        phase re-prices from the recorded actuals.  A dangling previous
        plan (a caller that never completed) is finalized from its own
        estimates first, so the clock can never silently stall.
        """
        if self.pending is not None:
            self.complete_round(None)
        start = self.clock.now
        if isinstance(sampled, np.ndarray):
            sampled = tuple(sampled.tolist())
        else:
            sampled = tuple(int(cid) for cid in sampled)
        busy = tuple(cid for cid in sampled if cid in self.in_flight)
        if busy and len(busy) == len(sampled):
            # Every sampled client is mid-flight: restart them all (their
            # stale work is discarded) rather than running an empty round.
            for cid in busy:
                self.in_flight.pop(cid)
                self.clock.discard(cid)
            busy = ()
        started = tuple(cid for cid in sampled if cid not in set(busy))
        self._plan_draws = self._jitter_draws(len(started))
        self._plan_traffic = dict(traffic) if isinstance(traffic, dict) else traffic
        fresh = build_round_timelines(
            self.fleet,
            round_index,
            start,
            started,
            traffic,
            self.flops_per_example,
            self.examples_per_round,
            jitter_factors=self._plan_draws,
        )
        carried = tuple(self.in_flight.values()) if self.policy.carries_late else ()
        decision = self.policy.decide(round_index, start, fresh, carried)
        plan = RoundPlan(
            round_index=round_index,
            start=start,
            sampled=sampled,
            started=started,
            busy=busy,
            deliveries=decision.deliveries,
            stragglers=decision.stragglers,
            close_seconds=decision.close_seconds,
            round_seconds=decision.close_seconds + self.server_overhead_seconds,
        )
        self.pending = plan
        return plan

    def pending_timelines(self):
        """Per-client timelines of the pending plan's started cohort.

        The serving layer paces real dispatch with these: a client's
        simulated download+compute offset (scaled by the server's
        ``time_scale``) delays when its task becomes visible on the
        wire, so real arrival order tracks simulated arrival order.
        Reuses the plan's stored traffic and jitter draws, so reading
        the timelines never advances the RNG stream.  ``None`` when no
        plan is pending or nothing started this round.
        """
        plan = self.pending
        if plan is None or not plan.started:
            return None
        return build_round_timelines(
            self.fleet,
            plan.round_index,
            plan.start,
            plan.started,
            self._plan_traffic,
            self.flops_per_example,
            self.examples_per_round,
            jitter_factors=self._plan_draws,
        )

    def complete_round(self, record=None) -> RoundOutcome:
        """Phase 2 (round end): re-price from actuals, drain events, advance.

        ``record`` is the finished
        :class:`~repro.federated.metrics.RoundRecord` (its
        ``per_client_traffic()`` supplies actual bytes); ``None`` falls
        back to the plan's estimates.  The plan's delivered/straggler
        verdict is kept — the trainer already acted on it — only the
        close time is re-priced.
        """
        plan = self.pending
        if plan is None:
            raise RuntimeError("complete_round called without a pending plan")
        self.pending = None
        traffic: TrafficLike = (
            dict(record.per_client_traffic()) if record is not None
            else self._plan_traffic
        )
        close, drained = self._reprice_and_drain(plan, traffic)
        round_seconds = close + self.server_overhead_seconds
        self.clock.advance_to(plan.start + round_seconds)
        self.total_seconds += round_seconds
        outcome = RoundOutcome(
            round_index=plan.round_index,
            start=plan.start,
            close_seconds=close,
            round_seconds=round_seconds,
            deliveries=plan.deliveries,
            stragglers=plan.stragglers,
            busy=plan.busy,
            events=drained,
        )
        self.outcomes.append(outcome)
        return outcome

    def _reprice_and_drain(
        self, plan: RoundPlan, traffic: TrafficLike
    ) -> Tuple[float, Tuple[Event, ...]]:
        """Re-price the cohort, keep the plan's verdict, drain to the close.

        Per-phase events for this round's cohort are *not* scheduled — at a
        million clients the heap would dominate the round — so the heap
        holds only uploads that carry into later rounds, and the drained
        trace contains only those.
        """
        fresh = build_round_timelines(
            self.fleet,
            plan.round_index,
            plan.start,
            plan.started,
            traffic,
            self.flops_per_example,
            self.examples_per_round,
            jitter_factors=self._plan_draws,
        )
        carried = tuple(self.in_flight.values())
        close = self.policy.close_seconds_for(plan, fresh, carried)
        if not self.policy.carries_late:
            return close, tuple(self.clock.pop_until(plan.start + close))
        delivered_ids = plan.delivered_ids
        undelivered = [
            position
            for position, cid in enumerate(fresh.client_ids.tolist())
            if cid not in delivered_ids
        ]
        views = [fresh.view(position) for position in undelivered]
        for timeline in views:
            self.clock.schedule_at(
                timeline.finish,
                UPLOAD_DONE,
                client_id=timeline.client_id,
                round_index=plan.round_index,
            )
        drained = tuple(self.clock.pop_until(plan.start + close))
        for cid in delivered_ids:
            self.in_flight.pop(cid, None)
            self.clock.discard(cid)
        for timeline in views:
            self.in_flight[timeline.client_id] = timeline
        return close, drained

    # ------------------------------------------------------------------
    # Post-hoc mode
    # ------------------------------------------------------------------
    def observe(self, record) -> RoundOutcome:
        """Plan + complete one finished round from its record alone."""
        traffic = dict(record.per_client_traffic())
        self.plan_round(record.round_index, tuple(record.sampled_clients), traffic)
        return self.complete_round(record)

    def simulate(self, history) -> FleetSimReport:
        """Replay a finished history on a fresh engine (this one untouched)."""
        engine = self.fresh()
        outcomes = [engine.observe(record) for record in history.rounds]
        return FleetSimReport(outcomes=outcomes, trace=tuple(engine.clock.trace))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FleetSimulator(policy={self.policy.name!r}, "
            f"fleet={self.fleet!r}, t={self.clock.now:.1f}s)"
        )
