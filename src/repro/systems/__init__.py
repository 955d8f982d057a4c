"""Fleet simulation: deterministic discrete-event systems modelling.

The paper's argument is deployment cost on constrained edge fleets
(~1 MB/s uplinks, compute-limited devices).  This subsystem turns that
into a first-class, *simulated-time* axis for every experiment:

* :mod:`~repro.systems.clock` / :mod:`~repro.systems.events` — a seeded
  event queue (:class:`SimClock`) with stable ``(time, seq)``
  tie-breaking and a drained-event trace, so one seed reproduces one
  timeline bit-for-bit;
* :mod:`~repro.systems.fleet` — :class:`DeviceProfile` hardware classes
  and the :data:`FLEETS` registry (``tiers``/``uniform``/
  ``profile-list``): the single owner of the
  client→device assignment, shared by the simulator and the
  availability sampler;
* :mod:`~repro.systems.timeline` — download→compute→upload timelines for
  a whole cohort, priced as arrays from each client's *actual* bytes
  (Sub-FedAvg mask sizes, compressed updates) and conv FLOPs;
* :mod:`~repro.systems.rounds` — the :data:`ROUND_POLICIES`
  registry (``synchronous``/``deadline``/``async-buffer``) and the
  :class:`FleetSimulator` engine, the one thing that prices a round:
  plan a round at its start (busy clients, deliveries with staleness
  weights, predicted stragglers), complete it at its end from recorded
  bytes, or replay a finished history post hoc;
* :mod:`~repro.systems.config` — the serializable ``systems`` section of
  a :class:`~repro.federated.builder.FederationConfig`;
* :mod:`~repro.systems.callback` / :mod:`~repro.systems.report` — the
  :class:`FleetSimCallback` run integration and time-to-accuracy
  reporting over simulated seconds.

Quick taste — synchronous vs deadline semantics on the same history::

    from repro.systems import (
        AsyncBufferPolicy, DeadlinePolicy, Fleet, FleetSimulator,
        SynchronousPolicy, DEVICE_PROFILES,
    )
    fleet = Fleet(cycle=(DEVICE_PROFILES["edge-phone"],
                         DEVICE_PROFILES["raspberry-pi"]))
    sync = FleetSimulator(fleet, SynchronousPolicy(),
                          flops_per_example=1e6, examples_per_round=100)
    print(sync.simulate(history).total_seconds)          # wait for stragglers
    rushed = FleetSimulator(fleet, DeadlinePolicy(1.0),
                            flops_per_example=1e6, examples_per_round=100)
    print(rushed.simulate(history).total_seconds)        # close at 1 s

The package is a leaf: it imports nothing from :mod:`repro.federated`, so
the federated layer (builder, trainers, callbacks) can build on it
without cycles.
"""

from .clock import SimClock
from .events import (
    COMPUTE_DONE,
    DOWNLOAD_DONE,
    EVENT_KINDS,
    ROUND_CLOSED,
    UPLOAD_DONE,
    Event,
)
from .fleet import (
    DEVICE_PROFILES,
    EDGE_PHONE,
    RASPBERRY_PI,
    WORKSTATION,
    DeviceProfile,
    FLEETS,
    Fleet,
    build_fleet,
    register_fleet,
    resolve_profiles,
)
from .timeline import (
    ClientTimeline,
    RoundTimelines,
    TrafficMap,
    build_round_timelines,
)
from .rounds import (
    AsyncBufferPolicy,
    DeadlinePolicy,
    Delivery,
    FleetSimReport,
    FleetSimulator,
    LazyDeliveries,
    PolicyDecision,
    RoundOutcome,
    RoundPlan,
    ROUND_POLICIES,
    RoundPolicy,
    SynchronousPolicy,
    build_round_policy,
    register_round_policy,
)
from .config import SystemsConfig
from .callback import FleetSimCallback
from .report import (
    compare_simulated_time_to_accuracy,
    simulated_time_curve,
    simulated_time_to_accuracy,
    total_simulated_seconds,
    total_stragglers,
)

__all__ = [
    "SimClock",
    "Event",
    "EVENT_KINDS",
    "DOWNLOAD_DONE",
    "COMPUTE_DONE",
    "UPLOAD_DONE",
    "ROUND_CLOSED",
    "DeviceProfile",
    "DEVICE_PROFILES",
    "EDGE_PHONE",
    "RASPBERRY_PI",
    "WORKSTATION",
    "Fleet",
    "FLEETS",
    "register_fleet",
    "build_fleet",
    "resolve_profiles",
    "ClientTimeline",
    "RoundTimelines",
    "TrafficMap",
    "build_round_timelines",
    "RoundPolicy",
    "ROUND_POLICIES",
    "SynchronousPolicy",
    "DeadlinePolicy",
    "AsyncBufferPolicy",
    "PolicyDecision",
    "Delivery",
    "LazyDeliveries",
    "RoundPlan",
    "RoundOutcome",
    "FleetSimReport",
    "FleetSimulator",
    "register_round_policy",
    "build_round_policy",
    "SystemsConfig",
    "FleetSimCallback",
    "simulated_time_curve",
    "simulated_time_to_accuracy",
    "compare_simulated_time_to_accuracy",
    "total_simulated_seconds",
    "total_stragglers",
]
