"""Lifecycle callback wiring the fleet simulator into a federated run.

:class:`FleetSimCallback` annotates every
:class:`~repro.federated.metrics.RoundRecord` with the engine's verdict
as the round completes: ``simulated_seconds`` (how long the round took on
the configured fleet under the configured round policy) and
``stragglers`` (clients whose upload missed the close).

Two ways to use it:

* **Configured runs** — a run whose ``FederationConfig`` carries a
  ``systems`` section gets this callback automatically from
  :meth:`Federation.run <repro.federated.federation.Federation.run>`;
  the trainer's attached simulator already planned the round (skipping
  busy clients, zero-weighting stragglers), and the callback completes
  it from the recorded actual bytes.
* **Post-hoc annotation** — wrap any :class:`FleetSimulator` and pass the
  callback to ``run(callbacks=[...])`` on a run *without* a ``systems``
  section: each round is observed from its record alone (no training
  effect), priced from per-client bytes under the simulator's fleet and
  round policy.

:meth:`Federation.run <repro.federated.federation.Federation.run>` puts
its automatic callback *first*, so every later callback (progress
logging, checkpoints) already sees the round's ``simulated_seconds``.

The class deliberately has no ``repro.federated`` imports (callbacks are
duck-typed), keeping :mod:`repro.systems` a leaf package.
"""

from __future__ import annotations

from typing import List, Optional

from .rounds import FleetSimulator, RoundOutcome


class FleetSimCallback:
    """Records ``simulated_seconds``/``stragglers`` on each round record."""

    def __init__(self, simulator: Optional[FleetSimulator] = None) -> None:
        self.simulator = simulator
        self.round_seconds: List[float] = []
        self.total_seconds = 0.0
        self.outcomes: List[RoundOutcome] = []

    def _resolve(self, trainer) -> Optional[FleetSimulator]:
        if self.simulator is not None:
            return self.simulator
        return getattr(trainer, "fleet_sim", None)

    def on_round_end(self, trainer, round_index: int, record) -> None:
        simulator = self._resolve(trainer)
        if simulator is None:
            return
        pending = simulator.pending
        if pending is not None and pending.round_index == round_index:
            outcome = simulator.complete_round(record)
        else:
            outcome = simulator.observe(record)
        record.simulated_seconds = outcome.round_seconds
        record.stragglers = sorted(outcome.stragglers)
        self.outcomes.append(outcome)
        self.round_seconds.append(outcome.round_seconds)
        self.total_seconds += outcome.round_seconds
