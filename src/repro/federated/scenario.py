"""Participation scenarios: the sampler registry and ``ScenarioConfig``.

The third scenario axis (after dataset and partition) is *who shows up
each round*.  This module mirrors the trainer and partitioner registries:
a participation model registers a factory with :func:`register_sampler`
and is selected per run via the ``scenario`` section of
:class:`~repro.federated.builder.FederationConfig` — no edits to the
builder or trainers:

>>> from repro.federated.scenario import SAMPLERS, register_sampler
>>> @register_sampler("every-other-round")
... def every_other(num_clients, sample_fraction, seed, scenario):
...     ...  # return a ClientSampler-compatible object
>>> SAMPLERS.unregister("every-other-round").factory is every_other
True

Shipped models: ``uniform`` (the paper's protocol), ``fixed`` (a pinned
subset) and ``availability`` (per-client participation probabilities
plus i.i.d. dropout — see
:class:`~repro.federated.sampler.AvailabilitySampler`).

The scenario also names the run's *fleet* — which hardware each client
is, resolved through the :data:`~repro.systems.fleet.FLEETS` registry.
The fleet is shared by everything device-aware: the availability
sampler's profile map and the
:class:`~repro.systems.rounds.FleetSimulator` configured by the
``systems`` section.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Tuple

from ..registry import Registry
from ..systems.fleet import FLEETS, Fleet, build_fleet
from .sampler import (
    AvailabilitySampler,
    ClientSampler,
    FixedSampler,
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative description of the participation model of one run.

    Serializes as the ``scenario`` section of a
    :class:`~repro.federated.builder.FederationConfig`.  The default is the
    paper's uniform sampling, so a config without a ``scenario`` section
    (every pre-scenario payload) behaves exactly as before.

    The ``availability`` model reads ``participation`` (±
    ``participation_spread``) and ``dropout``, or — when set — the explicit
    ``participation_probs`` (one probability per client), or the fleet's
    device assignment with ``profile_participation`` mapping each device
    class name to a probability.  ``fixed_clients`` pins the ``fixed``
    model's subset.  Third-party samplers read whichever fields they
    need.

    ``fleet`` selects the client→device assignment shape from the
    :func:`~repro.systems.fleet.register_fleet` registry: ``tiers`` (the
    default — ``profiles`` assigned round-robin, the historical rule),
    ``uniform`` or ``profile-list`` (explicit per-client
    ``client_profiles``).
    """

    sampler: str = "uniform"
    participation: float = 1.0
    participation_spread: float = 0.0
    dropout: float = 0.0
    fixed_clients: Tuple[int, ...] = ()
    participation_probs: Tuple[float, ...] = ()
    profiles: Tuple[str, ...] = ()
    profile_participation: Tuple[Tuple[str, float], ...] = ()
    fleet: str = "tiers"
    client_profiles: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # JSON deserialization hands us lists; normalize to the hashable form.
        if not isinstance(self.fixed_clients, tuple):
            object.__setattr__(
                self, "fixed_clients", tuple(int(i) for i in self.fixed_clients)
            )
        if not isinstance(self.participation_probs, tuple):
            object.__setattr__(
                self,
                "participation_probs",
                tuple(float(p) for p in self.participation_probs),
            )
        if not isinstance(self.profiles, tuple):
            object.__setattr__(self, "profiles", tuple(self.profiles))
        if not isinstance(self.client_profiles, tuple):
            object.__setattr__(self, "client_profiles", tuple(self.client_profiles))
        # Accept the natural mapping spelling ({"edge-phone": 0.2}) as well
        # as pair sequences; canonicalize to name-sorted tuples so equal
        # mappings compare (and hash) equal regardless of insertion order.
        raw = self.profile_participation
        items = raw.items() if isinstance(raw, Mapping) else raw
        pairs = tuple(sorted((str(name), float(prob)) for name, prob in items))
        if pairs != self.profile_participation:
            object.__setattr__(self, "profile_participation", pairs)
        if not 0.0 < self.participation <= 1.0:
            raise ValueError(
                f"participation must be in (0, 1], got {self.participation}"
            )
        if self.participation_spread < 0.0:
            raise ValueError(
                f"participation_spread must be >= 0, got {self.participation_spread}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        FLEETS[self.fleet]  # raises KeyError for unknown fleet shapes

    def build_fleet(self, num_clients: int) -> Fleet:
        """The client→device assignment this scenario describes."""
        return build_fleet(self, num_clients)


#: Registered participation models, ``name -> Plugin`` whose
#: ``factory(num_clients, sample_fraction, seed, scenario)`` returns an
#: object with the :class:`~repro.federated.sampler.ClientSampler`
#: interface (``sample()`` and ``clients_per_round``).
SAMPLERS = Registry("sampler")
register_sampler = SAMPLERS.register


def build_sampler(
    scenario: ScenarioConfig,
    num_clients: int,
    sample_fraction: float,
    seed: int,
) -> ClientSampler:
    """Instantiate the configured participation model via the registry."""
    return SAMPLERS[scenario.sampler].factory(
        num_clients, sample_fraction, seed, scenario
    )


@register_sampler("uniform", summary="uniform k = max(1, K*N) draw (paper protocol)")
def _uniform_sampler(
    num_clients: int, sample_fraction: float, seed: int, scenario: ScenarioConfig
) -> ClientSampler:
    return ClientSampler(num_clients, sample_fraction, seed=seed)


@register_sampler("fixed", summary="pinned client subset every round")
def _fixed_sampler(
    num_clients: int, sample_fraction: float, seed: int, scenario: ScenarioConfig
) -> FixedSampler:
    # An empty fixed_clients pins the whole federation.
    clients = scenario.fixed_clients or tuple(range(num_clients))
    return FixedSampler(clients, num_clients=num_clients)


@register_sampler(
    "availability",
    summary="per-client participation probabilities + per-round dropout",
)
def _availability_sampler(
    num_clients: int, sample_fraction: float, seed: int, scenario: ScenarioConfig
) -> AvailabilitySampler:
    # Only hand the sampler a fleet when the scenario actually describes
    # one — otherwise the spread-based probability draw applies.
    fleet = None
    if scenario.profiles or scenario.client_profiles:
        fleet = scenario.build_fleet(num_clients)
    return AvailabilitySampler(
        num_clients,
        sample_fraction,
        seed=seed,
        participation=scenario.participation,
        participation_spread=scenario.participation_spread,
        dropout=scenario.dropout,
        participation_probs=scenario.participation_probs or None,
        fleet=fleet,
        profile_participation=dict(scenario.profile_participation) or None,
    )

