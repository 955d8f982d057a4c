"""Client sampling per communication round.

Three participation models ship here; they (and any third-party model) are
registered in :mod:`~repro.federated.scenario` and selected per run with
``FederationConfig(scenario=ScenarioConfig(sampler=...))``:

* :class:`ClientSampler` — the paper's uniform ``k = max(1, K*N)`` draw,
* :class:`FixedSampler` — a pinned subset (deterministic tests, standalone),
* :class:`AvailabilitySampler` — realistic fleets: per-client participation
  probabilities (optionally derived from a
  :class:`~repro.systems.fleet.Fleet`'s device assignment — the *same*
  assignment the wall-clock model and fleet simulator price with, so a
  slow device class can both straggle and show up rarely) plus i.i.d.
  per-round dropout.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

import numpy as np

from ..systems.fleet import Fleet


class ClientSampler:
    """Uniformly sample ``max(1, round(K * N))`` clients without replacement.

    Matches the paper's ``k = max(K × N)`` with sampling rate ``K``: at
    every round a fresh random subset of the ``N`` available clients is
    drawn from the sampler's own seeded generator.
    """

    def __init__(
        self,
        num_clients: int,
        sample_fraction: float = 0.1,
        seed: Optional[int] = None,
    ) -> None:
        if num_clients <= 0:
            raise ValueError(f"num_clients must be positive, got {num_clients}")
        if not 0.0 < sample_fraction <= 1.0:
            raise ValueError(f"sample_fraction must be in (0, 1], got {sample_fraction}")
        self.num_clients = num_clients
        self.sample_fraction = sample_fraction
        self._rng = np.random.default_rng(seed)

    @property
    def clients_per_round(self) -> int:
        return max(1, int(round(self.sample_fraction * self.num_clients)))

    def sample(self) -> List[int]:
        """Indices of this round's participants (sorted for determinism)."""
        chosen = self._rng.choice(
            self.num_clients, size=self.clients_per_round, replace=False
        )
        return sorted(int(index) for index in chosen)


class FixedSampler(ClientSampler):
    """Always return the same subset (deterministic tests / standalone runs).

    ``num_clients`` is the federation size the subset is drawn from; every
    entry of ``clients`` must be a valid index into it, so fixed subsets
    compose with availability masks and per-client device assignments.
    When omitted it is inferred as ``max(clients) + 1`` for backward
    compatibility.
    """

    def __init__(
        self, clients: Sequence[int], num_clients: Optional[int] = None
    ) -> None:
        if not clients:
            raise ValueError("FixedSampler needs at least one client")
        indices = [int(index) for index in clients]
        if num_clients is None:
            num_clients = max(indices) + 1
        out_of_range = sorted(i for i in indices if not 0 <= i < num_clients)
        if out_of_range:
            raise ValueError(
                f"client indices {out_of_range} out of range for "
                f"num_clients={num_clients}"
            )
        if len(set(indices)) != len(indices):
            raise ValueError(f"duplicate client indices in {indices}")
        super().__init__(num_clients=num_clients, sample_fraction=1.0)
        self._fixed = sorted(indices)

    @property
    def clients_per_round(self) -> int:
        return len(self._fixed)

    def sample(self) -> List[int]:
        return list(self._fixed)


class AvailabilitySampler(ClientSampler):
    """Uniform candidate draw filtered by per-client availability + dropout.

    Models a realistic fleet: the server invites a uniform subset each
    round (as :class:`ClientSampler` does), but an invited client only
    participates with its *availability probability* — a fixed per-client
    trait — and then survives an i.i.d. per-round ``dropout`` (transient
    failures).  At least one invited client always participates, since a
    round with zero uploads is undefined.

    Per-client probabilities come from one of (in precedence order):

    * ``participation_probs`` — an explicit per-client sequence,
    * ``fleet`` (or the legacy ``profiles`` list, which builds a
      round-robin ``tiers`` :class:`~repro.systems.fleet.Fleet`) +
      ``profile_participation`` — the fleet assigns each client its
      device class, each class maps to a probability — so the same slow
      device class can both straggle in the wall-clock/fleet simulation
      and show up rarely here,
    * ``participation`` ± ``participation_spread`` — a seeded uniform draw
      per client, clipped to ``(0, 1]``.

    Everything is drawn from the sampler's own seeded generator: two
    samplers built with the same arguments produce identical rounds.
    """

    def __init__(
        self,
        num_clients: int,
        sample_fraction: float = 0.1,
        seed: Optional[int] = None,
        participation: float = 1.0,
        participation_spread: float = 0.0,
        dropout: float = 0.0,
        participation_probs: Optional[Sequence[float]] = None,
        profiles: Optional[Sequence] = None,
        profile_participation: Optional[Mapping[str, float]] = None,
        fleet: Optional[Fleet] = None,
    ) -> None:
        super().__init__(num_clients, sample_fraction, seed=seed)
        if not 0.0 < participation <= 1.0:
            raise ValueError(f"participation must be in (0, 1], got {participation}")
        if participation_spread < 0.0:
            raise ValueError(
                f"participation_spread must be >= 0, got {participation_spread}"
            )
        if not 0.0 <= dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {dropout}")
        self.dropout = dropout
        if fleet is None and profiles is not None:
            fleet = Fleet(cycle=tuple(profiles))
        self.fleet = fleet
        if participation_probs is not None:
            probs = np.asarray(participation_probs, dtype=float)
            if probs.shape != (num_clients,):
                raise ValueError(
                    f"participation_probs must have one entry per client "
                    f"({num_clients}), got shape {probs.shape}"
                )
            if (probs <= 0).any() or (probs > 1).any():
                raise ValueError("participation_probs must be in (0, 1]")
        elif fleet is not None:
            # One probability per profile *slot*, gathered per client by the
            # fleet's vectorized assignment — value-identical to looking up
            # profile_for(i).name per client, without the O(n) Python loop.
            lookup = dict(profile_participation or {})
            slot_probs = np.array(
                [
                    lookup.get(profile.name, participation)
                    for profile in fleet.profile_table()
                ],
                dtype=float,
            )
            probs = slot_probs[fleet.profile_indices(np.arange(num_clients))]
        else:
            low = participation - participation_spread
            high = participation + participation_spread
            probs = self._rng.uniform(low, high, size=num_clients)
        self.participation_probs = np.clip(probs, 1e-9, 1.0)

    def sample(self) -> List[int]:
        """This round's participants: invited ∩ available ∩ not-dropped."""
        invited = self._rng.choice(
            self.num_clients, size=self.clients_per_round, replace=False
        )
        draws = self._rng.random(size=invited.size)
        survive = self.participation_probs[invited] * (1.0 - self.dropout)
        participants = invited[draws < survive]
        if participants.size == 0:
            # Never return an empty round; the seeded pick keeps determinism.
            keep = self._rng.integers(invited.size)
            participants = invited[[int(keep)]]
        return sorted(int(index) for index in participants)

