"""Device profiles and the fleet registry: *which hardware is each client?*

A :class:`Fleet` is the single owner of the client→device assignment:
the fleet simulator prices rounds with it and the
:class:`~repro.federated.sampler.AvailabilitySampler` derives per-device
participation from it.  Fleet *shapes* are a registry
(:data:`FLEETS`, filled with :func:`register_fleet`) selected through
the ``scenario`` section of a run config:

* ``tiers`` — heterogeneous device classes assigned round-robin (the
  historical rule, byte-compatible with the old modulo map),
* ``uniform`` — every client is the same device class,
* ``profile-list`` — an explicit per-client list of device-class names.

:class:`DeviceProfile` (and the built-in ``edge-phone`` /
``raspberry-pi`` / ``workstation`` profiles) are defined here — the
simulation subsystem must stay importable without the federated package —
and re-exported from :mod:`repro.federated`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..registry import Registry


@dataclass(frozen=True)
class DeviceProfile:
    """Compute and network capabilities of one client device.

    Defaults approximate a mid-range phone with the paper's constrained
    uplink: 1 GFLOP/s effective conv throughput, 1 MB/s up, 8 MB/s down.
    """

    name: str = "edge-phone"
    flops_per_second: float = 1e9
    upload_bytes_per_second: float = 1e6
    download_bytes_per_second: float = 8e6

    def __post_init__(self) -> None:
        for field_name in (
            "flops_per_second",
            "upload_bytes_per_second",
            "download_bytes_per_second",
        ):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")


EDGE_PHONE = DeviceProfile()
RASPBERRY_PI = DeviceProfile(
    name="raspberry-pi",
    flops_per_second=3e8,
    upload_bytes_per_second=2e6,
    download_bytes_per_second=2e6,
)
WORKSTATION = DeviceProfile(
    name="workstation",
    flops_per_second=5e10,
    upload_bytes_per_second=1.25e7,
    download_bytes_per_second=1.25e7,
)

#: Built-in profiles by name — how serialized configs reference a device
#: class (``ScenarioConfig(profiles=("edge-phone", "raspberry-pi"))``).
DEVICE_PROFILES = Registry("device profile")
for _profile in (EDGE_PHONE, RASPBERRY_PI, WORKSTATION):
    DEVICE_PROFILES.add(_profile.name, _profile)
del _profile


def resolve_profiles(names: Sequence[str]) -> Tuple[DeviceProfile, ...]:
    """Turn device-class names into profiles; unknown names raise ``KeyError``."""
    return tuple(DEVICE_PROFILES[name] for name in names)


class Fleet:
    """A deterministic client → :class:`DeviceProfile` assignment.

    ``cycle`` holds the device classes assigned round-robin for client ids
    beyond any explicit assignment, so a :class:`Fleet` built from a
    profile cycle reproduces the historical ``client_id % len(profiles)``
    rule for *every* client id, not just the first ``num_clients``.
    ``assignments`` (optional) pins the first ``len(assignments)`` clients
    explicitly (the ``profile-list`` shape).
    """

    def __init__(
        self,
        cycle: Sequence[DeviceProfile] = (EDGE_PHONE,),
        assignments: Sequence[DeviceProfile] = (),
    ) -> None:
        if not cycle and not assignments:
            raise ValueError("a Fleet needs at least one device profile")
        self.cycle: Tuple[DeviceProfile, ...] = tuple(cycle) or (assignments[-1],)
        self.assignments: Tuple[DeviceProfile, ...] = tuple(assignments)
        self._rate_table: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def profile_for(self, client_id: int) -> DeviceProfile:
        """The device profile of one client (round-robin past assignments)."""
        if client_id < 0:
            raise ValueError(f"client_id must be >= 0, got {client_id}")
        if client_id < len(self.assignments):
            return self.assignments[client_id]
        return self.cycle[client_id % len(self.cycle)]

    # ------------------------------------------------------------------
    # Vectorized access (the million-client hot path)
    # ------------------------------------------------------------------
    def profile_table(self) -> Tuple[DeviceProfile, ...]:
        """All distinct profile *slots* — assignments first, then the cycle.

        :meth:`profile_indices` indexes into this tuple, so any per-profile
        quantity (rates, participation probabilities, …) can be gathered for
        a whole cohort with one fancy-index instead of an O(n) Python loop.
        """
        return (*self.assignments, *self.cycle)

    def profile_indices(self, client_ids) -> np.ndarray:
        """Index of each client's profile in :meth:`profile_table`."""
        ids = np.asarray(client_ids, dtype=np.int64)
        if ids.size and int(ids.min()) < 0:
            raise ValueError("client ids must be >= 0")
        pinned = len(self.assignments)
        indices = pinned + (ids % len(self.cycle))
        if pinned:
            indices = np.where(ids < pinned, ids, indices)
        return indices

    def _rates(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._rate_table is None:
            table = self.profile_table()
            self._rate_table = (
                np.array([p.flops_per_second for p in table], dtype=np.float64),
                np.array([p.upload_bytes_per_second for p in table], dtype=np.float64),
                np.array([p.download_bytes_per_second for p in table], dtype=np.float64),
            )
        return self._rate_table

    def profile_arrays(
        self, client_ids
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-client ``(flops/s, upload B/s, download B/s)`` float64 arrays.

        The values are the *same float objects* :meth:`profile_for`
        returns, so an array-priced round agrees bit-for-bit with pricing
        each client from its profile.
        """
        indices = self.profile_indices(client_ids)
        flops, up, down = self._rates()
        return flops[indices], up[indices], down[indices]

    def device_classes(self) -> Tuple[str, ...]:
        """Distinct device-class names in this fleet, in first-seen order."""
        seen: Dict[str, None] = {}
        for profile in (*self.assignments, *self.cycle):
            seen.setdefault(profile.name, None)
        return tuple(seen)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Fleet(classes={self.device_classes()})"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
#: Registered fleet shapes, ``name -> Plugin`` whose
#: ``factory(num_clients, scenario)`` returns a :class:`Fleet`;
#: ``scenario`` is a :class:`~repro.federated.scenario.ScenarioConfig`
#: (duck-typed here — the factory reads ``profiles`` and
#: ``client_profiles``).
FLEETS = Registry("fleet")
register_fleet = FLEETS.register


def build_fleet(scenario, num_clients: int) -> Fleet:
    """Instantiate the scenario's configured fleet shape via the registry."""
    return FLEETS[scenario.fleet].factory(num_clients, scenario)


@register_fleet(
    "tiers",
    summary="heterogeneous device classes assigned round-robin "
    "(client_id mod classes, the historical rule)",
)
def _tiers_fleet(num_clients: int, scenario) -> Fleet:
    profiles = resolve_profiles(scenario.profiles) or (EDGE_PHONE,)
    return Fleet(cycle=profiles)


@register_fleet("uniform", summary="every client is the same device class")
def _uniform_fleet(num_clients: int, scenario) -> Fleet:
    profiles = resolve_profiles(scenario.profiles) or (EDGE_PHONE,)
    return Fleet(cycle=profiles[:1])


@register_fleet(
    "profile-list", summary="explicit per-client device-class names"
)
def _profile_list_fleet(num_clients: int, scenario) -> Fleet:
    names = scenario.client_profiles
    if not names:
        raise ValueError(
            "the 'profile-list' fleet requires scenario.client_profiles "
            "(one device-class name per client)"
        )
    if len(names) < num_clients:
        raise ValueError(
            f"scenario.client_profiles lists {len(names)} device classes "
            f"for {num_clients} clients"
        )
    assignments = resolve_profiles(names)
    return Fleet(cycle=assignments[-1:], assignments=assignments)
