"""Scale presets and scenario-override helpers for the paper's experiments.

The paper's runs (100 clients, 300-500 rounds, full 50k-example datasets)
take GPU-days; the presets here reproduce the same protocol at three
scales.  ``smoke`` finishes in seconds per algorithm and is what the
benchmark suite runs; ``small`` gives more faithful numbers in minutes;
``paper`` is the full protocol for completeness (expect hours on CPU).

Experiment grids that vary the *data scenario* build their override dicts
with :func:`partition_override` / :func:`sampler_override`, which validate
names against the partitioner and sampler registries — so a grid over a
misspelled or unregistered strategy fails at declaration time, not three
cells into a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from ..data.registry import get_partitioner
from ..federated.scenario import ScenarioConfig, get_sampler
from ..systems import SystemsConfig, get_fleet, get_round_policy


@dataclass(frozen=True)
class ScalePreset:
    """Federation sizing shared by every experiment driver."""

    name: str
    num_clients: int
    rounds: int
    sample_fraction: float
    n_train: int
    n_test: int
    local_epochs: int
    eval_every: int = 0


PRESETS: Dict[str, ScalePreset] = {
    "smoke": ScalePreset(
        name="smoke",
        num_clients=8,
        rounds=4,
        sample_fraction=0.5,
        n_train=480,
        n_test=240,
        local_epochs=3,
    ),
    "small": ScalePreset(
        name="small",
        num_clients=20,
        rounds=15,
        sample_fraction=0.3,
        n_train=2000,
        n_test=600,
        local_epochs=5,
    ),
    "paper": ScalePreset(
        name="paper",
        num_clients=100,
        rounds=500,
        sample_fraction=0.1,
        n_train=50000,
        n_test=10000,
        local_epochs=5,
    ),
}


def get_preset(name: str) -> ScalePreset:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name]


def partition_override(partition: str, **params) -> Dict[str, Any]:
    """Config overrides selecting a *registered* partition strategy.

    Returns a ``{"data": {...}}`` override; ``params`` are
    :class:`~repro.data.partition.DataConfig` fields (e.g.
    ``dirichlet_alpha=0.1``).  The partitioner name is resolved through
    the registry so a typo or unregistered strategy raises here, where the
    grid is declared, instead of inside a sweep worker.
    """
    get_partitioner(partition)  # raises KeyError for unknown strategies
    return {"data": {"partition": partition, **params}}


def sampler_override(sampler: str, **params) -> Dict[str, Any]:
    """Config overrides selecting a *registered* participation model.

    Returns a ``{"scenario": ScenarioConfig(...)}`` override; ``params``
    are :class:`~repro.federated.scenario.ScenarioConfig` fields (e.g.
    ``dropout=0.2``).  The sampler name is validated via the registry at
    declaration time.
    """
    get_sampler(sampler)  # raises KeyError for unknown samplers
    return {"scenario": ScenarioConfig(sampler=sampler, **params)}


def systems_override(round_policy: str, **params) -> Dict[str, Any]:
    """Config overrides enabling fleet simulation under a *registered* policy.

    Returns a ``{"systems": SystemsConfig(...)}`` override; ``params``
    are :class:`~repro.systems.config.SystemsConfig` fields (e.g.
    ``deadline_seconds=1.0``, ``buffer_size=2``).  The policy name — and
    its parameter constraints, like a positive deadline — are validated
    here, at grid-declaration time.
    """
    get_round_policy(round_policy)  # raises KeyError for unknown policies
    return {"systems": SystemsConfig(round_policy=round_policy, **params)}


def fleet_override(fleet: str, **params) -> Dict[str, Any]:
    """Config overrides selecting a *registered* fleet shape.

    Returns a ``{"scenario": ScenarioConfig(...)}`` override; ``params``
    are the remaining scenario fields (typically ``profiles=(...)`` for
    the ``tiers`` shape or ``client_profiles=(...)`` for
    ``profile-list``).  The fleet name is validated via the registry at
    declaration time.
    """
    get_fleet(fleet)  # raises KeyError for unknown fleet shapes
    return {"scenario": ScenarioConfig(fleet=fleet, **params)}
