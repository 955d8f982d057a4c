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

from ..data.registry import PARTITIONERS
from ..federated.scenario import SAMPLERS, ScenarioConfig
from ..registry import Registry


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


#: The scales, ``name -> ScalePreset``.
PRESETS = Registry("preset")
for _preset in (
    ScalePreset(
        name="smoke",
        num_clients=8,
        rounds=4,
        sample_fraction=0.5,
        n_train=480,
        n_test=240,
        local_epochs=3,
    ),
    ScalePreset(
        name="small",
        num_clients=20,
        rounds=15,
        sample_fraction=0.3,
        n_train=2000,
        n_test=600,
        local_epochs=5,
    ),
    ScalePreset(
        name="paper",
        num_clients=100,
        rounds=500,
        sample_fraction=0.1,
        n_train=50000,
        n_test=10000,
        local_epochs=5,
    ),
):
    PRESETS.add(_preset.name, _preset)
del _preset


def partition_override(partition: str, **params) -> Dict[str, Any]:
    """Config overrides selecting a *registered* partition strategy.

    Returns a ``{"data": {...}}`` override; ``params`` are
    :class:`~repro.data.partition.DataConfig` fields (e.g.
    ``dirichlet_alpha=0.1``).  The partitioner name is resolved through
    the registry so a typo or unregistered strategy raises here, where the
    grid is declared, instead of inside a sweep worker.
    """
    PARTITIONERS[partition]  # raises KeyError for unknown strategies
    return {"data": {"partition": partition, **params}}


def sampler_override(sampler: str, **params) -> Dict[str, Any]:
    """Config overrides selecting a *registered* participation model.

    Returns a ``{"scenario": ScenarioConfig(...)}`` override; ``params``
    are :class:`~repro.federated.scenario.ScenarioConfig` fields (e.g.
    ``dropout=0.2``).  The sampler name is validated via the registry at
    declaration time.
    """
    SAMPLERS[sampler]  # raises KeyError for unknown samplers
    return {"scenario": ScenarioConfig(sampler=sampler, **params)}
