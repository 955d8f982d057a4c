"""The contract every plugin registry keeps, checked once per kind.

Each plugin kind registers through its own public decorator, so the
checks also cover the per-kind wrappers (``register_trainer``,
``register_dataset``, …) on top of :class:`repro.registry.Registry`.  The
fixed name tables (backends, presets, sweep executors, device profiles)
have no decorator and register with ``Registry.add``.
"""

import re

import pytest

from repro.data.registry import (
    DATASETS,
    PARTITIONERS,
    register_dataset,
    register_partitioner,
)
from repro.data.synthetic import DatasetSpec
from repro.experiments.presets import PRESETS
from repro.experiments.sweep import SWEEP_EXECUTORS
from repro.federated.compression import COMPRESSORS, register_compressor
from repro.federated.execution import BACKENDS
from repro.federated.registry import TRAINERS, register_trainer
from repro.federated.scenario import SAMPLERS, register_sampler
from repro.federated.trainers.fedavg import FedAvg
from repro.models.registry import MODELS, register_model
from repro.registry import Registry
from repro.systems.fleet import DEVICE_PROFILES, FLEETS, register_fleet
from repro.systems.rounds import ROUND_POLICIES, register_round_policy


def _undocumented(*args, **kwargs):
    return None


def _trainer(name):
    register_trainer(name)(type("Undocumented", (FedAvg,), {}))


def _dataset(name):
    spec = DatasetSpec(name, (1, 4, 4), 2, signal=1.0, noise=1.0, max_shift=0)
    register_dataset(spec)(_undocumented)


#: kind label -> (registry, register(name) through the kind's decorator).
KINDS = {
    "algorithm": (TRAINERS, _trainer),
    "dataset": (DATASETS, _dataset),
    "partition strategy": (
        PARTITIONERS, lambda name: register_partitioner(name)(_undocumented)
    ),
    "sampler": (SAMPLERS, lambda name: register_sampler(name)(_undocumented)),
    "fleet": (FLEETS, lambda name: register_fleet(name)(_undocumented)),
    "round policy": (
        ROUND_POLICIES, lambda name: register_round_policy(name)(_undocumented)
    ),
    "compressor": (
        COMPRESSORS, lambda name: register_compressor(name)(_undocumented)
    ),
    "model": (MODELS, lambda name: register_model(name)(_undocumented)),
}

#: Kinds whose entries carry a one-line ``summary`` (a model entry is the
#: bare builder).
SUMMARIZED = [kind for kind in KINDS if kind != "model"]

#: The name tables carry no summary; any object stands in for an entry.
for _table in (BACKENDS, PRESETS, SWEEP_EXECUTORS, DEVICE_PROFILES):
    KINDS[_table.kind] = (_table, lambda name, table=_table: table.add(name, object()))


@pytest.fixture(params=list(KINDS))
def kind(request):
    return request.param


def registry_of(kind):
    return KINDS[kind][0]


def register(kind, name):
    KINDS[kind][1](name)


def test_duplicate_name_raises(kind):
    registry = registry_of(kind)
    builtin = next(iter(registry))
    before = dict(registry)
    with pytest.raises(ValueError, match=f"{kind} '{builtin}' is already registered"):
        register(kind, builtin)
    assert dict(registry) == before


def test_unknown_name_raises_naming_kind_and_choices(kind):
    registry = registry_of(kind)
    choices = re.escape(repr(tuple(registry)))
    message = f"unknown {kind} 'bogus'; choose from {choices}"
    with pytest.raises(KeyError, match=message):
        registry["bogus"]
    assert "bogus" not in registry
    assert registry.get("bogus") is None


def test_unregister_unknown_raises(kind):
    with pytest.raises(KeyError, match=f"{kind} 'bogus' is not registered"):
        registry_of(kind).unregister("bogus")


def test_entries_keep_registration_order(kind):
    registry = registry_of(kind)
    before = tuple(registry)
    try:
        register(kind, "contract-b")
        register(kind, "contract-a")
        assert tuple(registry) == (*before, "contract-b", "contract-a")
        last = list(registry.values())[-1]
        assert registry.unregister("contract-a") is last
    finally:
        for name in ("contract-a", "contract-b"):
            if name in registry:
                registry.unregister(name)
    assert tuple(registry) == before


def test_registry_is_read_only(kind):
    registry = registry_of(kind)
    assert isinstance(registry, Registry)
    with pytest.raises(TypeError):
        registry["contract-x"] = None
    assert not hasattr(registry, "pop")


@pytest.mark.parametrize("summarized", SUMMARIZED)
def test_undocumented_factory_has_empty_summary(summarized):
    registry = registry_of(summarized)
    register(summarized, "contract-nodoc")
    try:
        assert registry["contract-nodoc"].summary == ""
    finally:
        registry.unregister("contract-nodoc")
    assert "contract-nodoc" not in registry
