"""Dataset and partitioner registries: the plugin point for data scenarios.

The paper's claims live or die on the *data scenario* — which dataset the
federation trains on and how pathologically it is split across clients.
This module makes both axes pluggable, mirroring the trainer registry in
:mod:`repro.federated.registry`: a new dataset or skew pattern is one
decorated function, no edits to ``builder.py`` or ``partition.py``.

Datasets register a :class:`~repro.data.synthetic.DatasetSpec` plus a
loader producing ``(train, test)`` :class:`~repro.data.dataset
.ArrayDataset` pairs:

>>> from repro.data.registry import register_dataset
>>> from repro.data.synthetic import DatasetSpec
>>> @register_dataset(DatasetSpec("tiny", (1, 8, 8), 4,
...                               signal=2.0, noise=1.0, max_shift=0))
... def load_tiny(spec, n_train, n_test, seed):
...     ...  # return (train, test) ArrayDatasets

Partitioners register a function over ``(labels, num_clients)`` returning
per-client index arrays, declaring which
:class:`~repro.data.partition.DataConfig` fields parameterize it:

>>> from repro.data.registry import register_partitioner
>>> @register_partitioner("first-come", summary="contiguous equal chunks")
... def first_come(labels, num_clients, rng=None):
...     ...  # return a list of index arrays, one per client

``SPECS`` in :mod:`repro.data.synthetic` is a live derived view of the
dataset registry, so registered datasets appear in the CLI, the model
factory and config validation immediately.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Mapping, Sequence, Tuple, Union

from .._doc import first_doc_line


# ----------------------------------------------------------------------
# Dataset registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DatasetEntry:
    """One registry entry: the static spec plus its split loader.

    ``loader(spec, n_train, n_test, seed)`` must return a ``(train, test)``
    pair of datasets exposing ``labels`` (the partitioners' contract).
    """

    name: str
    spec: Any  # DatasetSpec (kept untyped to avoid an import cycle)
    loader: Callable
    summary: str = ""


_DATASETS: Dict[str, DatasetEntry] = {}


def register_dataset(spec, *, summary: str = "") -> Callable:
    """Decorator adding a dataset to the registry under ``spec.name``.

    Apply to the loader function; the decorated function is returned
    unchanged so it stays directly callable.
    """

    def decorator(loader: Callable) -> Callable:
        name = spec.name
        if name in _DATASETS:
            raise ValueError(f"dataset {name!r} is already registered")
        doc = summary or first_doc_line(loader)
        _DATASETS[name] = DatasetEntry(
            name=name, spec=spec, loader=loader, summary=doc
        )
        return loader

    return decorator


def get_dataset(name: str) -> DatasetEntry:
    """Look up one registered dataset; raises ``KeyError`` for unknown names."""
    try:
        return _DATASETS[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; choose from {available_datasets()}"
        ) from None


def available_datasets() -> Tuple[str, ...]:
    """Registered dataset names, in registration order."""
    return tuple(_DATASETS)


def dataset_entries() -> Tuple[DatasetEntry, ...]:
    """All dataset registry entries, in registration order."""
    return tuple(_DATASETS.values())


def unregister_dataset(name: str) -> DatasetEntry:
    """Remove one entry (plugin teardown / test isolation); returns it."""
    try:
        return _DATASETS.pop(name)
    except KeyError:
        raise KeyError(f"dataset {name!r} is not registered") from None


class SpecView(MappingABC):
    """Live mapping view ``name -> DatasetSpec`` over the dataset registry.

    ``repro.data.synthetic.SPECS`` is an instance of this class, so every
    existing ``name in SPECS`` / ``SPECS[name]`` / ``SPECS.items()`` call
    site keeps working while reflecting late registrations immediately.
    """

    def __getitem__(self, name: str):
        return get_dataset(name).spec

    def __iter__(self) -> Iterator[str]:
        return iter(available_datasets())

    def __len__(self) -> int:
        return len(_DATASETS)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SpecView({available_datasets()})"


# ----------------------------------------------------------------------
# Partitioner registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PartitionerSpec:
    """One registry entry: the partition function plus its config contract.

    ``params`` maps the function's keyword arguments to the
    :class:`~repro.data.partition.DataConfig` field each one reads (e.g.
    ``{"alpha": "dirichlet_alpha"}``).  Dispatch forwards only the fields
    the config actually has, so third-party partitioners may declare
    parameters with function defaults that no config field backs.
    """

    name: str
    fn: Callable
    params: Mapping[str, str] = field(default_factory=dict)
    summary: str = ""

    def kwargs_from(self, config) -> Dict[str, Any]:
        """Keyword arguments for ``fn`` pulled from a config object."""
        sentinel = object()
        kwargs = {}
        for fn_kw, config_field in self.params.items():
            value = getattr(config, config_field, sentinel)
            if value is not sentinel:
                kwargs[fn_kw] = value
        return kwargs


_PARTITIONERS: Dict[str, PartitionerSpec] = {}


def register_partitioner(
    name: str,
    *,
    params: Union[Mapping[str, str], Sequence[str]] = (),
    summary: str = "",
) -> Callable:
    """Decorator adding a partition function to the registry under ``name``.

    The function must accept ``(labels, num_clients, ...)`` plus an ``rng``
    keyword and return one index array per client.  ``params`` declares the
    config-driven keyword arguments: either a sequence of names shared by
    the function and :class:`DataConfig`, or a mapping ``fn_kw ->
    config_field`` when they differ.
    """
    if not isinstance(params, MappingABC):
        params = {param: param for param in params}

    def decorator(fn: Callable) -> Callable:
        if name in _PARTITIONERS:
            raise ValueError(f"partitioner {name!r} is already registered")
        doc = summary or first_doc_line(fn)
        _PARTITIONERS[name] = PartitionerSpec(
            name=name, fn=fn, params=dict(params), summary=doc
        )
        return fn

    return decorator


def get_partitioner(name: str) -> PartitionerSpec:
    """Look up one registered partitioner; raises ``KeyError`` if unknown."""
    try:
        return _PARTITIONERS[name]
    except KeyError:
        raise KeyError(
            f"unknown partition strategy {name!r}; "
            f"choose from {available_partitioners()}"
        ) from None


def available_partitioners() -> Tuple[str, ...]:
    """Registered partitioner names, in registration order."""
    return tuple(_PARTITIONERS)


def partitioner_specs() -> Tuple[PartitionerSpec, ...]:
    """All partitioner registry entries, in registration order."""
    return tuple(_PARTITIONERS.values())


def unregister_partitioner(name: str) -> PartitionerSpec:
    """Remove one entry (plugin teardown / test isolation); returns it."""
    try:
        return _PARTITIONERS.pop(name)
    except KeyError:
        raise KeyError(f"partitioner {name!r} is not registered") from None
