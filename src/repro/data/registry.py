"""Dataset and partitioner registries: the plugin point for data scenarios.

The paper's claims live or die on the *data scenario* — which dataset the
federation trains on and how pathologically it is split across clients.
This module makes both axes pluggable, mirroring the trainer registry in
:mod:`repro.federated.registry`: a new dataset or skew pattern is one
decorated function, no edits to ``builder.py`` or ``partition.py``.

Datasets register a :class:`~repro.data.synthetic.DatasetSpec` plus a
loader producing ``(train, test)`` :class:`~repro.data.dataset
.ArrayDataset` pairs; :data:`DATASETS` maps each name to its entry, so
``DATASETS[name].spec`` is the dataset's static description:

>>> from repro.data.registry import DATASETS, register_dataset
>>> from repro.data.synthetic import DatasetSpec
>>> @register_dataset(DatasetSpec("tiny", (1, 8, 8), 4,
...                               signal=2.0, noise=1.0, max_shift=0))
... def load_tiny(spec, n_train, n_test, seed):
...     ...  # return (train, test) ArrayDatasets
>>> DATASETS["tiny"].spec.num_classes
4

Partitioners register a function over ``(labels, num_clients)`` returning
per-client index arrays, declaring which
:class:`~repro.data.partition.DataConfig` fields parameterize it:

>>> from repro.data.registry import PARTITIONERS, register_partitioner
>>> @register_partitioner("first-come", summary="contiguous equal chunks")
... def first_come(labels, num_clients, rng=None):
...     ...  # return a list of index arrays, one per client
>>> PARTITIONERS.unregister("first-come").summary
'contiguous equal chunks'
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Sequence, Union

from ..registry import Registry, first_doc_line


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


#: Registered datasets, ``name -> DatasetEntry``.
DATASETS = Registry("dataset")


def register_dataset(spec, *, summary: str = "") -> Callable:
    """Decorator adding a dataset to :data:`DATASETS` under ``spec.name``.

    Apply to the loader function; the decorated function is returned
    unchanged so it stays directly callable.
    """

    def decorator(loader: Callable) -> Callable:
        doc = summary or first_doc_line(loader)
        DATASETS.add(spec.name, DatasetEntry(spec.name, spec, loader, doc))
        return loader

    return decorator


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


#: Registered partition strategies, ``name -> PartitionerSpec``.
PARTITIONERS = Registry("partition strategy")


def register_partitioner(
    name: str,
    *,
    params: Union[Mapping[str, str], Sequence[str]] = (),
    summary: str = "",
) -> Callable:
    """Decorator adding a partition function to :data:`PARTITIONERS`.

    The function must accept ``(labels, num_clients, ...)`` plus an ``rng``
    keyword and return one index array per client.  ``params`` declares the
    config-driven keyword arguments: either a sequence of names shared by
    the function and :class:`DataConfig`, or a mapping ``fn_kw ->
    config_field`` when they differ.
    """
    if not isinstance(params, MappingABC):
        params = {param: param for param in params}

    def decorator(fn: Callable) -> Callable:
        doc = summary or first_doc_line(fn)
        PARTITIONERS.add(name, PartitionerSpec(name, fn, dict(params), doc))
        return fn

    return decorator
