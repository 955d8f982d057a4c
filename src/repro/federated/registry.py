"""Trainer registry: the plugin point for federated algorithms.

Every trainer class registers itself under its public algorithm name with
the :func:`register_trainer` decorator, declaring which optional
:class:`~repro.federated.builder.FederationConfig` sections it consumes
(``"unstructured"``, ``"structured"``) and any per-field defaults it needs
patched into clients' :class:`~repro.federated.client.LocalTrainConfig`
(e.g. FedProx's ``prox_mu``).  Construction sites — the builder, the
:class:`~repro.federated.federation.Federation` facade and the CLI — look
algorithms up in :data:`TRAINERS` instead of hard-coding an if/elif chain,
so adding an algorithm is one decorated class, no core edits:

>>> from repro.federated.registry import TRAINERS, register_trainer
>>> from repro.federated.trainers.base import FederatedTrainer
>>> @register_trainer("my-algo")
... class MyAlgo(FederatedTrainer):
...     def _round(self, round_index, sampled):
...         ...
>>> TRAINERS["my-algo"].cls is MyAlgo
True
>>> TRAINERS.unregister("my-algo").name
'my-algo'
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Tuple, Type

from ..registry import Registry, first_doc_line

#: FederationConfig attributes a trainer may declare in ``config_sections``.
KNOWN_CONFIG_SECTIONS = ("unstructured", "structured", "compression")


@dataclass(frozen=True)
class TrainerSpec:
    """One registry entry: the class plus its construction contract."""

    name: str
    cls: Type
    config_sections: Tuple[str, ...] = ()
    local_defaults: Mapping[str, float] = field(default_factory=dict)
    summary: str = ""


#: Registered algorithms, ``name -> TrainerSpec``.
TRAINERS = Registry("algorithm")


def register_trainer(
    name: str,
    *,
    config_sections: Tuple[str, ...] = (),
    local_defaults: Mapping[str, float] = (),
    summary: str = "",
) -> Callable[[Type], Type]:
    """Class decorator adding a trainer to :data:`TRAINERS` under ``name``.

    ``config_sections`` names the optional :class:`FederationConfig`
    sections forwarded to the constructor (keyword arguments of the same
    name).  ``local_defaults`` maps ``LocalTrainConfig`` field names to the
    value the builder should substitute when the user left the field at 0
    (how FedProx gets a default ``prox_mu``).
    ``summary`` defaults to the first line of the class docstring.
    """
    for section in config_sections:
        if section not in KNOWN_CONFIG_SECTIONS:
            raise ValueError(
                f"unknown config section {section!r}; "
                f"choose from {KNOWN_CONFIG_SECTIONS}"
            )

    def decorator(cls: Type) -> Type:
        TRAINERS.add(
            name,
            TrainerSpec(
                name=name,
                cls=cls,
                config_sections=tuple(config_sections),
                local_defaults=dict(local_defaults),
                summary=summary or first_doc_line(cls),
            ),
        )
        cls.algorithm_name = name
        return cls

    return decorator
