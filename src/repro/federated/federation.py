"""The ``Federation`` facade: config in, trained federation out.

One object owns the whole lifecycle of an experiment run — the declarative
:class:`~repro.federated.builder.FederationConfig`, the client population
built from it, the registry-resolved trainer, and the resulting
:class:`~repro.federated.metrics.History`:

>>> from repro.federated import EarlyStopping, Federation, FederationConfig
>>> federation = Federation.from_config(FederationConfig(
...     dataset="mnist", algorithm="sub-fedavg-un",
...     num_clients=10, rounds=5, seed=0,
... ))
>>> history = federation.run(callbacks=[EarlyStopping(patience=2)])  # doctest: +SKIP

Because the config serializes (``to_json``/``from_json``), a run can be
reconstructed exactly from a stored file::

    Federation.from_json(Path("run.json").read_text()).run()
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional, Sequence

from ..systems.callback import FleetSimCallback
from .builder import FederationConfig, build_trainer, make_clients
from .client import FederatedClient
from .metrics import History
from .trainers.base import FederatedTrainer


class Federation:
    """A configured federated experiment, ready to run.

    Construction is eager: clients and the trainer are built immediately,
    so the object can be inspected (``.clients``, ``.trainer``) before
    :meth:`run` is called, and checkpoints can be restored into it.
    ``clients`` replaces the population :func:`make_clients` would build;
    the serving layer passes one that holds no replicas, because its wire
    clients own all client state.
    """

    def __init__(
        self,
        config: FederationConfig,
        clients: Optional[Sequence[FederatedClient]] = None,
        **trainer_overrides,
    ) -> None:
        self.config = config
        self._clients = make_clients(config) if clients is None else clients
        self._trainer = build_trainer(config, self._clients, **trainer_overrides)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_config(
        cls,
        config: FederationConfig,
        clients: Optional[Sequence[FederatedClient]] = None,
        **trainer_overrides,
    ) -> "Federation":
        """Build from a :class:`FederationConfig`.

        ``trainer_overrides`` are forwarded to the trainer constructor
        (e.g. ``aggregator="zerofill"``, ``track_trajectory=True``).
        """
        return cls(config, clients, **trainer_overrides)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any], **trainer_overrides) -> "Federation":
        return cls(FederationConfig.from_dict(payload), **trainer_overrides)

    @classmethod
    def from_json(cls, text: str, **trainer_overrides) -> "Federation":
        return cls(FederationConfig.from_json(text), **trainer_overrides)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def run(self, callbacks: Optional[Iterable] = None) -> History:
        """Execute the run, dispatching ``callbacks`` around every round.

        A config with a ``systems`` section gets a
        :class:`~repro.systems.callback.FleetSimCallback` automatically
        (unless the caller passed one), so every round record carries its
        simulated fleet seconds and stragglers.  It goes first, so the
        caller's callbacks (progress lines, checkpoints) see them; a
        caller-supplied one keeps the caller's order.
        """
        callbacks = list(callbacks or ())
        if self._trainer.fleet_sim is not None and not any(
            isinstance(callback, FleetSimCallback) for callback in callbacks
        ):
            callbacks.insert(0, FleetSimCallback())
        return self._trainer.run(callbacks=callbacks or None)

    @property
    def trainer(self) -> FederatedTrainer:
        return self._trainer

    @property
    def clients(self) -> Sequence[FederatedClient]:
        return self._clients

    @property
    def history(self) -> History:
        """The run history so far (empty until :meth:`run` has executed rounds)."""
        return self._trainer.history

    @property
    def algorithm(self) -> str:
        return self.config.algorithm

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Federation(algorithm={self.config.algorithm!r}, "
            f"dataset={self.config.dataset!r}, clients={len(self._clients)}, "
            f"rounds={self.config.rounds})"
        )
