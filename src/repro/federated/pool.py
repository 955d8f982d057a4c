"""Virtual clients: materialize a :class:`FederatedClient` only when used.

A million-client federation cannot hold a million live model replicas —
but it never needs to: a round touches ``sample_fraction × n`` clients,
and every client is *reconstructible* from its compact spec (the
partition's index views plus the per-client seeded RNG stream
``(seed, client_id)``; model init is creation-order independent).

:class:`ClientPool` is the drop-in ``Sequence[FederatedClient]`` the
trainers iterate: indexing materializes the client on demand and keeps up
to ``capacity`` of them live in LRU order.  Evicting a client whose state
has diverged from its freshly-built form (it trained, pruned, or was
restored before) spills a :meth:`~.client.FederatedClient.snapshot_state`
into an in-memory dict, and the next materialization restores it — so
stateful algorithms (Sub-FedAvg masks, momentum-free SGD state, data
order) survive eviction bit-for-bit.

Mutation tracking keys off the client's private data-order RNG stream:
every mutating task (local training) advances it, and restore-to-snapshot
rewinds it, so "RNG state still equals the just-built baseline" is an
exact proxy for "nothing to spill".  Side-effect-free evaluation
(snapshot → eval → restore) therefore evicts for free.

The process backend forks workers, so a worker inherits the parent's
spilled snapshots copy-on-write and its own mutations stay private (the
parent re-applies the returned ``ClientSync`` in task order, exactly as
with eager clients).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence as SequenceABC
from contextlib import contextmanager
from typing import Callable, Dict, List, Sequence, Set

from ..data.partition import ClientData
from .client import FederatedClient, LocalTrainConfig


class ClientPool(SequenceABC):
    """A lazily-materialized, LRU-bounded ``Sequence[FederatedClient]``.

    ``capacity`` bounds the live clients (0 = unbounded, i.e. eager
    behavior with lazy construction).  ``setup_hooks`` run once per
    materialization *before* any spilled state is restored — trainers
    attach per-client machinery (Sub-FedAvg's ``PruningController``)
    here instead of looping over the population eagerly.
    """

    def __init__(
        self,
        bundles: Sequence[ClientData],
        model_fn: Callable,
        local: LocalTrainConfig,
        seed: int = 0,
        capacity: int = 64,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self._bundles = list(bundles)
        self._model_fn = model_fn
        self._local = local
        self._seed = seed
        self.capacity = capacity
        self._spilled: Dict[int, Dict[str, object]] = {}
        self._live: "OrderedDict[int, FederatedClient]" = OrderedDict()
        self._baselines: Dict[int, object] = {}
        self._dirty: Set[int] = set()
        self._setup_hooks: List[Callable[[FederatedClient], None]] = []
        self._pinned: Set[int] = set()
        self.materializations = 0
        self.evictions = 0
        self.spills = 0

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._bundles)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[position] for position in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"client index {index} out of range")
        client = self._live.get(index)
        if client is not None:
            self._live.move_to_end(index)
            return client
        client = self._materialize(index)
        self._live[index] = client
        self._evict_over_capacity()
        return client

    def index(self, client: FederatedClient) -> int:
        """Position of one of this pool's clients (client ids are
        positional; the bundle identity ties an instance to its slot even
        after eviction)."""
        position = int(client.client_id)
        if 0 <= position < len(self) and self._bundles[position] is client.data:
            return position
        raise ValueError("client does not belong to this pool")

    # ------------------------------------------------------------------
    # Materialization / eviction
    # ------------------------------------------------------------------
    def build(self, index: int) -> FederatedClient:
        """A fresh, un-pooled client (parity tests compare against these)."""
        client = FederatedClient(
            self._bundles[index], self._model_fn, self._local, seed=self._seed
        )
        for hook in self._setup_hooks:
            hook(client)
        return client

    def _materialize(self, index: int) -> FederatedClient:
        client = self.build(index)
        client_id = int(client.client_id)
        snapshot = self._spilled.get(client_id)
        if snapshot is not None:
            client.restore_state(snapshot)
            self._dirty.add(index)
        self._baselines[index] = client.rng_state()
        self.materializations += 1
        return client

    def _evict_over_capacity(self) -> None:
        if self.capacity <= 0:
            return
        while len(self._live) > self.capacity:
            victim = next(
                (idx for idx in self._live if idx not in self._pinned), None
            )
            if victim is None:
                return  # everything live is pinned; grow past capacity
            self._evict(victim)

    def _evict(self, index: int) -> None:
        client = self._live.pop(index)
        baseline = self._baselines.pop(index, None)
        # A client whose RNG stream never moved past its materialization
        # baseline did no mutating work — nothing to spill.  A client that
        # was restored from a spill, or marked dirty, stays dirty (its
        # spilled state must be refreshed for the next materialization).
        dirty = index in self._dirty or client.rng_state() != baseline
        if dirty:
            self._spilled[int(client.client_id)] = client.snapshot_state()
            self.spills += 1
        self._dirty.discard(index)
        self.evictions += 1

    def mark_dirty(self, index: int) -> None:
        """Spill live client ``index`` on eviction even if its RNG stream
        never moved (state written from outside, e.g. a checkpoint)."""
        if index not in self._live:
            raise KeyError(f"client {index} is not live")
        self._dirty.add(index)

    @property
    def live_count(self) -> int:
        return len(self._live)

    # ------------------------------------------------------------------
    # Trainer integration
    # ------------------------------------------------------------------
    def add_setup_hook(self, hook: Callable[[FederatedClient], None]) -> None:
        """Run ``hook`` on every client at materialization (and on all
        currently-live clients immediately)."""
        self._setup_hooks.append(hook)
        for client in self._live.values():
            hook(client)

    @contextmanager
    def pinned(self, indices):
        """Keep ``indices`` live for the duration (concurrent execution:
        an evicted-then-rebuilt twin must never race a running task)."""
        added = {int(index) for index in indices} - self._pinned
        self._pinned |= added
        try:
            yield self
        finally:
            self._pinned -= added
            self._evict_over_capacity()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClientPool(n={len(self)}, live={self.live_count}, "
            f"capacity={self.capacity}, spilled={len(self._spilled)})"
        )
