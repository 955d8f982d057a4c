"""Round orchestration shared by every federated algorithm."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ...models.base import ConvNet
from ..callbacks import CallbackList
from ..client import FederatedClient, LocalTrainConfig
from ..execution import (
    ClientTask,
    ClientUpdate,
    ExecutionBackend,
    resolve_backend,
)
from ..metrics import History, RoundRecord
from ..sampler import ClientSampler


class FederatedTrainer:
    """Base class: sampling, the round loop, evaluation and bookkeeping.

    Subclasses implement :meth:`_round` (one communication round over the
    sampled clients, returning a partially filled :class:`RoundRecord`).
    Local work inside a round is expressed as a list of declarative
    :class:`~repro.federated.execution.ClientTask` objects handed to
    :meth:`execute`, which runs them on the configured
    :class:`~repro.federated.execution.ExecutionBackend` (``serial``,
    ``thread`` or ``process``) and returns the
    :class:`~repro.federated.execution.ClientUpdate` results in task order
    — so aggregation is reduction-order-deterministic regardless of how
    the tasks were scheduled.  Subclasses may override :meth:`_eval_task`
    to define what a client's *personal* model is under their algorithm.

    :meth:`run` drives the lifecycle and dispatches
    :mod:`~repro.federated.callbacks` hooks around every round.  The loop
    resumes after ``len(self.history.rounds)`` completed rounds, so a
    callback that restores a checkpoint in ``on_run_start`` (see
    :class:`~repro.federated.callbacks.CheckpointCallback`) transparently
    skips the finished prefix.  A callback may call :meth:`request_stop`
    to end the loop early; the final all-client evaluation still runs, so
    the returned history is truncated but consistent.

    With a :class:`~repro.systems.rounds.FleetSimulator` attached
    (``fleet_sim``, wired by the builder from the config's ``systems``
    section), each round additionally starts with a
    :class:`~repro.systems.rounds.RoundPlan`: the simulator predicts
    which sampled clients are still busy mid-flight (they skip local
    work), which will miss the round close (their update gets zero
    aggregation weight), and what staleness discount each delivery
    carries.  Trainers read the plan through :meth:`round_participants`
    and :meth:`delivery_weight`; without a simulator both are identity
    pass-throughs, so legacy behavior is bit-identical.
    """

    algorithm_name = "base"

    #: Does this trainer's ``_round`` consume the fleet plan
    #: (``round_participants``/``delivery_weight``/``_delivered_states``)?
    #: Trainers that do not must refuse non-synchronous round policies —
    #: otherwise the record would report stragglers as dropped while the
    #: aggregation silently kept them at full weight.
    supports_round_plan = False

    #: ``LocalTrainConfig`` fields this algorithm's local objective needs
    #: positive (FedProx's ``prox_mu``, FedMTL's ``mtl_lambda``).
    required_local: Tuple[str, ...] = ()

    def __init__(
        self,
        clients: Sequence[FederatedClient],
        model_fn: Callable[[], ConvNet],
        rounds: int,
        sample_fraction: float = 0.1,
        seed: int = 0,
        eval_every: int = 0,
        backend: Union[str, ExecutionBackend, None] = "serial",
        workers: int = 0,
        sampler: Optional[ClientSampler] = None,
        fleet_sim=None,
        local: Optional[LocalTrainConfig] = None,
    ) -> None:
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        if not clients:
            raise ValueError("need at least one client")
        self._check_local(clients, local)
        self.clients = clients
        self.model_fn = model_fn
        self.rounds = rounds
        self.eval_every = eval_every
        # The participation model is injectable (see the scenario registry
        # in repro.federated.scenario); the default reproduces the paper's
        # uniform protocol exactly.
        self.sampler = (
            sampler
            if sampler is not None
            else ClientSampler(len(clients), sample_fraction, seed=seed)
        )
        self.global_state: Dict[str, np.ndarray] = model_fn().state_dict()
        self.history = History(algorithm=self.algorithm_name)
        self.total_params = int(sum(v.size for v in self.global_state.values()))
        self.stop_requested = False
        self.backend = resolve_backend(backend, workers)
        self.fleet_sim = fleet_sim
        self.round_plan = None  # the current round's RoundPlan (or None)
        # Backends that dispatch work outside this process (the serving
        # layer's wire backend) need the trainer for round context — the
        # current plan, the fleet simulator's pending timelines.
        bind = getattr(self.backend, "bind_trainer", None)
        if bind is not None:
            bind(self)

    def _check_local(
        self,
        clients: Sequence[FederatedClient],
        local: Optional[LocalTrainConfig],
    ) -> None:
        """Refuse a population whose local config misses :attr:`required_local`.

        ``local`` is the config every client trains with (the builder's
        :func:`~repro.federated.builder.local_config`); without it — a
        hand-built population — each client's own config is checked.
        """
        if not self.required_local:
            return
        configs = (
            [("the local config", local)]
            if local is not None
            else [(f"client {client.client_id}", client.config) for client in clients]
        )
        for name in self.required_local:
            for owner, config in configs:
                value = getattr(config, name)
                if value <= 0:
                    raise ValueError(
                        f"{type(self).__name__} requires clients configured "
                        f"with {name} > 0 ({owner} has {value})"
                    )

    # ------------------------------------------------------------------
    # Task execution
    # ------------------------------------------------------------------
    def execute(self, tasks: Sequence[ClientTask]) -> List[ClientUpdate]:
        """Run ``tasks`` on the configured backend; results in task order."""
        tasks = list(tasks)
        if not tasks:
            return []
        pinned = getattr(self.clients, "pinned", None)
        if pinned is None or not getattr(self.backend, "concurrent_in_process", False):
            return self.backend.run(tasks, self.clients, self.global_state)
        # A ClientPool must not evict (and later rebuild) a client that a
        # concurrent backend is still mutating — pin this batch until every
        # task has finished.
        with pinned(task.client_index for task in tasks):
            return self.backend.run(tasks, self.clients, self.global_state)

    # ------------------------------------------------------------------
    # Fleet-simulation plan (no-ops without an attached simulator)
    # ------------------------------------------------------------------
    def _estimated_traffic(self, sampled: List[int]) -> Dict[int, tuple]:
        """Pre-round per-client byte estimate the simulator plans with.

        The default prices a dense exchange (the full model both ways);
        algorithms whose exchanges differ per client (Sub-FedAvg masks)
        override this with their committed pre-round sizes.  The round's
        *recorded* bytes re-price the completed timeline afterwards.
        """
        one_way = self.total_params * 4.0  # 32-bit floats
        return {client_id: (one_way, one_way) for client_id in sampled}

    def round_participants(self, sampled: List[int]) -> List[int]:
        """Sampled clients that actually run local work this round.

        Under async round policies a sampled client may still be
        mid-flight from an earlier round; the plan marks it busy and it
        skips this round's local work.  Without a plan this is the
        sampled list unchanged.
        """
        if self.round_plan is None:
            return list(sampled)
        started = set(self.round_plan.started)
        return [client_id for client_id in sampled if client_id in started]

    def delivery_weight(self, client_id: int) -> float:
        """The plan's aggregation weight for one client (1.0 without a plan).

        0.0 marks an update the server never aggregates (a deadline
        straggler, or an async client whose upload lands in a later
        round); fractional values are staleness discounts on carried
        async arrivals.
        """
        if self.round_plan is None:
            return 1.0
        return self.round_plan.delivery_weight(client_id)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Ask the round loop to stop after the current round completes."""
        self.stop_requested = True

    def run(self, callbacks: Optional[Iterable] = None) -> History:
        """Execute the remaining communication rounds and the final evaluation.

        ``callbacks`` is an optional iterable of
        :class:`~repro.federated.callbacks.Callback` objects (or anything
        exposing a subset of the hook methods), invoked in list order.
        Rounds — and therefore callback dispatches — stay strictly
        sequential whatever the backend; only the client work inside a
        round is parallelized.
        """
        dispatcher = CallbackList(callbacks)
        self.stop_requested = False
        dispatcher.on_run_start(self)
        start_round = len(self.history.rounds) + 1
        for round_index in range(start_round, self.rounds + 1):
            sampled = self.sampler.sample()
            if self.fleet_sim is not None:
                self.round_plan = self.fleet_sim.plan_round(
                    round_index, sampled, self._estimated_traffic(sampled)
                )
            dispatcher.on_round_start(self, round_index, sampled)
            record = self._round(round_index, sampled)
            if self.eval_every and round_index % self.eval_every == 0:
                record.mean_accuracy = self.evaluate_all()
                dispatcher.on_evaluate(self, round_index, record.mean_accuracy)
            self.history.append(record)
            dispatcher.on_round_end(self, round_index, record)
            if self.stop_requested:
                break
        per_client = self._evaluate_clients()
        self.history.final_per_client_accuracy = per_client
        self.history.final_accuracy = float(np.mean(list(per_client.values())))
        dispatcher.on_run_end(self, self.history)
        return self.history

    def _round(self, round_index: int, sampled: List[int]) -> RoundRecord:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _eval_task(self, client_index: int) -> ClientTask:
        """Task measuring one client's *personal* accuracy (overridable).

        The default — used by the FedAvg family and Sub-FedAvg — loads the
        global weights (the client's committed mask, if any, is re-applied
        by ``load_global``) and restores the client's own state afterwards,
        so a mid-run ``evaluate_all`` never clobbers local models and the
        tasks are safe to run concurrently.
        """
        return ClientTask(
            client_index=client_index, kind="evaluate", load="global", restore=True
        )

    def _evaluate_clients(self) -> Dict[int, float]:
        """Personalized test accuracy of every client, by client id (one batch)."""
        updates = self.execute(
            [self._eval_task(index) for index in range(len(self.clients))]
        )
        return {update.client_id: update.accuracy for update in updates}

    def evaluate_all(self) -> float:
        """Paper metric: mean personalized test accuracy over *all* clients."""
        return float(np.mean(list(self._evaluate_clients().values())))

    def evaluate_sampled(self, sampled: List[int]) -> float:
        """Mean test accuracy of the given clients on their current models."""
        updates = self.execute(
            [
                ClientTask(client_index=index, kind="evaluate", load="none")
                for index in sampled
            ]
        )
        return float(np.mean([update.accuracy for update in updates]))
