"""FedAvg (McMahan et al. 2017) — the traditional-FL benchmark."""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..accounting.communication import FLOAT_BITS, dense_exchange
from ..aggregation import fedavg_average
from ..execution import ClientTask, ClientUpdate
from ..metrics import RoundRecord
from ..registry import register_trainer
from .base import FederatedTrainer


@register_trainer("fedavg")
class FedAvg(FederatedTrainer):
    """Classic dense averaging weighted by client example counts.

    Personalized evaluation loads the single global model into every
    client, so under pathological non-IID the reported accuracy exposes
    FedAvg's collapse (the paper's Remark-2).

    Aggregation weights count the examples a client actually processed
    this round.  With a fleet simulator attached, aggregation follows the
    round plan instead: deadline stragglers weigh zero (their upload
    missed the close), and under the async-buffer policy an in-flight client's
    earlier update is aggregated when it finally *arrives*, discounted by
    its staleness weight.  The carried delivery replays the *state
    snapshot taken at upload time* — held here until the arrival lands —
    so anything that mutates the client in between (an availability
    restart, an eviction/rebuild, side-effect-free evaluation) cannot
    alter what the server aggregates.
    """

    algorithm_name = "fedavg"
    supports_round_plan = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Upload-time (state, examples) snapshots of async in-flight
        # updates, consumed when the carried delivery finally arrives.
        self._held_updates: Dict[int, tuple] = {}

    def _train_tasks(self, sampled: List[int]) -> List[ClientTask]:
        """Declarative description of one round's local work (overridable)."""
        return [
            ClientTask(client_index=index, kind="train", load="global")
            for index in sampled
        ]

    def _aggregate(self, updates: List[ClientUpdate]) -> None:
        plan = self.round_plan
        if plan is None:
            states = [update.state for update in updates]
            weights = [update.num_examples for update in updates]
            # Nobody processed an example, so there is no work to weight
            # by — keep uniform weights instead of dividing by 0.
            self.global_state = fedavg_average(
                states, weights if sum(weights) > 0 else None
            )
            return
        by_id = {update.client_id: update for update in updates}
        states, weights = [], []
        for delivery in plan.deliveries:
            update = by_id.get(delivery.client_id)
            if update is not None:
                state, examples = update.state, update.num_examples
            else:
                # A carried async arrival: replay the snapshot held at
                # upload time, staleness-discounted.  (The live model may
                # have moved since — restarts, evictions and evaluation
                # must not change what the server aggregates.)
                held = self._held_updates.pop(delivery.client_id, None)
                if held is not None:
                    state, examples = held
                else:
                    # No held snapshot (e.g. a plan replayed post hoc):
                    # fall back to the client's current state.
                    state = self.clients[delivery.client_id].state_dict()
                    examples = 1
            states.append(state)
            weights.append(examples * delivery.weight)
        delivered = plan.delivered_ids
        for update in updates:
            if update.client_id in delivered:
                self._held_updates.pop(update.client_id, None)
            else:
                self._held_updates[update.client_id] = (
                    update.state,
                    update.num_examples,
                )
        if not states:
            return  # the server closed the round before any upload landed
        self.global_state = fedavg_average(
            states, weights if sum(weights) > 0 else None
        )

    def _round(self, round_index: int, sampled: List[int]) -> RoundRecord:
        started = self.round_participants(sampled)
        updates = self.execute(self._train_tasks(started))
        self._aggregate(updates)
        traffic = dense_exchange(self.total_params, len(started))
        one_way = self.total_params * FLOAT_BITS / 8.0
        return RoundRecord(
            round_index=round_index,
            sampled_clients=sampled,
            train_loss=float(np.mean([update.mean_loss for update in updates])),
            uploaded_bytes=traffic.uploaded_bytes,
            downloaded_bytes=traffic.downloaded_bytes,
            client_uploaded_bytes={cid: one_way for cid in started},
            client_downloaded_bytes={cid: one_way for cid in started},
        )


@register_trainer("fedprox", local_defaults={"prox_mu": 0.01})
class FedProx(FedAvg):
    """FedAvg plus a proximal term μ/2·‖w − w_g‖² in the local objective.

    The proximal gradient is added by the client when its
    ``LocalTrainConfig.prox_mu`` is non-zero; each training task pins the
    anchor to the current global weights at the start of the round.
    """

    algorithm_name = "fedprox"
    required_local = ("prox_mu",)

    def _train_tasks(self, sampled: List[int]) -> List[ClientTask]:
        return [
            ClientTask(
                client_index=index,
                kind="train",
                load="global",
                anchor_global=True,
            )
            for index in sampled
        ]
