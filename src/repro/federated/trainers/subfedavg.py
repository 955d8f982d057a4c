"""Sub-FedAvg trainers: Algorithm 1 (unstructured) and Algorithm 2 (hybrid).

Per round:

1. the server samples clients; each downloads the global weights and
   re-applies its committed personal mask (its subnetwork of the global),
2. each client trains locally; at the end of the first and last epoch it
   derives candidate masks and, gated by validation accuracy / target rate /
   mask distance, commits deeper pruning (``ClientUpdate`` in the paper),
3. the server aggregates with the intersection average (Sub-FedAvg),
4. traffic is metered as 32-bit floats for kept coordinates plus 1-bit mask
   entries (§4.2.2's B convention).

Step 2 is a batch of :class:`~repro.federated.execution.ClientTask` objects
run on the trainer's execution backend; updates are reduced in sampled
order, so serial and parallel rounds commit the same masks and produce the
same aggregate.  Each update also reports the client's sparsities and
test accuracy, which is all the round record needs: a round touches only
the clients it started, however large the population.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ...models.base import ConvNet
from ...pruning import (
    PruningController,
    StructuredConfig,
    UnstructuredConfig,
)
from ..accounting.communication import sparse_exchange
from ..aggregation import intersection_average, zero_fill_average
from ..client import FederatedClient
from ..execution import ClientTask
from ..metrics import RoundRecord
from ..registry import register_trainer
from .base import FederatedTrainer


@dataclass(frozen=True)
class TrajectoryPoint:
    """One client's state right after a local update (Figure 1's raw data)."""

    round_index: int
    client_id: int
    sparsity: float
    channel_sparsity: float
    test_accuracy: float


class SubFedAvgTrainer(FederatedTrainer):
    """Shared machinery of the Un and Hy variants.

    With ``track_trajectory=True`` every participating client logs a
    :class:`TrajectoryPoint` after its local update — the (pruning %, test
    accuracy) trajectory the paper's Figure 1 plots per client.  Points are
    recorded in sampled order whatever the execution backend.
    """

    algorithm_name = "sub-fedavg"
    supports_round_plan = True

    def __init__(
        self,
        clients: List[FederatedClient],
        model_fn: Callable[[], ConvNet],
        rounds: int,
        unstructured: Optional[UnstructuredConfig],
        structured: Optional[StructuredConfig],
        sample_fraction: float = 0.1,
        seed: int = 0,
        eval_every: int = 0,
        aggregator: str = "intersection",
        track_trajectory: bool = False,
        **backend_kwargs,
    ) -> None:
        super().__init__(
            clients,
            model_fn,
            rounds,
            sample_fraction=sample_fraction,
            seed=seed,
            eval_every=eval_every,
            **backend_kwargs,
        )
        if aggregator not in ("intersection", "zerofill"):
            raise ValueError(
                f"aggregator must be 'intersection' or 'zerofill', got {aggregator!r}"
            )
        self.unstructured = unstructured
        self.structured = structured
        self.aggregator = aggregator
        self.track_trajectory = track_trajectory
        self.trajectory: List[TrajectoryPoint] = []
        # Each client's sparsities as its last train update reported them
        # (zero until it trains), so the per-round means never touch the
        # clients a round did not sample.
        self.client_sparsity = np.zeros(len(clients))
        self.client_channel_sparsity = np.zeros(len(clients))
        # Upload-time (state, mask) snapshots of async in-flight updates,
        # consumed when the carried delivery finally arrives.
        self._held_states: Dict[int, Tuple[dict, object]] = {}

        def _attach(client: FederatedClient) -> None:
            client.attach_controller(
                PruningController(
                    client.model, unstructured=unstructured, structured=structured
                )
            )

        if hasattr(clients, "add_setup_hook"):
            # A ClientPool attaches the controller at materialization, so a
            # million-client fleet never instantiates a million controllers.
            clients.add_setup_hook(_attach)
        else:
            for client in clients:
                _attach(client)

    # ------------------------------------------------------------------
    def _round(self, round_index: int, sampled: List[int]) -> RoundRecord:
        started = self.round_participants(sampled)
        # Downlink size depends on the mask committed *before* this round's
        # local update, so meter it while building the task list.
        kept_down = [
            self._kept_params(self.clients[index].mask) for index in started
        ]
        updates = self.execute(
            [
                ClientTask(
                    client_index=index,
                    kind="train",
                    load="global",
                    want_trajectory=True,
                )
                for index in started
            ]
        )

        uploaded = 0.0
        downloaded = 0.0
        client_up: dict = {}
        client_down: dict = {}
        for update, down in zip(updates, kept_down):
            traffic = sparse_exchange(
                kept_params=self._kept_params(update.mask),
                total_mask_bits=update.mask.total(),
                num_params_down=down,
            )
            uploaded += traffic.uploaded_bytes
            downloaded += traffic.downloaded_bytes
            client_up[update.client_id] = traffic.uploaded_bytes
            client_down[update.client_id] = traffic.downloaded_bytes
        for update in updates:
            self.client_sparsity[update.client_index] = update.sparsity
            self.client_channel_sparsity[update.client_index] = update.channel_sparsity
            if self.track_trajectory:
                self.trajectory.append(
                    TrajectoryPoint(
                        round_index=round_index,
                        client_id=update.client_id,
                        sparsity=update.sparsity,
                        channel_sparsity=update.channel_sparsity,
                        test_accuracy=update.accuracy,
                    )
                )

        states, masks = self._delivered_states(updates)
        if states:
            if self.aggregator == "intersection":
                self.global_state = intersection_average(
                    states, masks, self.global_state
                )
            else:
                self.global_state = zero_fill_average(
                    states, masks, self.global_state
                )

        return RoundRecord(
            round_index=round_index,
            sampled_clients=sampled,
            train_loss=float(np.mean([update.mean_loss for update in updates])),
            sampled_accuracy=float(np.mean([update.accuracy for update in updates])),
            mean_sparsity=self.mean_unstructured_sparsity(),
            mean_channel_sparsity=self.mean_channel_sparsity(),
            uploaded_bytes=uploaded,
            downloaded_bytes=downloaded,
            client_uploaded_bytes=client_up,
            client_downloaded_bytes=client_down,
        )

    def _delivered_states(self, updates):
        """(states, masks) the server aggregates, honoring the round plan.

        Without a fleet simulator every update is delivered (legacy
        behavior).  Under a plan, deadline stragglers are dropped (their
        upload missed the close — the zero-fill aggregator's zero-weight
        path) and carried async arrivals replay the (state, mask) snapshot
        taken at upload time, so nothing that mutates the client in the
        meantime (restarts, pool evictions, evaluation) changes what the
        server aggregates.
        """
        plan = self.round_plan
        if plan is None:
            return [u.state for u in updates], [u.mask for u in updates]
        by_id = {update.client_id: update for update in updates}
        states, masks = [], []
        for delivery in plan.deliveries:
            update = by_id.get(delivery.client_id)
            if update is not None:
                states.append(update.state)
                masks.append(update.mask)
            else:
                held = self._held_states.pop(delivery.client_id, None)
                if held is not None:
                    state, mask = held
                else:
                    # No held snapshot (e.g. a plan replayed post hoc):
                    # fall back to the client's current state.
                    client = self.clients[delivery.client_id]
                    state, mask = client.state_dict(), client.mask
                states.append(state)
                masks.append(mask)
        delivered = plan.delivered_ids
        for update in updates:
            if update.client_id in delivered:
                self._held_states.pop(update.client_id, None)
            else:
                self._held_states[update.client_id] = (update.state, update.mask)
        return states, masks

    def _kept_params(self, mask) -> int:
        """Parameters a client exchanges: kept masked coords + uncovered tensors."""
        if mask is None or len(mask) == 0:
            return self.total_params
        covered = mask.total()
        return self.total_params - covered + mask.kept()

    def _estimated_traffic(self, sampled: List[int]) -> dict:
        """Pre-round byte estimates from each client's *committed* mask.

        This is what makes the fleet plan price Sub-FedAvg per client: a
        heavily pruned client's exchange is genuinely smaller than a
        fresh one's.  The post-round record re-prices with the masks
        actually committed during local work.
        """
        estimates = {}
        for index in sampled:
            mask = self.clients[index].mask
            kept = self._kept_params(mask)
            mask_bits = 0 if mask is None or len(mask) == 0 else mask.total()
            traffic = sparse_exchange(
                kept_params=kept, total_mask_bits=mask_bits, num_params_down=kept
            )
            estimates[index] = (traffic.uploaded_bytes, traffic.downloaded_bytes)
        return estimates

    # ------------------------------------------------------------------
    def mean_unstructured_sparsity(self) -> float:
        return float(np.mean(self.client_sparsity))

    def mean_channel_sparsity(self) -> float:
        return float(np.mean(self.client_channel_sparsity))


@register_trainer("sub-fedavg-un", config_sections=("unstructured",))
class SubFedAvgUn(SubFedAvgTrainer):
    """Algorithm 1: Sub-FedAvg with unstructured pruning only."""

    algorithm_name = "sub-fedavg-un"

    def __init__(
        self,
        clients: List[FederatedClient],
        model_fn: Callable[[], ConvNet],
        rounds: int,
        unstructured: Optional[UnstructuredConfig] = None,
        sample_fraction: float = 0.1,
        seed: int = 0,
        eval_every: int = 0,
        aggregator: str = "intersection",
        track_trajectory: bool = False,
        **backend_kwargs,
    ) -> None:
        super().__init__(
            clients,
            model_fn,
            rounds,
            unstructured=unstructured or UnstructuredConfig(),
            structured=None,
            sample_fraction=sample_fraction,
            seed=seed,
            eval_every=eval_every,
            aggregator=aggregator,
            track_trajectory=track_trajectory,
            **backend_kwargs,
        )


@register_trainer("sub-fedavg-hy", config_sections=("unstructured", "structured"))
class SubFedAvgHy(SubFedAvgTrainer):
    """Algorithm 2: hybrid — structured on convs, unstructured on FC layers."""

    algorithm_name = "sub-fedavg-hy"

    def __init__(
        self,
        clients: List[FederatedClient],
        model_fn: Callable[[], ConvNet],
        rounds: int,
        unstructured: Optional[UnstructuredConfig] = None,
        structured: Optional[StructuredConfig] = None,
        sample_fraction: float = 0.1,
        seed: int = 0,
        eval_every: int = 0,
        aggregator: str = "intersection",
        track_trajectory: bool = False,
        **backend_kwargs,
    ) -> None:
        super().__init__(
            clients,
            model_fn,
            rounds,
            unstructured=unstructured or UnstructuredConfig(),
            structured=structured or StructuredConfig(),
            sample_fraction=sample_fraction,
            seed=seed,
            eval_every=eval_every,
            aggregator=aggregator,
            track_trajectory=track_trajectory,
            **backend_kwargs,
        )
