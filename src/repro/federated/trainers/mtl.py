"""Federated multi-task learning baseline (Smith et al. 2017, simplified).

MOCHA's full primal-dual machinery targets convex models; for the deep
networks of this paper the standard simplification (used by its evaluation
code and follow-ups) is mean-regularized multi-task learning: every client
keeps a personal model and its local objective adds λ/2·‖w_k − w̄‖², where
w̄ is the average of all personal models.  The server's only job is to
recompute and broadcast w̄ each round — which is why the paper's Table 1
charges MTL the largest communication bill.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..accounting.communication import dense_exchange
from ..aggregation import fedavg_average
from ..execution import ClientTask
from ..metrics import RoundRecord
from ..registry import register_trainer
from .base import FederatedTrainer


@register_trainer("mtl", local_defaults={"mtl_lambda": 0.1})
class FedMTL(FederatedTrainer):
    """Mean-regularized multi-task learning (simplified MOCHA)."""

    algorithm_name = "mtl"
    required_local = ("mtl_lambda",)

    def _round(self, round_index: int, sampled: List[int]) -> RoundRecord:
        # Clients keep their personal model (no download); the broadcast w̄
        # only enters through the mean-regularizer anchor.
        updates = self.execute(
            [
                ClientTask(client_index=index, kind="train", anchor_global=True)
                for index in sampled
            ]
        )
        # w̄ over the participants' personal models, broadcast next round.
        self.global_state = fedavg_average([update.state for update in updates])
        # Clients exchange their full personal model and receive w̄ back.
        traffic = dense_exchange(self.total_params, len(sampled))
        return RoundRecord(
            round_index=round_index,
            sampled_clients=sampled,
            train_loss=float(np.mean([update.mean_loss for update in updates])),
            uploaded_bytes=traffic.uploaded_bytes,
            downloaded_bytes=traffic.downloaded_bytes,
        )

    def _eval_task(self, client_index: int) -> ClientTask:
        """MTL clients are evaluated on their retained personal model."""
        return ClientTask(client_index=client_index, kind="evaluate", load="none")
