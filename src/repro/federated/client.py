"""The federated client: local SGD training, evaluation and pruning hooks.

A :class:`FederatedClient` owns a model replica, its local data views and —
for the Sub-FedAvg algorithms — a :class:`~repro.pruning.PruningController`.
The trainer drives it through the round protocol:

1. ``load_global(state)`` — download the global weights (the client's mask
   is re-applied, so it trains its personal subnetwork of the global model),
2. ``train_local()`` — E epochs of SGD; with a controller attached, mask
   snapshots are taken at the first/last epoch boundary and the paper's
   pruning gates run on the local validation accuracy,
3. ``state_dict()`` / ``mask`` — upload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from ..data.dataset import Dataset
from ..data.loader import DataLoader
from ..models.base import ConvNet
from ..nn import CrossEntropyLoss
from ..optim import SGD
from ..pruning import MaskSet, PruningController
from ..tensor import Tensor
from ..data.partition import ClientData
from .evaluation import predict


@dataclass(frozen=True)
class LocalTrainConfig:
    """Local optimization hyper-parameters (paper §4.1 defaults)."""

    lr: float = 0.01
    momentum: float = 0.5
    weight_decay: float = 0.0
    batch_size: int = 10
    epochs: int = 5
    prox_mu: float = 0.0  # FedProx proximal coefficient (0 = plain SGD)
    mtl_lambda: float = 0.0  # MTL mean-regularization coefficient

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        for name in ("momentum", "weight_decay", "prox_mu", "mtl_lambda"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class LocalTrainResult:
    """Outcome of one ``train_local`` call.

    ``num_examples`` counts the examples *actually processed* this call
    (epochs × dataset passes), so FedAvg-style weighting charges a client
    for the work it did.
    """

    mean_loss: float
    num_examples: int
    val_accuracy: Optional[float] = None
    pruned_unstructured: bool = False
    pruned_structured: bool = False


class FederatedClient:
    """One participant in the federation."""

    def __init__(
        self,
        data: ClientData,
        model_fn: Callable[[], ConvNet],
        config: LocalTrainConfig,
        seed: int = 0,
    ) -> None:
        self.data = data
        self.client_id = data.client_id
        self.config = config
        self.model = model_fn()
        self.controller: Optional[PruningController] = None
        self._loss_fn = CrossEntropyLoss()
        self._loader = DataLoader(
            data.train,
            batch_size=config.batch_size,
            shuffle=True,
            seed=(seed, data.client_id),
        )
        # Reference weights for proximal / MTL regularizers, set per round.
        self._anchor: Optional[Dict[str, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Mask plumbing
    # ------------------------------------------------------------------
    def attach_controller(self, controller: PruningController) -> None:
        """Install the Sub-FedAvg pruning state machine (uses this model)."""
        if controller.model is not self.model:
            raise ValueError("controller must wrap this client's model")
        self.controller = controller

    @property
    def mask(self) -> Optional[MaskSet]:
        """The client's committed personal keep-mask (None when not pruning)."""
        if self.controller is None:
            return None
        return self.controller.combined_mask()

    # ------------------------------------------------------------------
    # Round protocol
    # ------------------------------------------------------------------
    def load_global(self, state: Dict[str, np.ndarray]) -> None:
        """Download global weights; re-apply the personal mask if any."""
        self.model.load_state_dict(state)
        mask = self.mask
        if mask is not None:
            mask.apply_to_model(self.model)

    def load_partial(self, state: Dict[str, np.ndarray], names) -> None:
        """Download only the named entries (LG-FedAvg's shared layers)."""
        own = self.model.state_dict()
        for name in names:
            own[name] = state[name]
        self.model.load_state_dict(own)

    def set_anchor(self, state: Optional[Dict[str, np.ndarray]]) -> None:
        """Reference point for proximal (FedProx) / mean (MTL) regularizers."""
        self._anchor = None if state is None else {k: v.copy() for k, v in state.items()}

    def state_dict(self) -> Dict[str, np.ndarray]:
        return self.model.state_dict()

    # ------------------------------------------------------------------
    # State snapshot / restore (side-effect-free evaluation, backend sync)
    # ------------------------------------------------------------------
    def rng_state(self):
        """Picklable snapshot of the client's private data-order stream."""
        return self._loader.get_rng_state()

    def set_rng_state(self, state) -> None:
        self._loader.set_rng_state(state)

    def snapshot_state(self) -> Dict[str, object]:
        """Capture everything local work can mutate, so it can be undone:
        model weights, the data-order RNG stream and (when pruning is
        attached) the controller's committed masks/rates."""
        snapshot: Dict[str, object] = {
            "model": self.model.state_dict(),
            "rng": self.rng_state(),
        }
        if self.controller is not None:
            snapshot["controller"] = self.controller.state_dict()
        return snapshot

    def restore_state(self, snapshot: Dict[str, object]) -> None:
        """Undo any mutation since the matching :meth:`snapshot_state`."""
        self.model.load_state_dict(snapshot["model"])
        self.set_rng_state(snapshot["rng"])
        if "controller" in snapshot and self.controller is not None:
            self.controller.load_state_dict(snapshot["controller"])

    # ------------------------------------------------------------------
    # Local training
    # ------------------------------------------------------------------
    def train_local(self, epochs: Optional[int] = None) -> LocalTrainResult:
        """Run local SGD for ``epochs`` (defaults to the configured count).

        When a pruning controller is attached this performs the full
        ClientUpdate of Algorithms 1-2: snapshot candidate masks at the end
        of the first and the last epoch, evaluate on local validation data,
        and let the controller's gates decide whether to commit.
        """
        epochs = epochs if epochs is not None else self.config.epochs
        self.model.train()
        optimizer = SGD(
            list(self.model.named_parameters()),
            lr=self.config.lr,
            momentum=self.config.momentum,
            weight_decay=self.config.weight_decay,
        )
        mask = self.mask
        if mask is not None:
            optimizer.set_masks(mask.as_grad_masks())

        total_loss = 0.0
        total_examples = 0
        first_snapshot = None
        for epoch in range(epochs):
            for images, labels in self._loader:
                optimizer.zero_grad()
                logits = self.model(Tensor(images))
                loss = self._loss_fn(logits, labels)
                loss.backward()
                self._apply_regularizers()
                optimizer.step()
                total_loss += loss.item() * len(labels)
                total_examples += len(labels)
            if epoch == 0 and self.controller is not None:
                first_snapshot = self.controller.snapshot()

        result = LocalTrainResult(
            mean_loss=total_loss / max(total_examples, 1),
            num_examples=total_examples,
        )

        if self.controller is not None:
            last_snapshot = self.controller.snapshot()
            val_accuracy = self.evaluate(self.data.val) if len(self.data.val) else 1.0
            result.val_accuracy = val_accuracy
            decision = self.controller.update(val_accuracy, first_snapshot, last_snapshot)
            result.pruned_unstructured = decision.unstructured_applied
            result.pruned_structured = decision.structured_applied
            new_mask = self.controller.combined_mask()
            new_mask.apply_to_model(self.model)
        return result

    def _apply_regularizers(self) -> None:
        """Add proximal/MTL gradient terms in place (after ``backward``)."""
        if self._anchor is None:
            return
        coefficient = self.config.prox_mu + self.config.mtl_lambda
        if coefficient == 0.0:
            return
        for name, param in self.model.named_parameters():
            if name in self._anchor and param.grad is not None:
                param.grad = param.grad + coefficient * (param.data - self._anchor[name])

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, dataset: Optional[Dataset] = None) -> float:
        """Accuracy of the current personal model on ``dataset`` (default: test)."""
        dataset = dataset if dataset is not None else self.data.test
        if len(dataset) == 0:
            return 0.0
        return int((predict(self.model, dataset) == dataset.labels).sum()) / len(dataset)

    def test_accuracy(self) -> float:
        return self.evaluate(self.data.test)
