"""Per-round metrics and run history."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class RoundRecord:
    """Everything measured in one communication round.

    Traffic is recorded twice: the round totals (``uploaded_bytes`` /
    ``downloaded_bytes``, summed over participants — always present) and,
    when the trainer meters it, the per-client breakdown
    (``client_uploaded_bytes`` / ``client_downloaded_bytes``, keyed by
    client id).  The per-client form is what prices Sub-FedAvg correctly:
    each client's mask size differs, so an even split misprices the
    stragglers.  :meth:`per_client_traffic` returns whichever is
    available, documented even-split fallback included.

    ``simulated_seconds`` and ``stragglers`` are stamped by the fleet
    simulator (:class:`~repro.systems.callback.FleetSimCallback`).
    """

    round_index: int
    sampled_clients: List[int]
    train_loss: float
    mean_accuracy: Optional[float] = None  # personalized test accuracy (all clients)
    sampled_accuracy: Optional[float] = None  # accuracy of this round's participants
    mean_sparsity: float = 0.0  # avg unstructured sparsity over clients
    mean_channel_sparsity: float = 0.0  # avg channel sparsity over clients
    uploaded_bytes: float = 0.0
    downloaded_bytes: float = 0.0
    client_uploaded_bytes: Optional[Dict[int, float]] = None
    client_downloaded_bytes: Optional[Dict[int, float]] = None
    simulated_seconds: Optional[float] = None  # fleet-simulator round duration
    stragglers: List[int] = field(default_factory=list)  # missed the round close

    def __post_init__(self) -> None:
        # JSON round-trips stringify integer dict keys; normalize back so
        # a reloaded record compares (and prices) identically.
        for name in ("client_uploaded_bytes", "client_downloaded_bytes"):
            value = getattr(self, name)
            if value is not None:
                setattr(
                    self, name, {int(cid): float(b) for cid, b in value.items()}
                )

    def per_client_traffic(self) -> Dict[int, Tuple[float, float]]:
        """``client_id -> (uploaded, downloaded)`` bytes for this round.

        Uses the metered per-client breakdown when the record carries
        one; otherwise falls back to splitting the round totals evenly
        over the sampled clients — exact for dense exchanges, an
        approximation for per-client-sparse algorithms.
        """
        participants = self.sampled_clients or [0]
        if self.client_uploaded_bytes is None and self.client_downloaded_bytes is None:
            up = self.uploaded_bytes / len(participants)
            down = self.downloaded_bytes / len(participants)
            return {int(cid): (up, down) for cid in participants}
        ups = self.client_uploaded_bytes or {}
        downs = self.client_downloaded_bytes or {}
        clients = sorted({*map(int, participants), *ups, *downs})
        return {
            cid: (ups.get(cid, 0.0), downs.get(cid, 0.0)) for cid in clients
        }


@dataclass
class History:
    """Chronological record of a federated run plus final summaries."""

    algorithm: str
    rounds: List[RoundRecord] = field(default_factory=list)
    final_accuracy: Optional[float] = None
    final_per_client_accuracy: Dict[int, float] = field(default_factory=dict)
    total_communication_bytes: float = 0.0

    def append(self, record: RoundRecord) -> None:
        self.rounds.append(record)
        self.total_communication_bytes += record.uploaded_bytes + record.downloaded_bytes

    def accuracy_curve(self) -> List[tuple]:
        """(round, mean accuracy) pairs for rounds where accuracy was measured."""
        return [
            (record.round_index, record.mean_accuracy)
            for record in self.rounds
            if record.mean_accuracy is not None
        ]

    def rounds_to_accuracy(self, target: float) -> Optional[int]:
        """First round at which mean accuracy reached ``target`` (or None)."""
        for round_index, accuracy in self.accuracy_curve():
            if accuracy >= target:
                return round_index
        return None

    def seconds_to_accuracy(self, target: float) -> Optional[float]:
        """Simulated seconds until ``target`` mean accuracy (or None).

        Reads the fleet simulator's ``simulated_seconds`` annotations;
        returns None if the target is never reached or no round carries a
        duration.
        """
        from ..systems.report import simulated_time_to_accuracy

        return simulated_time_to_accuracy(self, target)

    @property
    def total_simulated_seconds(self) -> Optional[float]:
        """Total simulated run time (None when no round was priced)."""
        from ..systems.report import total_simulated_seconds

        return total_simulated_seconds(self)

    @property
    def total_communication_gb(self) -> float:
        return self.total_communication_bytes / 1e9
