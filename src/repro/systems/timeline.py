"""Per-client round timelines: download → compute → upload, priced in seconds.

A :class:`ClientTimeline` is the simulator's unit of work: one client's
participation in one round, priced from that client's *actual* bytes (its
Sub-FedAvg mask size, its compressed update — not an even split of the
round total) and its device profile's throughput.  The compute term uses
the paper's conv-FLOP convention scaled by local passes (forward +
backward ≈ 3× the inference FLOPs per example); the callers derive
``flops_per_example`` from the :mod:`repro.federated.accounting` module.

:func:`build_round_timelines` prices a whole cohort at once as a
:class:`RoundTimelines` struct of arrays; :class:`ClientTimeline` is the
per-client view of one entry (the in-flight carry set and the serving
layer's dispatch pacing read it).

Summation-order note: durations sum the phases as ``compute + up +
down``.  Floating-point addition is not associative, so this order is
part of the output — it fixes every simulated second already recorded in
histories and result stores, and must not change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .fleet import Fleet

#: ``client_id -> (uploaded_bytes, downloaded_bytes)`` for one round.
TrafficMap = Dict[int, Tuple[float, float]]

#: What the pricing functions accept as per-round traffic: the classic
#: per-client map, one ``(upload_bytes, download_bytes)`` pair applied to
#: every client (the million-client fast path — no dict in sight), or a
#: pair of per-client arrays aligned with ``client_ids``.
TrafficLike = Union[TrafficMap, Tuple[float, float], Tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class ClientTimeline:
    """One client's simulated participation in one round."""

    client_id: int
    round_index: int
    start: float
    download_seconds: float
    compute_seconds: float
    upload_seconds: float

    @property
    def duration(self) -> float:
        """Total local seconds (``compute + up + down``, see the module note)."""
        return self.compute_seconds + self.upload_seconds + self.download_seconds

    @property
    def finish(self) -> float:
        """Absolute simulated time the client's upload arrives."""
        return self.start + self.duration

    @property
    def download_done(self) -> float:
        return self.start + self.download_seconds


class RoundTimelines:
    """Struct-of-arrays timelines for one round's whole cohort.

    The simulator reads the arrays directly (three vector expressions
    price a million clients), while :meth:`view` materializes a single
    :class:`ClientTimeline` on demand for the cross-round async carry set
    and the serving layer's dispatch pacing.
    """

    __slots__ = (
        "round_index",
        "start",
        "client_ids",
        "download_seconds",
        "compute_seconds",
        "upload_seconds",
        "durations",
        "finishes",
    )

    def __init__(
        self,
        round_index: int,
        start: float,
        client_ids: np.ndarray,
        download_seconds: np.ndarray,
        compute_seconds: np.ndarray,
        upload_seconds: np.ndarray,
    ) -> None:
        self.round_index = round_index
        self.start = start
        self.client_ids = client_ids
        self.download_seconds = download_seconds
        self.compute_seconds = compute_seconds
        self.upload_seconds = upload_seconds
        # Same summation order as ClientTimeline.duration (module note).
        self.durations = compute_seconds + upload_seconds + download_seconds
        self.finishes = start + self.durations

    def __len__(self) -> int:
        return int(self.client_ids.size)

    def max_duration(self) -> float:
        return float(self.durations.max()) if self.client_ids.size else 0.0

    def view(self, position: int) -> ClientTimeline:
        """The classic per-client view of one cohort entry."""
        return ClientTimeline(
            client_id=int(self.client_ids[position]),
            round_index=self.round_index,
            start=self.start,
            download_seconds=float(self.download_seconds[position]),
            compute_seconds=float(self.compute_seconds[position]),
            upload_seconds=float(self.upload_seconds[position]),
        )


def _traffic_arrays(
    traffic: TrafficLike, client_ids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-client (upload_bytes, download_bytes) aligned with ``client_ids``."""
    if isinstance(traffic, dict):
        if not traffic:
            zeros = np.zeros(client_ids.size, dtype=np.float64)
            return zeros, zeros
        pairs = np.array(
            [traffic.get(cid, (0.0, 0.0)) for cid in client_ids.tolist()],
            dtype=np.float64,
        ).reshape(client_ids.size, 2)
        return pairs[:, 0], pairs[:, 1]
    upload, download = traffic
    up = np.asarray(upload, dtype=np.float64)
    down = np.asarray(download, dtype=np.float64)
    if up.ndim == 0:
        up = np.full(client_ids.size, float(up), dtype=np.float64)
    if down.ndim == 0:
        down = np.full(client_ids.size, float(down), dtype=np.float64)
    return up, down


def build_round_timelines(
    fleet: Fleet,
    round_index: int,
    start: float,
    client_ids: Sequence[int],
    traffic: TrafficLike,
    flops_per_example: float,
    examples_per_round: float,
    jitter_factors: Optional[np.ndarray] = None,
) -> RoundTimelines:
    """Timelines for every starting client, in the given (sampled) order.

    A backward pass costs about twice the forward pass, so each training
    example is priced at 3× the inference FLOPs.  Clients missing
    from a ``traffic`` map are priced at zero bytes — they still pay their
    compute time.  ``jitter_factors`` (aligned with ``client_ids``, the
    simulator's draw order) scales every phase of each client.
    """
    ids = np.asarray(client_ids, dtype=np.int64)
    upload_bytes, download_bytes = _traffic_arrays(traffic, ids)
    flops_rates, uplink_rates, download_rates = fleet.profile_arrays(ids)
    compute = (3.0 * flops_per_example * examples_per_round) / flops_rates
    up = upload_bytes / uplink_rates
    down = download_bytes / download_rates
    if jitter_factors is not None:
        factors = np.asarray(jitter_factors, dtype=np.float64)
        compute = compute * factors
        up = up * factors
        down = down * factors
    return RoundTimelines(
        round_index=round_index,
        start=start,
        client_ids=ids,
        download_seconds=down,
        compute_seconds=compute,
        upload_seconds=up,
    )
