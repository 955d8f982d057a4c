"""Non-IID client partitioning, dispatched through the partitioner registry.

The paper's protocol (§4.1): sort the training set by label, split it into
shards of 250 examples (125 for CIFAR-100), and give each client two shards
drawn at random.  A client therefore typically sees examples of only one or
two labels — the pathological heterogeneity under which FedAvg collapses and
personalization pays off.

Partition strategies are plugins: every partitioner self-registers with
:func:`~repro.data.registry.register_partitioner`, declaring which
:class:`DataConfig` fields parameterize it, and :func:`build_client_data`
dispatches on the config's ``partition`` name through the registry — so a
new skew pattern is one decorated function, no edits here.  Shipped
strategies:

* ``shard`` — the paper's 2-shard label split (McMahan et al. 2017),
* ``dirichlet`` — Dirichlet(α) label skew (Hsu et al. 2019),
* ``iid`` — uniform random equal split (the homogeneous control),
* ``quantity-skew`` — IID labels but Dirichlet(α) over client *sizes*,
* ``label-k`` — each client sees exactly ``k`` labels.

:func:`build_client_data` then assembles complete per-client bundles
(train/val/test views), where each client's test set contains every test
example whose label the client owns (the paper's personalized evaluation
rule).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, Optional, Sequence

import numpy as np

from .dataset import ArrayDataset, Dataset, Subset, train_val_split
from .registry import PARTITIONERS, register_partitioner


@dataclass(frozen=True)
class DataConfig:
    """Declarative description of the data scenario of one run.

    Serializes as the ``data`` section of a
    :class:`~repro.federated.builder.FederationConfig`; field defaults
    mirror the historical flat-config defaults so legacy payloads migrate
    losslessly.  Partitioner-specific fields are only read by the strategy
    that declared them (see each ``@register_partitioner`` call below).
    """

    partition: str = "shard"
    n_train: int = 2000
    n_test: int = 500
    val_fraction: float = 0.1
    shards_per_client: int = 2
    shard_size: Optional[int] = None
    dirichlet_alpha: float = 0.5
    quantity_alpha: float = 1.0
    labels_per_client: int = 2
    min_size: int = 2
    max_attempts: int = 100

    def __post_init__(self) -> None:
        if self.n_train <= 0 or self.n_test <= 0:
            raise ValueError(
                f"n_train/n_test must be positive, got {self.n_train}/{self.n_test}"
            )
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(
                f"val_fraction must be in [0, 1), got {self.val_fraction}"
            )
        if self.shards_per_client < 1:
            raise ValueError(
                f"shards_per_client must be >= 1, got {self.shards_per_client}"
            )
        if self.min_size < 1:
            raise ValueError(f"min_size must be >= 1, got {self.min_size}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    @classmethod
    def field_names(cls) -> tuple:
        return tuple(spec.name for spec in fields(cls))


@dataclass
class ClientData:
    """Everything one client can see: local train/val views and a test view."""

    client_id: int
    train: Dataset
    val: Dataset
    test: Dataset
    labels: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))


@register_partitioner(
    "shard",
    params=("shards_per_client", "shard_size"),
    summary="label-sorted shards, s random shards per client (paper §4.1)",
)
def shard_partition(
    labels: np.ndarray,
    num_clients: int,
    shards_per_client: int = 2,
    shard_size: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> List[np.ndarray]:
    """Partition example indices into per-client index sets by label shards.

    Follows McMahan et al. (2017) / the paper's §4.1: indices are sorted by
    label, chopped into equal shards, and each client receives
    ``shards_per_client`` random shards without replacement.

    ``shard_size`` defaults to using the entire dataset:
    ``len(labels) // (num_clients * shards_per_client)``.

    Returns a list of index arrays, one per client.  Raises ``ValueError``
    when the dataset is too small to give every client its shard quota.
    """
    labels = np.asarray(labels)
    rng = rng if rng is not None else np.random.default_rng()
    total_shards = num_clients * shards_per_client
    if shard_size is None:
        shard_size = len(labels) // total_shards
    if shard_size <= 0:
        raise ValueError(
            f"dataset of {len(labels)} examples cannot supply "
            f"{total_shards} shards (shard_size={shard_size})"
        )
    needed = total_shards * shard_size
    if needed > len(labels):
        raise ValueError(
            f"need {needed} examples for {total_shards} shards of {shard_size}, "
            f"have {len(labels)}"
        )

    # Stable sort keeps the within-label order deterministic.
    sorted_indices = np.argsort(labels, kind="stable")
    shards = [
        sorted_indices[i * shard_size : (i + 1) * shard_size]
        for i in range(total_shards)
    ]
    order = rng.permutation(total_shards)
    assignments: List[np.ndarray] = []
    for client in range(num_clients):
        picked = order[client * shards_per_client : (client + 1) * shards_per_client]
        assignments.append(np.concatenate([shards[s] for s in picked]))
    return assignments


@register_partitioner(
    "dirichlet",
    params={
        "alpha": "dirichlet_alpha",
        "min_size": "min_size",
        "max_attempts": "max_attempts",
    },
    summary="Dirichlet(alpha) label skew (Hsu et al. 2019)",
)
def dirichlet_partition(
    labels: np.ndarray,
    num_clients: int,
    alpha: float,
    rng: Optional[np.random.Generator] = None,
    min_size: int = 2,
    max_attempts: int = 100,
) -> List[np.ndarray]:
    """Dirichlet(α) label-skew partition (Hsu et al. 2019 convention).

    Lower ``alpha`` means more heterogeneity; ``alpha -> inf`` approaches
    IID.  Used by the heterogeneity-sweep ablation, not by the paper's main
    tables.  Resamples up to ``max_attempts`` times until every client
    holds at least ``min_size`` examples.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    labels = np.asarray(labels)
    rng = rng if rng is not None else np.random.default_rng()
    num_classes = int(labels.max()) + 1
    for _ in range(max_attempts):
        client_indices: List[List[int]] = [[] for _ in range(num_clients)]
        for k in range(num_classes):
            class_indices = np.flatnonzero(labels == k)
            rng.shuffle(class_indices)
            proportions = rng.dirichlet(np.full(num_clients, alpha))
            cuts = (np.cumsum(proportions)[:-1] * len(class_indices)).astype(int)
            for client, chunk in enumerate(np.split(class_indices, cuts)):
                client_indices[client].extend(chunk.tolist())
        sizes = [len(chunk) for chunk in client_indices]
        if min(sizes) >= min_size:
            return [np.asarray(chunk, dtype=np.int64) for chunk in client_indices]
    raise RuntimeError(
        f"no Dirichlet partition with every client >= {min_size} example(s) "
        f"after {max_attempts} attempts (alpha={alpha}, "
        f"num_clients={num_clients}, {len(labels)} examples over "
        f"{num_classes} classes); raise alpha or max_attempts, or lower "
        f"min_size/num_clients"
    )


@register_partitioner("iid", summary="uniform random equal split (IID control)")
def iid_partition(
    labels: np.ndarray,
    num_clients: int,
    rng: Optional[np.random.Generator] = None,
) -> List[np.ndarray]:
    """Shuffle all indices and deal them out evenly (the homogeneous control).

    Client sizes differ by at most one example; every client's label
    distribution approaches the global one as the dataset grows.
    """
    labels = np.asarray(labels)
    rng = rng if rng is not None else np.random.default_rng()
    order = rng.permutation(len(labels))
    return [np.sort(chunk).astype(np.int64) for chunk in np.array_split(order, num_clients)]


@register_partitioner(
    "quantity-skew",
    params={"alpha": "quantity_alpha", "min_size": "min_size"},
    summary="IID labels, Dirichlet(alpha) over client dataset sizes",
)
def quantity_skew_partition(
    labels: np.ndarray,
    num_clients: int,
    alpha: float = 1.0,
    rng: Optional[np.random.Generator] = None,
    min_size: int = 2,
) -> List[np.ndarray]:
    """IID label mix per client, but client *sizes* drawn Dirichlet(α).

    Isolates quantity skew from label skew: every client sees the global
    label distribution, yet a low ``alpha`` concentrates most examples on
    a few data-rich clients while the rest hold tiny local datasets
    (floored at ``min_size`` so no client is empty).
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    labels = np.asarray(labels)
    total = len(labels)
    if total < num_clients * min_size:
        raise ValueError(
            f"{total} examples cannot give {num_clients} clients "
            f">= {min_size} each"
        )
    rng = rng if rng is not None else np.random.default_rng()
    proportions = rng.dirichlet(np.full(num_clients, alpha))
    sizes = np.maximum((proportions * total).astype(int), min_size)
    # Repair rounding drift while respecting the floor: trim the largest
    # clients first, grow the smallest first.
    while sizes.sum() > total:
        sizes[int(np.argmax(sizes))] -= 1
    while sizes.sum() < total:
        sizes[int(np.argmin(sizes))] += 1
    order = rng.permutation(total)
    cuts = np.cumsum(sizes)[:-1]
    return [np.sort(chunk).astype(np.int64) for chunk in np.split(order, cuts)]


@register_partitioner(
    "label-k",
    params={"labels_per_client": "labels_per_client"},
    summary="each client sees exactly k labels",
)
def label_k_partition(
    labels: np.ndarray,
    num_clients: int,
    labels_per_client: int = 2,
    rng: Optional[np.random.Generator] = None,
) -> List[np.ndarray]:
    """Give every client examples of exactly ``labels_per_client`` labels.

    Labels are assigned round-robin over a shuffled label order (so all
    ``num_clients * k`` slots are covered and every label is owned by at
    least one client whenever ``num_clients * k >= num_classes``); each
    label's examples are then split evenly among its owners.  This is the
    "pathological non-IID" family parameterized directly by label count
    instead of shard arithmetic.
    """
    labels = np.asarray(labels)
    num_classes = int(labels.max()) + 1
    if not 1 <= labels_per_client <= num_classes:
        raise ValueError(
            f"labels_per_client must be in [1, {num_classes}], "
            f"got {labels_per_client}"
        )
    rng = rng if rng is not None else np.random.default_rng()
    label_order = rng.permutation(num_classes)
    owners: List[List[int]] = [[] for _ in range(num_classes)]
    slot = 0
    for client in range(num_clients):
        for _ in range(labels_per_client):
            owners[label_order[slot % num_classes]].append(client)
            slot += 1
    assignments: List[List[int]] = [[] for _ in range(num_clients)]
    for label, label_owners in enumerate(owners):
        if not label_owners:
            continue
        class_indices = np.flatnonzero(labels == label)
        rng.shuffle(class_indices)
        for owner, chunk in zip(
            label_owners, np.array_split(class_indices, len(label_owners))
        ):
            assignments[owner].extend(chunk.tolist())
    return [np.sort(np.asarray(chunk, dtype=np.int64)) for chunk in assignments]


def label_test_view(test_set: ArrayDataset, owned_labels: Sequence[int]) -> Subset:
    """Test view containing all test examples of the client's labels (§4.1)."""
    owned = np.asarray(sorted(set(int(label) for label in owned_labels)))
    mask = np.isin(test_set.labels, owned)
    return Subset(test_set, np.flatnonzero(mask))


def partition_indices(
    labels: np.ndarray,
    num_clients: int,
    config: DataConfig,
    rng: Optional[np.random.Generator] = None,
) -> List[np.ndarray]:
    """Run the configured partition strategy via the registry."""
    spec = PARTITIONERS[config.partition]
    return spec.fn(labels, num_clients, rng=rng, **spec.kwargs_from(config))


def build_client_data(
    train_set: ArrayDataset,
    test_set: ArrayDataset,
    num_clients: int,
    config: Optional[DataConfig] = None,
    seed: int = 0,
) -> List[ClientData]:
    """Construct the complete federation: one :class:`ClientData` per client.

    The scenario comes from ``config`` (a :class:`DataConfig`, defaulted),
    e.g. ``build_client_data(train, test, 10, DataConfig(
    partition="dirichlet", dirichlet_alpha=0.1))``.  The partition strategy
    is resolved through the registry; validation data is carved from each
    client's local training split, and the test view follows the paper's
    label-conditional rule.
    """
    if config is not None and not isinstance(config, DataConfig):
        raise TypeError(
            f"config must be a DataConfig, got {config!r}; the pre-scenario "
            "positional signature (shards_per_client as the 4th argument) "
            "is gone: build_client_data(train, test, n, "
            "DataConfig(shards_per_client=...))"
        )
    config = config if config is not None else DataConfig()
    rng = np.random.default_rng(seed)
    index_sets = partition_indices(train_set.labels, num_clients, config, rng)

    clients: List[ClientData] = []
    for client_id, indices in enumerate(index_sets):
        local = Subset(train_set, indices)
        owned_labels = np.unique(local.labels)
        train_view, val_view = train_val_split(local, config.val_fraction, rng)
        clients.append(
            ClientData(
                client_id=client_id,
                train=train_view,
                val=val_view,
                test=label_test_view(test_set, owned_labels),
                labels=owned_labels,
            )
        )
    return clients


def label_distribution(clients: Sequence[ClientData], num_classes: int) -> np.ndarray:
    """Matrix ``(num_clients, num_classes)`` of per-client training label counts."""
    table = np.zeros((len(clients), num_classes), dtype=np.int64)
    for row, client in enumerate(clients):
        labels, counts = np.unique(client.train.labels, return_counts=True)
        table[row, labels] = counts
    return table


def label_overlap(a: ClientData, b: ClientData) -> float:
    """Jaccard similarity of two clients' owned label sets.

    The paper's central observation is that clients with overlapping labels
    develop similar personalized subnetworks; this metric quantifies the
    overlap for the mask-similarity experiments.
    """
    set_a, set_b = set(a.labels.tolist()), set(b.labels.tolist())
    if not set_a and not set_b:
        return 1.0
    return len(set_a & set_b) / len(set_a | set_b)
