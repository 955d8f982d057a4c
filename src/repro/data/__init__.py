"""Datasets, synthetic benchmark generators and non-IID partitioning.

Every dataset is an in-memory :class:`ArrayDataset` or a chain of
:class:`Subset` index views over one; batches are vectorized gathers
from the root arrays.

Both scenario axes are registry-driven: datasets register a
:class:`DatasetSpec` plus loader with :func:`register_dataset` into
:data:`DATASETS` (``DATASETS[name].spec``), and partition strategies
register with :func:`register_partitioner` into :data:`PARTITIONERS`.
"""

from .dataset import ArrayDataset, Dataset, Subset, train_val_split
from .loader import DataLoader, full_batch
from .registry import (
    DATASETS,
    PARTITIONERS,
    DatasetEntry,
    PartitionerSpec,
    register_dataset,
    register_partitioner,
)
from .partition import (
    ClientData,
    DataConfig,
    build_client_data,
    dirichlet_partition,
    iid_partition,
    label_distribution,
    label_k_partition,
    label_overlap,
    label_test_view,
    partition_indices,
    quantity_skew_partition,
    shard_partition,
)
from .stats import heterogeneity_index, label_emd, label_histogram
from .synthetic import (
    DatasetSpec,
    class_templates,
    generate_split,
    load_dataset,
    synthetic_cifar10,
    synthetic_cifar100,
    synthetic_emnist,
    synthetic_mnist,
)

__all__ = [
    "Dataset",
    "ArrayDataset",
    "Subset",
    "train_val_split",
    "DataLoader",
    "full_batch",
    "ClientData",
    "DataConfig",
    "DatasetEntry",
    "PartitionerSpec",
    "DATASETS",
    "PARTITIONERS",
    "register_dataset",
    "register_partitioner",
    "shard_partition",
    "dirichlet_partition",
    "iid_partition",
    "quantity_skew_partition",
    "label_k_partition",
    "partition_indices",
    "build_client_data",
    "label_test_view",
    "label_distribution",
    "label_overlap",
    "DatasetSpec",
    "class_templates",
    "generate_split",
    "load_dataset",
    "synthetic_mnist",
    "synthetic_emnist",
    "synthetic_cifar10",
    "synthetic_cifar100",
    "label_histogram",
    "label_emd",
    "heterogeneity_index",
]
