"""Dataset containers.

The federated layer manipulates three views of data: the full training set
(to be partitioned across clients), per-client subsets (index views), and
per-client validation/test splits.  All of them are expressed through the
small :class:`Dataset` protocol here.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


class Dataset:
    """Minimal dataset protocol: length + integer indexing to (x, y)."""

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        raise NotImplementedError

    @property
    def labels(self) -> np.ndarray:
        """Integer label of every example (used by the partitioners)."""
        raise NotImplementedError


class ArrayDataset(Dataset):
    """Dataset backed by in-memory arrays ``images (N, C, H, W)``, ``labels (N,)``."""

    def __init__(self, images: np.ndarray, labels: np.ndarray) -> None:
        images = np.asarray(images)
        labels = np.asarray(labels)
        if len(images) != len(labels):
            raise ValueError(
                f"images and labels disagree on length: {len(images)} vs {len(labels)}"
            )
        if images.ndim != 4:
            raise ValueError(f"expected (N, C, H, W) images, got shape {images.shape}")
        self.images = images
        self._labels = labels.astype(np.int64)

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        return self.images[index], int(self._labels[index])

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    @property
    def num_classes(self) -> int:
        return int(self._labels.max()) + 1 if len(self._labels) else 0

    def batch(self, indices: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized gather of a batch (faster than per-item indexing)."""
        indices = np.asarray(indices)
        return self.images[indices], self._labels[indices]


class Subset(Dataset):
    """Index view over a base dataset."""

    def __init__(self, base: Dataset, indices: Sequence[int]) -> None:
        self.base = base
        self.indices = np.asarray(indices, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        return self.base[int(self.indices[index])]

    @property
    def labels(self) -> np.ndarray:
        return self.base.labels[self.indices]

    def batch(self, indices: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        return self.base.batch(self.indices[np.asarray(indices)])


def train_val_split(
    dataset: Dataset, val_fraction: float, rng: np.random.Generator
) -> Tuple[Subset, Subset]:
    """Random split into train/validation index views.

    Guarantees a non-empty validation set whenever ``val_fraction > 0`` and
    the dataset has at least two examples (the paper's accuracy gate needs a
    validation estimate on every client).
    """
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in [0, 1), got {val_fraction}")
    count = len(dataset)
    order = rng.permutation(count)
    n_val = int(round(count * val_fraction))
    if val_fraction > 0 and n_val == 0 and count >= 2:
        n_val = 1
    val_idx, train_idx = order[:n_val], order[n_val:]
    return Subset(dataset, train_idx), Subset(dataset, val_idx)
