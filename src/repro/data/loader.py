"""Mini-batch iteration over datasets."""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from .dataset import Dataset


class DataLoader:
    """Seeded, shuffling batch iterator yielding ``(images, labels)`` arrays.

    Unlike PyTorch's loader this is single-process; the gather is the
    dataset's vectorized ``batch`` (an
    :class:`~repro.data.dataset.ArrayDataset` or a ``Subset`` chain over
    one).  Each ``__iter__`` call draws a fresh permutation from the
    loader's own generator, so epoch order is reproducible given the seed
    but differs across epochs.
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int = 10,
        shuffle: bool = True,
        drop_last: bool = False,
        seed: Optional[int] = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        count = len(self.dataset)
        if self.drop_last:
            return count // self.batch_size
        return (count + self.batch_size - 1) // self.batch_size

    def get_rng_state(self):
        """Snapshot of the shuffle generator (a plain, picklable dict)."""
        return self._rng.bit_generator.state

    def set_rng_state(self, state) -> None:
        """Restore a snapshot taken with :meth:`get_rng_state`."""
        self._rng.bit_generator.state = state

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        count = len(self.dataset)
        order = self._rng.permutation(count) if self.shuffle else np.arange(count)
        stop = (count // self.batch_size) * self.batch_size if self.drop_last else count
        for start in range(0, stop, self.batch_size):
            indices = order[start : start + self.batch_size]
            if len(indices) == 0:
                continue
            yield self._gather(indices)

    def _gather(self, indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self.dataset.batch(indices)


def full_batch(dataset: Dataset) -> Tuple[np.ndarray, np.ndarray]:
    """Materialize an entire dataset as one ``(images, labels)`` pair."""
    return dataset.batch(np.arange(len(dataset)))
