"""Synthetic stand-ins for MNIST, EMNIST, CIFAR-10 and CIFAR-100.

The evaluation environment has no network access, so torchvision downloads
are unavailable.  These generators produce class-conditional image
distributions that preserve the properties Sub-FedAvg's experiments depend
on:

* fixed shapes and class counts matching the real datasets,
* a deterministic per-class *template* (a smoothed random field), so a small
  CNN can learn each class from few examples — mirroring the "limited data,
  few labels per client" regime of the 2-shard partition,
* per-sample Gaussian noise, random translation and per-class distractor
  structure, so classification is non-trivial and benefits from more data,
* a dataset difficulty ordering (MNIST ≈ EMNIST < CIFAR-10 < CIFAR-100)
  controlled by the signal-to-noise ratio.

Every generator is deterministic given ``seed``: the class templates depend
only on ``(seed, num_classes, shape)`` and sample noise is drawn from a
``numpy.random.Generator`` seeded from the same value.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy import ndimage

from .dataset import ArrayDataset
from .registry import SpecView, get_dataset, register_dataset


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of a dataset family."""

    name: str
    shape: Tuple[int, int, int]  # (C, H, W)
    num_classes: int
    signal: float  # template amplitude (higher = easier)
    noise: float  # per-sample Gaussian noise std
    max_shift: int  # uniform translation jitter, in pixels
    distractor: float = 0.0  # amplitude of an added wrong-class template


#: Live ``name -> DatasetSpec`` view over the dataset registry.  Third-party
#: datasets added with ``@register_dataset`` appear here (and therefore in
#: config validation, the CLI and the model factory) immediately.
SPECS = SpecView()


def class_templates(spec: DatasetSpec, seed: int) -> np.ndarray:
    """Deterministic per-class templates of shape ``(K, C, H, W)``.

    Templates are smoothed Gaussian random fields, normalized to unit RMS,
    so every class occupies a distinct low-frequency direction in pixel
    space.  Smoothing makes them translation-tolerant, which rewards the
    convolutional inductive bias just as natural images do.
    """
    rng = np.random.default_rng(seed)
    channels, height, width = spec.shape
    templates = rng.normal(size=(spec.num_classes, channels, height, width))
    for k in range(spec.num_classes):
        for c in range(channels):
            templates[k, c] = ndimage.gaussian_filter(templates[k, c], sigma=3.0)
    rms = np.sqrt((templates ** 2).mean(axis=(1, 2, 3), keepdims=True))
    return templates / rms


def _shift2d(image: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Translate the spatial axes of a ``(C, H, W)`` image with zero fill."""
    if dy == 0 and dx == 0:
        return image
    shifted = np.roll(image, (dy, dx), axis=(1, 2))
    if dy > 0:
        shifted[:, :dy, :] = 0.0
    elif dy < 0:
        shifted[:, dy:, :] = 0.0
    if dx > 0:
        shifted[:, :, :dx] = 0.0
    elif dx < 0:
        shifted[:, :, dx:] = 0.0
    return shifted


def generate_split(
    spec: DatasetSpec, count: int, seed: int, split: str
) -> ArrayDataset:
    """Sample ``count`` labelled images for ``split`` (``train``/``test``).

    Labels are balanced (each class appears ``count // num_classes`` times,
    remainder spread over the first classes) to mirror the balanced class
    frequencies of the real benchmark datasets, which the shard partitioner
    relies on.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    templates = class_templates(spec, seed)
    # Different noise stream per split, same templates.  zlib.crc32 is a
    # stable hash (builtin hash() varies across processes).
    split_key = zlib.crc32(split.encode("utf-8"))
    stream = np.random.default_rng((seed, split_key, count))
    per_class = count // spec.num_classes
    remainder = count % spec.num_classes
    labels = np.concatenate(
        [
            np.full(per_class + (1 if k < remainder else 0), k, dtype=np.int64)
            for k in range(spec.num_classes)
        ]
    )
    stream.shuffle(labels)

    channels, height, width = spec.shape
    images = stream.normal(scale=spec.noise, size=(count, channels, height, width))
    shifts = stream.integers(-spec.max_shift, spec.max_shift + 1, size=(count, 2))
    scales = stream.uniform(0.8, 1.2, size=count)
    distractor_classes = stream.integers(0, spec.num_classes, size=count)
    for i, label in enumerate(labels):
        template = _shift2d(templates[label], int(shifts[i, 0]), int(shifts[i, 1]))
        images[i] += spec.signal * scales[i] * template
        if spec.distractor > 0:
            # Mix in another class's pattern at lower amplitude, mimicking
            # the shared structure that makes natural images harder.
            other = int(distractor_classes[i])
            if other != label:
                images[i] += spec.distractor * templates[other]
    # Standardize globally, as the torchvision pipelines do per-dataset.
    images = (images - images.mean()) / (images.std() + 1e-8)
    return ArrayDataset(images.astype(np.float64), labels)


def _synthetic_loader(
    spec: DatasetSpec, n_train: int, n_test: int, seed: int
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Synthetic class-conditional splits (see module docstring)."""
    train = generate_split(spec, n_train, seed, "train")
    test = generate_split(spec, n_test, seed, "test")
    return train, test


for _spec in (
    DatasetSpec(
        "mnist", (1, 28, 28), 10, signal=3.0, noise=1.0, max_shift=2, distractor=0.3
    ),
    DatasetSpec(
        "emnist", (1, 28, 28), 26, signal=3.0, noise=1.0, max_shift=2, distractor=0.3
    ),
    DatasetSpec(
        "cifar10", (3, 32, 32), 10, signal=1.8, noise=1.0, max_shift=3, distractor=0.9
    ),
    DatasetSpec(
        "cifar100", (3, 32, 32), 100, signal=1.5, noise=1.0, max_shift=3, distractor=1.1
    ),
):
    register_dataset(_spec, summary="synthetic class-conditional images")(
        _synthetic_loader
    )


def load_dataset(
    name: str, n_train: int, n_test: int, seed: int = 0
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Return ``(train, test)`` datasets for a registered family.

    Dispatches through the dataset registry: the builtin synthetic families
    (``mnist``, ``emnist``, ``cifar10``, ``cifar100``) plus anything added
    with :func:`~repro.data.registry.register_dataset`.
    """
    entry = get_dataset(name)
    return entry.loader(entry.spec, n_train, n_test, seed)


def synthetic_mnist(n_train: int = 2000, n_test: int = 500, seed: int = 0):
    """Synthetic MNIST: 1×28×28, 10 classes (see module docstring)."""
    return load_dataset("mnist", n_train, n_test, seed)


def synthetic_emnist(n_train: int = 2000, n_test: int = 500, seed: int = 0):
    """Synthetic EMNIST letters: 1×28×28, 26 classes."""
    return load_dataset("emnist", n_train, n_test, seed)


def synthetic_cifar10(n_train: int = 2000, n_test: int = 500, seed: int = 0):
    """Synthetic CIFAR-10: 3×32×32, 10 classes, lower SNR than MNIST."""
    return load_dataset("cifar10", n_train, n_test, seed)


def synthetic_cifar100(n_train: int = 4000, n_test: int = 1000, seed: int = 0):
    """Synthetic CIFAR-100: 3×32×32, 100 classes, hardest family."""
    return load_dataset("cifar100", n_train, n_test, seed)
