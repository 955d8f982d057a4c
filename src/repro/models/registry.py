"""Model factory keyed by dataset family, matching the paper's pairing.

§4.1 pairs architectures with datasets: the 5-layer CNN for MNIST/EMNIST and
LeNet-5 for CIFAR-10/100.  ``create_model`` reproduces that pairing and
seeds initialization so that all clients and the server can be constructed
from the identical ``theta_0`` the algorithms require.

The pairing is extensible: a dataset registered through
:func:`repro.data.registry.register_dataset` gets a model in one of two
ways — either it registers its own builder in :data:`MODELS` with
:func:`register_model`, or it falls back to a shape-generic MLP over the
flattened input (so a third-party scenario runs end-to-end with zero model
code).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from ..data.registry import DATASETS
from ..registry import Registry
from .base import ConvNet
from .cnn import CNN5
from .lenet import LeNet5
from .mlp import MLP

#: Dataset name -> builder(num_classes, in_channels, rng).  The paper's
#: architectures are input-size-specific (their FC dimensions assume 28x28
#: and 32x32 inputs), hence the per-dataset pairing.
MODELS = Registry("model")


def register_model(dataset: str) -> Callable:
    """Decorator pairing a model builder with a registered dataset.

    The builder receives ``(num_classes, in_channels, rng)`` and must
    return a :class:`~repro.models.base.ConvNet`; ``MODELS.unregister``
    removes the pairing again:

    >>> @register_model("my-data")
    ... def build(num_classes, in_channels, rng):
    ...     return CNN5(num_classes, in_channels, rng)
    """
    return lambda builder: MODELS.add(dataset, builder)


for _dataset, _model in (
    ("mnist", CNN5), ("emnist", CNN5), ("cifar10", LeNet5), ("cifar100", LeNet5)
):
    MODELS.add(_dataset, _model)


def create_model(dataset: str, seed: int = 0, num_classes: Optional[int] = None) -> ConvNet:
    """Build the architecture paired with ``dataset``, with seeded init.

    Datasets without a registered builder (third-party scenario plugins)
    fall back to an MLP over the flattened input — shape-agnostic, so any
    registered dataset trains out of the box.
    """
    spec = DATASETS[dataset].spec
    classes = num_classes if num_classes is not None else spec.num_classes
    rng = np.random.default_rng(seed)
    builder = MODELS.get(dataset)
    if builder is None:
        in_features = int(np.prod(spec.shape))
        return MLP(in_features, classes, hidden=(64,), rng=rng)
    return builder(classes, spec.shape[0], rng)


def input_spatial_size(dataset: str) -> int:
    """Side length of the dataset's square images."""
    return DATASETS[dataset].spec.shape[1]


def parameter_census(model: ConvNet) -> Dict[str, int]:
    """Per-parameter element counts plus a ``total`` entry."""
    census = {name: param.size for name, param in model.named_parameters()}
    census["total"] = sum(
        count for name, count in census.items() if name != "total"
    )
    return census
