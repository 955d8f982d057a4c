"""Sub-FedAvg reproduction: personalized federated learning by pruning.

Reproduces "Personalized Federated Learning by Structured and Unstructured
Pruning under Data Heterogeneity" (Vahidian, Morafah, Lin — ICDCS 2021)
from scratch: a numpy autograd engine, CNN layers, synthetic non-IID
benchmarks, the Sub-FedAvg algorithms and all paper baselines.

Quickstart
----------
>>> from repro.federated import DataConfig, Federation, FederationConfig
>>> federation = Federation.from_config(FederationConfig(
...     dataset="mnist", algorithm="sub-fedavg-un", num_clients=10, rounds=3,
...     data=DataConfig(n_train=600, n_test=200)))
>>> history = federation.run()  # doctest: +SKIP

Every experiment axis is a plugin registry, one
:class:`repro.registry.Registry` each: algorithms
(``repro.federated.TRAINERS``), datasets (``repro.data.DATASETS``),
partition strategies (``repro.data.PARTITIONERS``), client-participation
models (``repro.federated.SAMPLERS``), fleets, round policies, codecs and
dataset models.  Run configs serialize to JSON
(including the nested ``data``/``scenario`` scenario sections), and
callbacks (``ProgressLogger``, ``EarlyStopping``, ``CheckpointCallback``,
``FleetSimCallback``) hook into the round loop.
"""

from . import data, experiments, federated, models, nn, optim, pruning, tensor, utils

__version__ = "1.0.0"

__all__ = [
    "tensor",
    "nn",
    "optim",
    "data",
    "models",
    "pruning",
    "federated",
    "experiments",
    "utils",
    "__version__",
]
