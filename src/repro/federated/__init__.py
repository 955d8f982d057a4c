"""Federated learning core: the ``Federation`` API, trainers and accounting.

The canonical entry point is the :class:`Federation` facade over a
serializable :class:`FederationConfig`:

>>> from repro.federated import Federation, FederationConfig, ProgressLogger
>>> config = FederationConfig(dataset="mnist", algorithm="sub-fedavg-un",
...                           num_clients=10, rounds=5, seed=0)
>>> federation = Federation.from_config(config)
>>> history = federation.run(callbacks=[ProgressLogger()])  # doctest: +SKIP

Algorithms are plugins: trainer classes self-register with
:func:`register_trainer` into :data:`TRAINERS`, a read-only mapping from
algorithm name to entry.  The data scenario is pluggable the same way —
datasets and partition strategies register in :mod:`repro.data.registry`,
participation models in :data:`SAMPLERS` (:func:`register_sampler`), and
the nested ``data``/``scenario`` config sections select them per run.
Client execution is pluggable too: per-round local work runs on
an :mod:`~repro.federated.execution` backend (``serial``, ``thread`` or
``process`` — ``FederationConfig(backend=..., workers=...)``) with
histories guaranteed identical across backends.  Lifecycle callbacks (:class:`ProgressLogger`,
:class:`EarlyStopping`, :class:`CheckpointCallback`,
:class:`FleetSimCallback`, or any :class:`Callback` subclass) observe and
steer the round loop.
"""

from .aggregation import (
    fedavg_average,
    intersection_average,
    partial_average,
    zero_fill_average,
)
from .registry import TRAINERS, TrainerSpec, register_trainer
from .callbacks import (
    Callback,
    CallbackList,
    CheckpointCallback,
    EarlyStopping,
    ProgressLogger,
)
from .execution import (
    BACKENDS,
    WIRE_VERSION,
    ClientTask,
    ClientUpdate,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    WorkerPool,
    resolve_backend,
    resolve_start_method,
    run_client_task,
)
from .builder import (
    FederationConfig,
    ModelFactory,
    build_trainer,
    make_clients,
    model_factory,
)
from .federation import Federation
from .client import FederatedClient, LocalTrainConfig, LocalTrainResult
from .pool import ClientPool
from .metrics import History, RoundRecord
from .sampler import (
    AvailabilitySampler,
    ClientSampler,
    FixedSampler,
)
from .scenario import SAMPLERS, ScenarioConfig, build_sampler, register_sampler
from ..data.partition import DataConfig
from .trainers import (
    FedAvg,
    FedMTL,
    FedProx,
    FederatedTrainer,
    LGFedAvg,
    Standalone,
    SubFedAvgHy,
    SubFedAvgUn,
)
from .compression import (
    COMPRESSORS,
    CompressionConfig,
    Compressor,
    EncodedState,
    FedAvgCompressed,
    IdentityCompressor,
    QuantizationCompressor,
    RandomMaskCompressor,
    TopKCompressor,
    build_compressor,
    decode_state,
    pack_state,
    register_compressor,
    unpack_state,
)
from .trainers.finetune import FedAvgFinetune
from ..systems import (
    DEVICE_PROFILES,
    EDGE_PHONE,
    FLEETS,
    RASPBERRY_PI,
    ROUND_POLICIES,
    WORKSTATION,
    DeviceProfile,
    Fleet,
    FleetSimCallback,
    FleetSimulator,
    SystemsConfig,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .evaluation import (
    FairnessReport,
    confusion_matrix,
    fairness_report,
    model_confusion,
    per_class_accuracy,
    predict,
)
from . import accounting

__all__ = [
    "Federation",
    "FederationConfig",
    "ClientTask",
    "ClientUpdate",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "BACKENDS",
    "WorkerPool",
    "WIRE_VERSION",
    "resolve_backend",
    "resolve_start_method",
    "run_client_task",
    "TRAINERS",
    "TrainerSpec",
    "register_trainer",
    "Callback",
    "CallbackList",
    "ProgressLogger",
    "EarlyStopping",
    "CheckpointCallback",
    "FederatedClient",
    "LocalTrainConfig",
    "LocalTrainResult",
    "ClientPool",
    "ClientSampler",
    "FixedSampler",
    "AvailabilitySampler",
    "SAMPLERS",
    "ScenarioConfig",
    "DataConfig",
    "register_sampler",
    "build_sampler",
    "History",
    "RoundRecord",
    "fedavg_average",
    "intersection_average",
    "partial_average",
    "zero_fill_average",
    "FederatedTrainer",
    "FedAvg",
    "FedProx",
    "LGFedAvg",
    "FedMTL",
    "Standalone",
    "SubFedAvgUn",
    "SubFedAvgHy",
    "build_trainer",
    "make_clients",
    "model_factory",
    "ModelFactory",
    "accounting",
    "COMPRESSORS",
    "Compressor",
    "CompressionConfig",
    "EncodedState",
    "IdentityCompressor",
    "TopKCompressor",
    "RandomMaskCompressor",
    "QuantizationCompressor",
    "FedAvgCompressed",
    "register_compressor",
    "build_compressor",
    "decode_state",
    "pack_state",
    "unpack_state",
    "FedAvgFinetune",
    "DeviceProfile",
    "DEVICE_PROFILES",
    "Fleet",
    "FleetSimulator",
    "FleetSimCallback",
    "SystemsConfig",
    "FLEETS",
    "ROUND_POLICIES",
    "EDGE_PHONE",
    "RASPBERRY_PI",
    "WORKSTATION",
    "save_checkpoint",
    "load_checkpoint",
    "confusion_matrix",
    "per_class_accuracy",
    "model_confusion",
    "predict",
    "FairnessReport",
    "fairness_report",
]
