"""Federated learning core: the ``Federation`` API, trainers and accounting.

The canonical entry point is the :class:`Federation` facade over a
serializable :class:`FederationConfig`:

>>> from repro.federated import Federation, FederationConfig, ProgressLogger
>>> config = FederationConfig(dataset="mnist", algorithm="sub-fedavg-un",
...                           num_clients=10, rounds=5, seed=0)
>>> federation = Federation.from_config(config)
>>> history = federation.run(callbacks=[ProgressLogger()])  # doctest: +SKIP

Algorithms are plugins: trainer classes self-register with
:func:`register_trainer`, and :data:`ALGORITHMS` is a derived view of the
registry.  The data scenario is pluggable the same way — datasets and
partition strategies register in :mod:`repro.data.registry`, participation
models in :mod:`~repro.federated.scenario` (:func:`register_sampler`), and
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
from .registry import (
    TrainerSpec,
    available_algorithms,
    get_trainer,
    register_trainer,
    trainer_specs,
    unregister_trainer,
)
from .callbacks import (
    Callback,
    CallbackList,
    CheckpointCallback,
    EarlyStopping,
    ProgressLogger,
)
from .execution import (
    WIRE_VERSION,
    ClientTask,
    ClientUpdate,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    SpawnProcessBackend,
    ThreadBackend,
    WorkerPool,
    available_backends,
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
from .pool import (
    STATE_STORES,
    ClientPool,
    FileStateStore,
    MemoryStateStore,
    make_state_store,
)
from .metrics import History, RoundRecord
from .sampler import (
    AvailabilitySampler,
    ClientSampler,
    DiurnalSampler,
    FixedSampler,
)
from .scenario import (
    SamplerSpec,
    ScenarioConfig,
    available_samplers,
    build_sampler,
    get_sampler,
    register_sampler,
    sampler_specs,
    unregister_sampler,
)
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
    CompressionConfig,
    Compressor,
    CompressorSpec,
    EncodedState,
    FedAvgCompressed,
    IdentityCompressor,
    QuantizationCompressor,
    RandomMaskCompressor,
    TopKCompressor,
    available_compressors,
    build_compressor,
    compressor_specs,
    decode_state,
    get_compressor,
    pack_state,
    register_compressor,
    unpack_state,
    unregister_compressor,
)
from .robust import (
    AvailabilityModel,
    CorruptionModel,
    RobustFedAvg,
    StragglerModel,
    median_average,
    trimmed_mean_average,
)
from .trainers.finetune import FedAvgFinetune
from ..systems import (
    DEVICE_PROFILES,
    EDGE_PHONE,
    RASPBERRY_PI,
    WORKSTATION,
    DeviceProfile,
    Fleet,
    FleetSimCallback,
    FleetSimulator,
    SystemsConfig,
    available_fleets,
    available_round_policies,
    fleet_specs,
    round_policy_specs,
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

def __getattr__(name: str):
    # ALGORITHMS is a live derived view of the registry, not a snapshot:
    # plugins registered (or unregistered) after this package was imported
    # are reflected immediately.
    if name == "ALGORITHMS":
        return available_algorithms()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Federation",
    "FederationConfig",
    "ClientTask",
    "ClientUpdate",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "SpawnProcessBackend",
    "WorkerPool",
    "WIRE_VERSION",
    "available_backends",
    "resolve_backend",
    "resolve_start_method",
    "run_client_task",
    "TrainerSpec",
    "register_trainer",
    "unregister_trainer",
    "get_trainer",
    "trainer_specs",
    "available_algorithms",
    "Callback",
    "CallbackList",
    "ProgressLogger",
    "EarlyStopping",
    "CheckpointCallback",
    "FederatedClient",
    "LocalTrainConfig",
    "LocalTrainResult",
    "ClientPool",
    "MemoryStateStore",
    "FileStateStore",
    "STATE_STORES",
    "make_state_store",
    "ClientSampler",
    "FixedSampler",
    "AvailabilitySampler",
    "DiurnalSampler",
    "SamplerSpec",
    "ScenarioConfig",
    "DataConfig",
    "register_sampler",
    "unregister_sampler",
    "get_sampler",
    "available_samplers",
    "sampler_specs",
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
    "ALGORITHMS",
    "accounting",
    "Compressor",
    "CompressorSpec",
    "CompressionConfig",
    "EncodedState",
    "IdentityCompressor",
    "TopKCompressor",
    "RandomMaskCompressor",
    "QuantizationCompressor",
    "FedAvgCompressed",
    "register_compressor",
    "unregister_compressor",
    "get_compressor",
    "available_compressors",
    "compressor_specs",
    "build_compressor",
    "decode_state",
    "pack_state",
    "unpack_state",
    "AvailabilityModel",
    "CorruptionModel",
    "StragglerModel",
    "RobustFedAvg",
    "FedAvgFinetune",
    "median_average",
    "trimmed_mean_average",
    "DeviceProfile",
    "DEVICE_PROFILES",
    "Fleet",
    "FleetSimulator",
    "FleetSimCallback",
    "SystemsConfig",
    "available_fleets",
    "available_round_policies",
    "fleet_specs",
    "round_policy_specs",
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
