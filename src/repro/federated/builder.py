"""Construction of a complete federation from a declarative config.

:class:`FederationConfig` is the single serializable description of one
experiment run: it round-trips through ``to_dict``/``from_dict`` and
``to_json``/``from_json``, so a run can be stored next to its results and
replayed bit-for-bit (``python -m repro run --config run.json``).

Every pluggable axis is registry-driven, so construction has no if/elif
chains anywhere:

* ``config.algorithm`` resolves through
  :mod:`~repro.federated.registry` (``@register_trainer``),
* ``config.dataset`` and ``config.data.partition`` resolve through
  :mod:`~repro.data.registry` (``@register_dataset`` /
  ``@register_partitioner``),
* ``config.scenario.sampler`` resolves through
  :mod:`~repro.federated.scenario` (``@register_sampler``).

The data scenario lives in the nested ``data``
(:class:`~repro.data.partition.DataConfig`) and ``scenario``
(:class:`~repro.federated.scenario.ScenarioConfig`) sections.  Stored
payloads of the older flat schema (``n_train``, ``partition``, … at the
top level) still load through :meth:`FederationConfig.from_dict`, which
folds those keys into the ``data`` section, and they hash identically
(:meth:`FederationConfig.stable_hash`).

The canonical high-level entry point is the
:class:`~repro.federated.federation.Federation` facade:

>>> from repro.federated import Federation, FederationConfig
>>> federation = Federation.from_config(FederationConfig(
...     dataset="cifar10", algorithm="sub-fedavg-un",
...     num_clients=10, rounds=5, seed=0,
... ))
>>> history = federation.run()  # doctest: +SKIP
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from typing import Any, Dict, Mapping, Sequence

from ..data import DataConfig, build_client_data, load_dataset
from ..data.registry import DATASETS, PARTITIONERS
from ..models import create_model
from ..pruning import StructuredConfig, UnstructuredConfig
from ..systems import FleetSimulator, SystemsConfig, build_round_policy
from .accounting.flops import dense_conv_flops
from .client import FederatedClient, LocalTrainConfig
from .compression import CompressionConfig
from .execution import backend_class
from .pool import ClientPool
from .scenario import SAMPLERS, ScenarioConfig, build_sampler
from . import trainers as _trainers  # noqa: F401  (populates the registry)
from .registry import TRAINERS
from .trainers.base import FederatedTrainer

#: Nested config sections and the dataclass each deserializes into.
_SECTION_TYPES = {
    "local": LocalTrainConfig,
    "unstructured": UnstructuredConfig,
    "structured": StructuredConfig,
    "data": DataConfig,
    "scenario": ScenarioConfig,
    "systems": SystemsConfig,
    "compression": CompressionConfig,
}

#: ``scenario`` fields the PR-4 schema carried.  Newer fields (the fleet
#: shape and its per-client profiles) join the canonical hash payload only
#: when they leave their defaults, so every PR-4-expressible scenario keeps
#: its historical ``stable_hash``.
_PR4_SCENARIO_FIELDS = (
    "sampler",
    "participation",
    "participation_spread",
    "dropout",
    "fixed_clients",
    "participation_probs",
    "profiles",
    "profile_participation",
)

#: Pre-scenario flat field names: the exact ``data`` fields the PR-3 flat
#: schema carried at the top level.  They anchor the canonical hash layout
#: (see :meth:`FederationConfig._canonical_dict`).
_LEGACY_DATA_FIELDS = (
    "shards_per_client",
    "n_train",
    "n_test",
    "val_fraction",
    "partition",
    "dirichlet_alpha",
)

#: ``data`` fields the PR-3 flat schema could not express; they join the
#: canonical hash payload only when they leave their defaults.
_POST_LEGACY_DATA_FIELDS = tuple(
    name for name in DataConfig.field_names() if name not in _LEGACY_DATA_FIELDS
)


_DIURNAL_REMOVED = "the diurnal sampler was removed"
_HIERARCHICAL_REMOVED = "the hierarchical fleet was removed"

#: Fields deleted with the diurnal sampler, the hierarchical fleet and the
#: file state store: ``(section, name)`` (``None`` = top level) maps to the
#: default a stored payload may still carry and the removal to name.
_REMOVED_FIELDS = {
    ("scenario", "diurnal_amplitude"): (0.8, _DIURNAL_REMOVED),
    ("scenario", "diurnal_period_seconds"): (86400.0, _DIURNAL_REMOVED),
    ("scenario", "diurnal_round_seconds"): (600.0, _DIURNAL_REMOVED),
    ("scenario", "regions"): (0, _HIERARCHICAL_REMOVED),
    ("scenario", "region_uplink_bytes_per_second"): (0.0, _HIERARCHICAL_REMOVED),
    (None, "state_store"): (
        "memory",
        "the file state store was removed and evicted clients always spill "
        "to memory",
    ),
}

#: Registry entries deleted with them: ``(scenario field, value)`` → removal.
_REMOVED_CHOICES = {
    ("sampler", "diurnal"): _DIURNAL_REMOVED,
    ("fleet", "hierarchical"): _HIERARCHICAL_REMOVED,
}


def _drop_removed_fields(data: Dict[str, Any]) -> None:
    """Drop removed fields that sit at their defaults; raise on any other."""
    scenario = data.get("scenario")
    if isinstance(scenario, Mapping):
        data["scenario"] = dict(scenario)
        for name in ("sampler", "fleet"):
            removal = _REMOVED_CHOICES.get((name, scenario.get(name)))
            if removal:
                raise ValueError(
                    f"scenario.{name}={scenario[name]!r} is no longer "
                    f"available: {removal}; choose another {name}"
                )
    for (section, name), (default, removal) in _REMOVED_FIELDS.items():
        target = data if section is None else data.get(section)
        if not isinstance(target, dict) or name not in target:
            continue
        value = target.pop(name)
        if value != default:
            key = name if section is None else f"{section}.{name}"
            raise ValueError(
                f"{key}={value!r} is no longer available: {removal}; "
                "delete the field"
            )


def _jsonify(value: Any) -> Any:
    """Normalize to what a JSON round-trip would produce (tuples → lists)."""
    if isinstance(value, tuple):
        return [_jsonify(item) for item in value]
    if isinstance(value, dict):
        return {key: _jsonify(item) for key, item in value.items()}
    return value


@dataclass(frozen=True)
class FederationConfig:
    """Everything needed to set up one experiment run.

    The nested sections are plain frozen dataclasses, so the whole config
    serializes losslessly: ``FederationConfig.from_json(cfg.to_json())``
    compares equal to ``cfg`` and reproduces the identical run.
    """

    dataset: str = "cifar10"
    algorithm: str = "sub-fedavg-un"
    num_clients: int = 100
    rounds: int = 100
    sample_fraction: float = 0.1
    seed: int = 0
    eval_every: int = 0
    backend: str = "serial"  # client-execution backend: serial/thread/process
    workers: int = 0  # worker count for parallel backends (0 = cpu count)
    client_cache: int = 64  # max live FederatedClient replicas (0 = unbounded)
    data: DataConfig = field(default_factory=DataConfig)
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    systems: SystemsConfig | None = None  # fleet simulation (None = disabled)
    local: LocalTrainConfig = field(default_factory=LocalTrainConfig)
    unstructured: UnstructuredConfig | None = None
    structured: StructuredConfig | None = None
    compression: CompressionConfig | None = None  # update codec (None = dense)

    def __post_init__(self) -> None:
        # Accept plain mappings for the nested sections (JSON ergonomics).
        for section, section_cls in _SECTION_TYPES.items():
            value = getattr(self, section)
            if isinstance(value, Mapping):
                object.__setattr__(self, section, section_cls(**value))
        DATASETS[self.dataset]  # raises KeyError for unknown datasets
        PARTITIONERS[self.data.partition]  # raises KeyError if unknown
        SAMPLERS[self.scenario.sampler]  # raises KeyError if unknown
        backend_class(self.backend)  # raises for unknown or removed backends
        if self.num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {self.num_clients}")
        if self.eval_every < 0:
            raise ValueError(f"eval_every must be >= 0, got {self.eval_every}")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.client_cache < 0:
            raise ValueError(
                f"client_cache must be >= 0, got {self.client_cache}"
            )
        TRAINERS[self.algorithm]  # raises KeyError for unknown algorithms

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict; nested sections become plain dicts (or None)."""
        payload: Dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            payload[spec.name] = _jsonify(asdict(value)) if is_dataclass(value) else value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FederationConfig":
        """Inverse of :meth:`to_dict`; unknown keys raise ``KeyError``.

        Also accepts the historical flat schema (``n_train``,
        ``partition``, … at the top level, no ``data``/``scenario``
        sections): those keys fold into the ``data`` section, so stored
        PR-3-era payloads keep loading unchanged.  A field set both flat
        and under ``data`` raises ``ValueError``.  Payloads written while a
        ``compute`` section existed carry ``{"engine": "eager", ...}``; that
        section is dropped (eager is the only engine), and any other engine
        raises ``ValueError``.  A ``systems.pricing`` key (``"vector"`` or
        ``"scalar"``, which priced bit-identically) is dropped too.  The
        fields of the removed diurnal sampler, hierarchical fleet and file
        state store are dropped at their defaults; any other value, and
        ``scenario.sampler="diurnal"`` or ``scenario.fleet="hierarchical"``,
        raises ``ValueError``, as does the deleted ``backend="process-spawn"``.
        """
        data = dict(payload)
        compute = dict(data.pop("compute", None) or {})
        if compute.get("engine", "eager") != "eager":
            raise ValueError(
                f"compute.engine={compute['engine']!r} is no longer available: "
                "the lazy compute engine was removed and every run executes "
                "eagerly; delete the config's compute section"
            )
        flat = {name: data.pop(name) for name in DataConfig.field_names() if name in data}
        if flat:
            nested = data.get("data") or {}
            both = sorted(set(flat) & set(nested))
            if both:
                raise ValueError(
                    f"data field(s) {both} set both at the top level and in "
                    "the data section; keep only the data section"
                )
            data["data"] = {**nested, **flat}
        _drop_removed_fields(data)
        unknown = set(data) - {spec.name for spec in fields(cls)}
        if unknown:
            raise KeyError(f"unknown FederationConfig fields: {sorted(unknown)}")
        systems = data.get("systems")
        if isinstance(systems, Mapping):
            data["systems"] = {k: v for k, v in systems.items() if k != "pricing"}
        for section, section_cls in _SECTION_TYPES.items():
            value = data.get(section)
            if isinstance(value, Mapping):
                data[section] = section_cls(**value)
        return cls(**data)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FederationConfig":
        return cls.from_dict(json.loads(text))

    def _canonical_dict(self) -> Dict[str, Any]:
        """Hash payload: the historical flat layout, extended only as needed.

        Emitting the PR-3 flat schema — with the post-legacy ``data``
        fields and the ``scenario`` section appearing only when they leave
        their defaults — keeps :meth:`stable_hash` identical for every
        config the old schema could express, so existing result stores
        resume instead of recomputing.
        """
        payload: Dict[str, Any] = {
            "dataset": self.dataset,
            "algorithm": self.algorithm,
            "num_clients": self.num_clients,
            "rounds": self.rounds,
            "sample_fraction": self.sample_fraction,
            "shards_per_client": self.data.shards_per_client,
            "n_train": self.data.n_train,
            "n_test": self.data.n_test,
            "val_fraction": self.data.val_fraction,
            "seed": self.seed,
            "eval_every": self.eval_every,
            "partition": self.data.partition,
            "dirichlet_alpha": self.data.dirichlet_alpha,
            "backend": self.backend,
            "workers": self.workers,
            "local": asdict(self.local),
            "unstructured": None if self.unstructured is None else asdict(self.unstructured),
            "structured": None if self.structured is None else asdict(self.structured),
        }
        # The virtual-client pool changes resource usage, never results:
        # its cache size joins the hash only when it leaves its default, so
        # every pre-pool config keeps its stable_hash.
        if self.client_cache != 64:
            payload["client_cache"] = self.client_cache
        defaults = DataConfig()
        data_extra = {
            name: getattr(self.data, name)
            for name in _POST_LEGACY_DATA_FIELDS
            if getattr(self.data, name) != getattr(defaults, name)
        }
        if data_extra:
            payload["data"] = data_extra
        if self.scenario != ScenarioConfig():
            # Same only-when-non-default rule one schema generation later:
            # post-PR-4 scenario fields (fleet shape, client profiles) join
            # the payload only when set, so PR-4-expressible scenarios
            # keep their historical hash.
            scenario_defaults = ScenarioConfig()
            payload["scenario"] = {
                name: getattr(self.scenario, name)
                for name in ScenarioConfig.__dataclass_fields__
                if name in _PR4_SCENARIO_FIELDS
                or getattr(self.scenario, name) != getattr(scenario_defaults, name)
            }
        if self.systems is not None:
            payload["systems"] = asdict(self.systems)
        if self.compression is not None:
            # Hash-gated like systems: absent ⇒ stable_hash unchanged, so
            # every pre-codec config keeps its historical hash.
            payload["compression"] = asdict(self.compression)
        return payload

    def stable_hash(self, extra: Mapping[str, Any] | None = None) -> str:
        """Content hash of this config (plus optional ``extra`` payload).

        The hash is computed over canonical JSON — keys sorted at every
        nesting level — so it is invariant to dict ordering and identical
        across processes and Python versions (unlike built-in ``hash``).
        Two configs hash equal iff they describe the same run, which is
        what the sweep result store keys cells by.  Configs expressible in
        the pre-scenario flat schema keep their historical hash (see
        :meth:`_canonical_dict`).
        """
        payload: Dict[str, Any] = {"config": self._canonical_dict()}
        if extra:
            payload["extra"] = dict(extra)
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def make_clients(config: FederationConfig) -> ClientPool:
    """Build the client population for ``config`` as a lazy pool.

    The dataset loader and partition strategy both resolve through the
    :mod:`~repro.data.registry` registries.  The returned
    :class:`~repro.federated.pool.ClientPool` is a drop-in
    ``Sequence[FederatedClient]``: a client materializes (identically to
    the historical eager construction) the first time it is indexed, and
    ``config.client_cache`` bounds how many stay live at once.
    """
    train_set, test_set = load_dataset(
        config.dataset, config.data.n_train, config.data.n_test, seed=config.seed
    )
    bundles = build_client_data(
        train_set,
        test_set,
        num_clients=config.num_clients,
        config=config.data,
        seed=config.seed,
    )
    return ClientPool(
        bundles,
        model_factory(config),
        local_config(config),
        seed=config.seed,
        capacity=config.client_cache,
    )


def local_config(config: FederationConfig) -> LocalTrainConfig:
    """``config.local`` with the algorithm's ``local_defaults`` patched in.

    A field left at 0 takes the registered default (how FedProx gets a
    ``prox_mu``).  Every client of a config-built population trains with
    exactly this config, so the trainer checks its requirements against
    it once instead of reading any client.
    """
    local = config.local
    for name, default in TRAINERS[config.algorithm].local_defaults.items():
        if getattr(local, name) == 0:
            local = replace(local, **{name: default})
    return local


@dataclass(frozen=True)
class ModelFactory:
    """Picklable zero-arg model constructor (shared theta_0 across clients).

    A named class rather than a closure so spawn-start worker pools can
    ship it: the process backend pickles clients (which hold their
    factory) when the platform has no ``fork``.
    """

    dataset: str
    seed: int

    def __call__(self):
        return create_model(self.dataset, seed=self.seed)


def model_factory(config: FederationConfig) -> ModelFactory:
    """Factory producing identically initialized models (shared theta_0)."""
    return ModelFactory(config.dataset, config.seed)


#: Fallback FLOPs-per-example when the model has no convolutions to count
#: (the paper's §4.2.3 convention prices convs only, so a pure-MLP model
#: derives to zero, which cannot price compute time).
_DEFAULT_FLOPS_PER_EXAMPLE = 1e6


def build_fleet_simulator(
    config: FederationConfig, num_clients: int
) -> FleetSimulator:
    """The discrete-event engine described by a config's ``systems`` section.

    The fleet comes from the ``scenario`` section's fleet registry entry;
    pricing defaults derive from the run itself: ``flops_per_example``
    from the model's conv FLOPs (the :mod:`~repro.federated.accounting`
    §4.2.3 convention) and ``examples_per_round`` from the local epoch
    budget times the per-client shard size.
    """
    systems = config.systems if config.systems is not None else SystemsConfig()
    flops = systems.flops_per_example
    if flops <= 0:
        spec = DATASETS[config.dataset].spec
        model = create_model(config.dataset, seed=config.seed)
        flops = float(dense_conv_flops(model, input_size=spec.shape[-1]))
        if flops <= 0:
            flops = _DEFAULT_FLOPS_PER_EXAMPLE
    examples = systems.examples_per_round
    if examples <= 0:
        epochs = max(1, config.local.epochs)
        examples = float(epochs * max(1, config.data.n_train // config.num_clients))
    return FleetSimulator(
        fleet=config.scenario.build_fleet(num_clients),
        policy=build_round_policy(systems),
        flops_per_example=flops,
        examples_per_round=examples,
        server_overhead_seconds=systems.server_overhead_seconds,
        jitter=systems.jitter,
        seed=config.seed,
    )


def build_trainer(
    config: FederationConfig, clients: Sequence[FederatedClient], **overrides
) -> FederatedTrainer:
    """Wire the configured algorithm's trainer over prepared clients.

    ``clients`` only needs a length when the backend executes remotely
    (the serving layer's population holds no replicas).  The trainer
    class and the config sections it consumes come from the registry,
    and its ``local`` config from :func:`local_config`; the participation
    model comes from the scenario registry;
    a ``systems`` section additionally attaches a
    :class:`~repro.systems.rounds.FleetSimulator`; ``overrides`` are extra
    keyword arguments forwarded verbatim to the trainer constructor
    (e.g. ``aggregator=`` for ablations or ``track_trajectory=`` for
    Figure 1).
    """
    spec = TRAINERS[config.algorithm]
    sampler = build_sampler(
        config.scenario, len(clients), config.sample_fraction, config.seed
    )
    fleet_sim = None
    if config.systems is not None:
        if (
            config.systems.round_policy != "synchronous"
            and not spec.cls.supports_round_plan
        ):
            # A non-sync policy changes training (dropped/stale uploads);
            # a trainer that ignores the plan would report stragglers the
            # aggregation silently kept at full weight.  Synchronous
            # simulation is purely observational, so it stays allowed.
            raise ValueError(
                f"algorithm {config.algorithm!r} does not consume the fleet "
                f"round plan, so round_policy="
                f"{config.systems.round_policy!r} would be misreported; "
                "use round_policy='synchronous' or a FedAvg/Sub-FedAvg-"
                "family trainer"
            )
        fleet_sim = build_fleet_simulator(config, len(clients))
    kwargs: Dict[str, Any] = dict(
        clients=clients,
        model_fn=model_factory(config),
        rounds=config.rounds,
        sample_fraction=config.sample_fraction,
        seed=config.seed,
        eval_every=config.eval_every,
        backend=config.backend,
        workers=config.workers,
        sampler=sampler,
        fleet_sim=fleet_sim,
        local=local_config(config),
    )
    for section in spec.config_sections:
        value = getattr(config, section)
        if value is not None:
            kwargs[section] = value
    kwargs.update(overrides)
    return spec.cls(**kwargs)
