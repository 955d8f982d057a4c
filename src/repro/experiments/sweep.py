"""Parallel experiment sweeps: declarative grids, a resumable result store.

The paper's artifacts (Tables 1-2, Figures 1-3, the ablations) are grids of
independent ``(dataset, algorithm, seed, overrides)`` cells.  This module
turns such a grid into three composable pieces:

* :class:`SweepSpec` — a declarative description of the grid.  Axes
  (``datasets`` × ``algorithms`` × ``overrides`` × ``seeds``) expand into
  :class:`SweepCell` objects, each carrying a full
  :class:`~repro.federated.builder.FederationConfig` plus optional trainer
  overrides (e.g. ``aggregator="zerofill"`` for the ablations).
* :class:`ResultStore` — one JSON file per cell, named by the cell's
  content hash (:meth:`FederationConfig.stable_hash` over canonical JSON),
  so an interrupted sweep resumes instead of recomputing and the artifacts
  are machine-readable.
* :class:`SweepRunner` — executes the pending cells concurrently on a
  ``serial``/``thread``/``process`` executor (the same worker plumbing and
  naming as the round-level :mod:`~repro.federated.execution` backends,
  one level up: whole runs instead of single clients).  A failing cell is
  isolated — its error is recorded and every other cell still completes.

Determinism contract: a cell is built from its config alone (fresh
federation, per-client RNG streams), so a sweep cell's history is
bit-identical to a serial single-cell :func:`~repro.experiments.runner
.run_algorithm` call whatever executor or job count ran it.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from ..federated import Federation, FederationConfig
from ..federated.execution import WorkerPool, default_worker_count
from ..federated.metrics import History
from ..pruning import StructuredConfig, UnstructuredConfig
from ..registry import Registry
from ..utils.serialization import history_from_dict, history_to_dict
from .presets import PRESETS
from .runner import federation_config

#: Result-store schema version, bumped on layout changes so stale caches
#: are recomputed rather than misread.
SCHEMA_VERSION = 1

# ----------------------------------------------------------------------
# Grid description
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Variant:
    """One entry of a spec's algorithm axis.

    A plain string in the axis means "this algorithm, no extras"; a
    ``Variant`` additionally pins pruning configs, config overrides and
    trainer-constructor overrides, under a human-readable ``label`` that
    becomes part of the cell key (e.g. ``sub-fedavg-un@70``).
    """

    label: str
    algorithm: str
    unstructured: Optional[UnstructuredConfig] = None
    structured: Optional[StructuredConfig] = None
    overrides: Mapping[str, Any] = field(default_factory=dict)
    trainer_overrides: Mapping[str, Any] = field(default_factory=dict)
    tags: Mapping[str, Any] = field(default_factory=dict)


def merge_overrides(*layers: Mapping[str, Any]) -> Dict[str, Any]:
    """Merge config-override layers left to right; later layers win.

    ``data`` mappings merge field by field, so a base ``partition`` and an
    axis ``dirichlet_alpha`` combine instead of replacing each other.
    """
    merged: Dict[str, Any] = {}
    for layer in layers:
        for key, value in layer.items():
            if key == "data":
                value = {**merged.get("data", {}), **value}
            merged[key] = value
    return merged


def _as_variant(entry: Union[str, Variant]) -> Variant:
    if isinstance(entry, Variant):
        return entry
    return Variant(label=entry, algorithm=entry)


@dataclass
class SweepCell:
    """One grid cell: a complete run description plus rendering metadata."""

    key: str
    config: FederationConfig
    trainer_overrides: Dict[str, Any] = field(default_factory=dict)
    tags: Dict[str, Any] = field(default_factory=dict)

    @property
    def config_hash(self) -> str:
        """Content hash identifying this cell in the result store.

        Trainer overrides change the computation, so they are folded into
        the hash; ``tags`` are rendering hints and deliberately are not.
        """
        extra = {"trainer_overrides": self.trainer_overrides}
        return self.config.stable_hash(extra=extra if self.trainer_overrides else None)


@dataclass
class SweepSpec:
    """Declarative sweep grid: axes that expand into :class:`SweepCell`s.

    ``datasets`` × ``algorithms`` × ``overrides`` × ``seeds`` is the
    expansion order (and therefore the cell order).  ``overrides`` is a
    mapping of axis label → :func:`federation_config` keyword overrides
    (e.g. ``{"alpha=0.1": {"data": {"partition": "dirichlet",
    "dirichlet_alpha": 0.1}}}``); the default single unlabeled entry keeps
    keys short for the common no-override grids.  ``base`` applies to
    every cell; base, axis and variant overrides merge in that order
    (:func:`merge_overrides`).
    """

    name: str
    datasets: Sequence[str]
    algorithms: Sequence[Union[str, Variant]]
    seeds: Sequence[int] = (0,)
    preset: str = "smoke"
    overrides: Mapping[str, Mapping[str, Any]] = field(
        default_factory=lambda: {"": {}}
    )
    base: Mapping[str, Any] = field(default_factory=dict)

    def expand(self) -> List[SweepCell]:
        """Materialize the grid as a list of fully-configured cells."""
        preset = PRESETS[self.preset]
        cells: List[SweepCell] = []
        axes = itertools.product(
            self.datasets, map(_as_variant, self.algorithms), self.overrides, self.seeds
        )
        for dataset, variant, override_label, seed in axes:
            kwargs = merge_overrides(
                self.base, self.overrides[override_label], variant.overrides
            )
            config = federation_config(
                dataset,
                variant.algorithm,
                preset,
                seed=seed,
                unstructured=variant.unstructured,
                structured=variant.structured,
                # eval_every has a dedicated parameter (preset-derived by
                # default), so it must not travel with the overrides.
                eval_every=kwargs.pop("eval_every", None),
                **kwargs,
            )
            parts = [self.name, dataset, variant.label]
            if override_label:
                parts.append(override_label)
            parts.append(f"seed{seed}")
            cells.append(
                SweepCell(
                    key="/".join(parts),
                    config=config,
                    trainer_overrides=dict(variant.trainer_overrides),
                    tags={
                        "dataset": dataset,
                        "variant": variant.label,
                        "override": override_label,
                        "seed": seed,
                        **variant.tags,
                    },
                )
            )
        return cells


# ----------------------------------------------------------------------
# Cell results and the on-disk store
# ----------------------------------------------------------------------
@dataclass
class CellResult:
    """Outcome of one executed (or cache-loaded) cell."""

    key: str
    config_hash: str
    config: FederationConfig
    trainer_overrides: Dict[str, Any] = field(default_factory=dict)
    tags: Dict[str, Any] = field(default_factory=dict)
    history: Optional[History] = None
    extras: Dict[str, Any] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    error: Optional[str] = None
    cached: bool = False  # loaded from the store rather than executed

    @property
    def ok(self) -> bool:
        return self.error is None and self.history is not None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "key": self.key,
            "config_hash": self.config_hash,
            "config": self.config.to_dict(),
            "trainer_overrides": self.trainer_overrides,
            "tags": self.tags,
            "history": None if self.history is None else history_to_dict(self.history),
            "extras": self.extras,
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CellResult":
        history = payload.get("history")
        return cls(
            key=payload["key"],
            config_hash=payload["config_hash"],
            config=FederationConfig.from_dict(payload["config"]),
            trainer_overrides=dict(payload.get("trainer_overrides", {})),
            tags=dict(payload.get("tags", {})),
            history=None if history is None else history_from_dict(history),
            extras=dict(payload.get("extras", {})),
            elapsed_seconds=payload.get("elapsed_seconds", 0.0),
        )


class ResultStore:
    """One JSON file per cell, keyed by content hash; ``root=None`` keeps
    results in memory only (used by the drivers when no cache is wanted)."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = None if root is None else Path(root)
        self._memory: Dict[str, CellResult] = {}

    def path_for(self, config_hash: str) -> Optional[Path]:
        return None if self.root is None else self.root / f"{config_hash}.json"

    def load(self, config_hash: str) -> Optional[CellResult]:
        """Return the stored result for a hash, or None (also on any stale
        or unreadable file — a bad cache entry is recomputed, not fatal)."""
        if self.root is None:
            return self._memory.get(config_hash)
        path = self.path_for(config_hash)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
            if payload.get("schema") != SCHEMA_VERSION:
                return None
            return CellResult.from_dict(payload)
        except (ValueError, KeyError, TypeError):
            return None

    def save(self, result: CellResult) -> None:
        if self.root is None:
            self._memory[result.config_hash] = result
            return
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(result.config_hash)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(result.to_dict(), indent=2))
        tmp.replace(path)  # atomic: a killed sweep never leaves half a cell

    def load_all(self) -> List[CellResult]:
        """Every stored result (for exports); skips unreadable files."""
        if self.root is None:
            return list(self._memory.values())
        if not self.root.exists():
            return []
        results = []
        for path in sorted(self.root.glob("*.json")):
            result = self.load(path.stem)
            if result is not None:
                results.append(result)
        return results


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _execute_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one cell from a picklable payload; never raises.

    Module-level so the process executor can ship it to fork workers; the
    thread and serial executors call it directly.  Any exception becomes an
    ``error`` string in the returned payload — one bad cell must not kill
    the sweep.
    """
    started = time.perf_counter()
    try:
        config = FederationConfig.from_dict(payload["config"])
        federation = Federation.from_config(config, **payload["trainer_overrides"])
        history = federation.run()
        return {
            "key": payload["key"],
            "history": history_to_dict(history),
            "extras": _collect_extras(federation.trainer),
            "elapsed_seconds": time.perf_counter() - started,
            "error": None,
        }
    except Exception:
        return {
            "key": payload["key"],
            "history": None,
            "extras": {},
            "elapsed_seconds": time.perf_counter() - started,
            "error": traceback.format_exc(limit=8),
        }


def _collect_extras(trainer) -> Dict[str, Any]:
    """Trainer-side quantities the drivers render but History omits."""
    extras: Dict[str, Any] = {}
    if hasattr(trainer, "mean_unstructured_sparsity"):
        extras["mean_unstructured_sparsity"] = trainer.mean_unstructured_sparsity()
    if hasattr(trainer, "mean_channel_sparsity"):
        extras["mean_channel_sparsity"] = trainer.mean_channel_sparsity()
    trajectory = getattr(trainer, "trajectory", None)
    if trajectory:
        extras["trajectory"] = [asdict(point) for point in trajectory]
    return extras


def _map_serial(runner: "SweepRunner", payloads: List[Dict]) -> List[Dict]:
    return [_execute_payload(payload) for payload in payloads]


def _map_thread(runner: "SweepRunner", payloads: List[Dict]) -> List[Dict]:
    with ThreadPoolExecutor(max_workers=runner.jobs) as pool:
        return list(pool.map(_execute_payload, payloads))


def _map_process(runner: "SweepRunner", payloads: List[Dict]) -> List[Dict]:
    if runner.pool is not None:
        return runner.pool.map(_execute_payload, payloads)
    with WorkerPool(workers=min(runner.jobs, len(payloads))) as pool:
        return pool.map(_execute_payload, payloads)


#: How :class:`SweepRunner` maps cells to results, by executor name
#: (mirrors the round-level backend names in ``repro.federated.execution``).
SWEEP_EXECUTORS = Registry("sweep executor")
SWEEP_EXECUTORS.add("serial", _map_serial)
SWEEP_EXECUTORS.add("thread", _map_thread)
SWEEP_EXECUTORS.add("process", _map_process)


@dataclass
class SweepResult:
    """Everything a sweep produced, in cell order."""

    cells: List[SweepCell]
    results: Dict[str, CellResult]  # key -> result (also under duplicate keys)
    executed: List[str] = field(default_factory=list)
    reused: List[str] = field(default_factory=list)
    failed: Dict[str, str] = field(default_factory=dict)

    def __getitem__(self, key: str) -> CellResult:
        return self.results[key]

    def history(self, key: str) -> History:
        """The run history of one cell; raises if that cell failed."""
        self.raise_failures(keys=(key,))
        return self.results[key].history

    def ordered(self) -> List[CellResult]:
        """Results in grid-expansion order (failures included)."""
        return [self.results[cell.key] for cell in self.cells]

    def raise_failures(self, keys: Optional[Iterable[str]] = None) -> None:
        """Raise ``SweepError`` if any (selected) cell failed."""
        selected = set(self.failed if keys is None else keys)
        messages = [
            f"{key}:\n{error}" for key, error in self.failed.items() if key in selected
        ]
        if messages:
            raise SweepError(
                f"{len(messages)} sweep cell(s) failed:\n" + "\n".join(messages)
            )


class SweepError(RuntimeError):
    """At least one sweep cell raised during execution."""


class SweepRunner:
    """Execute a grid's cells concurrently with cache-based resume.

    ``jobs`` counts concurrent cells (0 = one per CPU); ``executor`` picks
    how they run: ``"serial"`` in the calling thread, ``"thread"`` on a
    thread pool (local SGD is GIL-releasing BLAS, so cells overlap), or
    ``"process"`` on a persistent
    :class:`~repro.federated.execution.WorkerPool` (full isolation, the
    default for multi-core sweeps; fork where available, spawn
    otherwise).  A shared ``pool`` reuses its workers across several
    runners — grid after grid on one warm pool.  With ``resume=True``
    cells whose hash is already in the store are loaded, not recomputed
    — an interrupted sweep picks up where it stopped, and a completed
    one is a no-op.
    """

    def __init__(
        self,
        spec: Union[SweepSpec, Sequence[SweepCell]],
        store: Optional[ResultStore] = None,
        jobs: int = 1,
        executor: str = "serial",
        resume: bool = True,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        SWEEP_EXECUTORS[executor]  # raises KeyError for unknown executors
        self.cells = spec.expand() if isinstance(spec, SweepSpec) else list(spec)
        self.store = store if store is not None else ResultStore()
        self.jobs = default_worker_count(jobs)
        self.executor = executor
        self.resume = resume
        self.pool = pool

    def run(self) -> SweepResult:
        """Run (or load) every cell; one failing cell never kills the rest."""
        by_hash: Dict[str, CellResult] = {}
        pending: List[SweepCell] = []
        for cell in self.cells:
            if cell.config_hash in by_hash:
                continue  # duplicate cell in the grid: compute once
            cached = self.store.load(cell.config_hash) if self.resume else None
            if cached is not None:
                cached.cached = True
                by_hash[cell.config_hash] = cached
            else:
                pending.append(cell)

        payloads = [
            {
                "key": cell.key,
                "config": cell.config.to_dict(),
                "trainer_overrides": cell.trainer_overrides,
            }
            for cell in pending
        ]
        outcomes = self._map(payloads)
        for cell, outcome in zip(pending, outcomes):
            history = outcome["history"]
            result = CellResult(
                key=cell.key,
                config_hash=cell.config_hash,
                config=cell.config,
                trainer_overrides=cell.trainer_overrides,
                tags=cell.tags,
                history=None if history is None else history_from_dict(history),
                extras=outcome["extras"],
                elapsed_seconds=outcome["elapsed_seconds"],
                error=outcome["error"],
            )
            if result.ok:
                self.store.save(result)
            by_hash[cell.config_hash] = result

        sweep = SweepResult(cells=self.cells, results={})
        executed_hashes = {cell.config_hash for cell in pending}
        counted: set = set()
        for cell in self.cells:
            result = by_hash[cell.config_hash]
            if result.key != cell.key or result.tags != cell.tags:
                # A cache hit from another grid (or a duplicate cell in
                # this one) carries the *originating* cell's labels; rebind
                # to the requesting cell so renderers see their own
                # key/tags.  The computation is identical by hash.
                result = dataclasses.replace(
                    result, key=cell.key, config=cell.config, tags=dict(cell.tags)
                )
            sweep.results[cell.key] = result
            if result.error is not None:
                sweep.failed[cell.key] = result.error
            elif (
                cell.config_hash in executed_hashes
                and cell.config_hash not in counted
            ):
                sweep.executed.append(cell.key)
                counted.add(cell.config_hash)
            else:
                # from the store, or a duplicate of a cell computed above
                sweep.reused.append(cell.key)
        return sweep

    def _map(self, payloads: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        if not payloads:
            return []
        if len(payloads) == 1 or self.jobs == 1:
            return _map_serial(self, payloads)
        return SWEEP_EXECUTORS[self.executor](self, payloads)


def run_sweep(
    spec: Union[SweepSpec, Sequence[SweepCell]],
    store: Optional[ResultStore] = None,
    jobs: int = 1,
    executor: str = "serial",
    resume: bool = True,
) -> SweepResult:
    """One-call convenience wrapper over :class:`SweepRunner`."""
    return SweepRunner(
        spec, store=store, jobs=jobs, executor=executor, resume=resume
    ).run()


def smoke_spec(seed: int = 0) -> SweepSpec:
    """The CI smoke grid: 2 datasets × 2 algorithms at the smoke preset."""
    return SweepSpec(
        name="smoke",
        datasets=("mnist", "emnist"),
        algorithms=(
            "fedavg",
            Variant(
                label="sub-fedavg-un@50",
                algorithm="sub-fedavg-un",
                unstructured=UnstructuredConfig(target_rate=0.5, step=0.2),
            ),
        ),
        seeds=(seed,),
        preset="smoke",
    )


def fleet_spec(dataset: str = "mnist", preset: str = "smoke", seed: int = 0) -> SweepSpec:
    """The fleet-simulation grid: 2 algorithms × 3 round policies.

    Every cell runs on a heterogeneous two-tier fleet (edge phones +
    Raspberry Pis, round-robin) with per-round evaluation, under a
    *pinned* cost model (1e6 conv FLOPs/example, 100 examples/round) so
    the policies separate identically on every dataset: the Pi tier needs
    ~1.4 s per round while the phone tier needs ~0.75 s, so a 1-second
    deadline drops the Pi uploads and the async buffer (K=2) closes on
    the two fastest arrivals.  Rendering the cells' accuracy curves over
    ``simulated_seconds`` gives the sync-vs-deadline-vs-async
    time-to-accuracy comparison for FedAvg vs Sub-FedAvg.
    """
    from ..federated.scenario import ScenarioConfig
    from ..systems import SystemsConfig

    pricing = dict(flops_per_example=1e6, examples_per_round=100.0)
    return SweepSpec(
        name="fleet",
        datasets=(dataset,),
        algorithms=(
            "fedavg",
            Variant(
                label="sub-fedavg-un@50",
                algorithm="sub-fedavg-un",
                unstructured=UnstructuredConfig(target_rate=0.5, step=0.2),
            ),
        ),
        seeds=(seed,),
        preset=preset,
        base={
            "eval_every": 1,
            "scenario": ScenarioConfig(
                fleet="tiers", profiles=("edge-phone", "raspberry-pi")
            ),
        },
        overrides={
            "sync": {
                "systems": SystemsConfig(round_policy="synchronous", **pricing)
            },
            "deadline": {
                "systems": SystemsConfig(
                    round_policy="deadline", deadline_seconds=1.0, **pricing
                )
            },
            "async": {
                "systems": SystemsConfig(
                    round_policy="async-buffer", buffer_size=2, **pricing
                )
            },
        },
    )


def export_results(results: Iterable[CellResult]) -> str:
    """Merge cell results into one JSON document (the CI ``BENCH_sweep``
    artifact): summary numbers up front, full payloads after."""
    results = list(results)
    payload = {
        "schema": SCHEMA_VERSION,
        "cells": [
            {
                "key": result.key,
                "config_hash": result.config_hash,
                "final_accuracy": None
                if result.history is None
                else result.history.final_accuracy,
                "communication_gb": None
                if result.history is None
                else result.history.total_communication_gb,
                "elapsed_seconds": result.elapsed_seconds,
            }
            for result in results
        ],
        "details": [result.to_dict() for result in results],
    }
    return json.dumps(payload, indent=2)
