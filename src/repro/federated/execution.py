"""Pluggable client-execution backends: the round loop as a task engine.

Trainers describe one communication round as a list of declarative
:class:`ClientTask` objects — *which* client does *what* (train against the
global weights, fine-tune-and-evaluate, …) — and hand the list to
:meth:`FederatedTrainer.execute`, which delegates to an
:class:`ExecutionBackend`:

* :class:`SerialBackend` — runs tasks in order in the calling thread.
  The default; bit-identical to the historical hand-rolled ``for`` loops.
* :class:`ThreadBackend` — a thread pool.  Local training is dominated by
  numpy/BLAS kernels that release the GIL, so sampled clients genuinely
  overlap.  Clients are disjoint per task and each owns its own seeded
  RNG stream, so results do not depend on scheduling.
* :class:`ProcessBackend` — a process pool.  Under ``fork`` workers
  inherit the clients (and global state) copy-on-write per batch; under
  ``spawn`` a persistent :class:`WorkerPool` receives picklable task
  payloads.  Either way workers ship a picklable :class:`ClientUpdate`
  (plus a :class:`ClientSync` of mutated client state) back to the
  parent, which re-applies it in task order.

Determinism contract: every backend returns updates in **task order**, and
all client-side randomness comes from per-client generators
(:class:`~repro.data.loader.DataLoader` is seeded with
``(seed, client_id)``), so serial, threaded and multiprocess runs of the
same federation produce identical :class:`~repro.federated.metrics.History`
objects.
"""

from __future__ import annotations

import base64
import multiprocessing
import os
import pickle
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..pruning import MaskSet
from ..registry import Registry

State = Dict[str, Any]

#: Valid ``ClientTask.kind`` values.
TASK_KINDS = ("train", "evaluate")

#: Valid ``ClientTask.load`` values.
LOAD_MODES = ("none", "global", "partial")

#: Version stamped on every ``to_wire`` payload; ``from_wire`` refuses
#: other versions instead of misparsing them.
WIRE_VERSION = 1


def _check_wire_version(payload: Mapping, what: str) -> None:
    version = payload.get("schema")
    if version != WIRE_VERSION:
        raise ValueError(
            f"unsupported {what} wire schema {version!r} "
            f"(this build speaks version {WIRE_VERSION})"
        )


@dataclass(frozen=True)
class ClientTask:
    """One unit of client work, described declaratively (and picklable).

    ``kind="train"`` runs local SGD; ``kind="evaluate"`` measures test
    accuracy (optionally after a fine-tune of ``epochs`` epochs).  ``load``
    selects what the client downloads first: the full global state, the
    ``shared_names`` subset (LG-FedAvg), or nothing (MTL, standalone).
    """

    client_index: int
    kind: str = "train"
    load: str = "none"
    shared_names: Tuple[str, ...] = ()
    anchor_global: bool = False  # FedProx / MTL regularizer reference point
    epochs: Optional[int] = None  # evaluate: fine-tune epochs before measuring
    restore: bool = False  # evaluate: leave the client untouched afterwards
    # train: also report the client's sparsities and test accuracy after
    # the update (Sub-FedAvg's round record and Figure-1 trajectory)
    want_trajectory: bool = False

    def __post_init__(self) -> None:
        if self.kind not in TASK_KINDS:
            raise ValueError(f"kind must be one of {TASK_KINDS}, got {self.kind!r}")
        if self.load not in LOAD_MODES:
            raise ValueError(f"load must be one of {LOAD_MODES}, got {self.load!r}")
        if self.load == "partial" and not self.shared_names:
            raise ValueError("load='partial' requires shared_names")

    def to_wire(self) -> Dict[str, Any]:
        """Versioned JSON-safe dict — the serving protocol's task format."""
        return {
            "schema": WIRE_VERSION,
            "client_index": self.client_index,
            "kind": self.kind,
            "load": self.load,
            "shared_names": list(self.shared_names),
            "anchor_global": self.anchor_global,
            "epochs": self.epochs,
            "restore": self.restore,
            "want_trajectory": self.want_trajectory,
        }

    @classmethod
    def from_wire(cls, payload: Mapping) -> "ClientTask":
        """Inverse of :meth:`to_wire`; refuses unknown schema versions."""
        _check_wire_version(payload, "ClientTask")
        return cls(
            client_index=int(payload["client_index"]),
            kind=str(payload["kind"]),
            load=str(payload["load"]),
            shared_names=tuple(payload["shared_names"]),
            anchor_global=bool(payload["anchor_global"]),
            epochs=None if payload["epochs"] is None else int(payload["epochs"]),
            restore=bool(payload["restore"]),
            want_trajectory=bool(payload["want_trajectory"]),
        )


@dataclass
class ClientSync:
    """Client state mutated by a task, for re-applying after a process hop."""

    model_state: State
    rng_state: Dict[str, Any]
    controller_state: Optional[Dict[str, Any]] = None


@dataclass
class ClientUpdate:
    """What one task sends back to the server.

    For a training task this is the paper's ClientUpdate: the post-training
    state dict, the number of examples actually processed this round, the
    mean loss, the committed personal mask and the pruning decisions, plus
    ``sparsity``, ``channel_sparsity`` and ``accuracy`` when the task set
    ``want_trajectory``.  For an evaluation task only ``accuracy`` is
    populated.
    """

    client_index: int
    client_id: int
    state: Optional[State] = None
    mask: Optional[MaskSet] = None
    num_examples: int = 0
    mean_loss: float = 0.0
    val_accuracy: Optional[float] = None
    pruned_unstructured: bool = False
    pruned_structured: bool = False
    accuracy: Optional[float] = None
    sparsity: Optional[float] = None
    channel_sparsity: Optional[float] = None
    sync: Optional[ClientSync] = None

    def to_wire(self, codec=None) -> Dict[str, Any]:
        """Versioned JSON-safe dict with the state encoded by ``codec``.

        ``codec`` is any registered :class:`~repro.federated.compression
        .Compressor` (None = identity, which is bitwise-lossless); the
        payload is self-describing, so the receiver decodes without
        knowing the sender's codec in advance.  ``sync`` stays off the
        wire deliberately: remote executors own their client state.  The
        blobs are base64 text here; the result frame that crosses the
        wire carries them raw.
        """
        from .compression import IdentityCompressor, pack_state

        if codec is None:
            codec = IdentityCompressor()
        payload: Dict[str, Any] = {
            "schema": WIRE_VERSION,
            "client_index": int(self.client_index),
            "client_id": int(self.client_id),
            "num_examples": int(self.num_examples),
            "mean_loss": float(self.mean_loss),
            "val_accuracy": _opt_float(self.val_accuracy),
            "pruned_unstructured": bool(self.pruned_unstructured),
            "pruned_structured": bool(self.pruned_structured),
            "accuracy": _opt_float(self.accuracy),
            "sparsity": _opt_float(self.sparsity),
            "channel_sparsity": _opt_float(self.channel_sparsity),
            "state": None,
            "mask": None,
        }
        if self.state is not None:
            encoded = codec.encode(self.state)
            payload["state"] = {
                "codec": encoded.codec,
                "bits": encoded.bits,
                "blob": base64.b64encode(encoded.payload).decode("ascii"),
            }
        if self.mask is not None:
            blob = pack_state({name: m for name, m in self.mask.items()})
            payload["mask"] = base64.b64encode(blob).decode("ascii")
        return payload

    @classmethod
    def from_wire(
        cls,
        payload: Mapping,
        state: Optional[bytes] = None,
        mask: Optional[bytes] = None,
    ) -> "ClientUpdate":
        """Inverse of :meth:`to_wire` after a result frame carried it.

        ``payload`` holds the non-blob fields; ``state`` and ``mask`` are
        the raw blobs that :meth:`to_wire` wraps in base64 (the frame,
        :func:`repro.serving.protocol.pack_result`, carries them
        unwrapped).  The state is decoded by its own codec header.
        """
        from .compression import decode_state, unpack_state

        _check_wire_version(payload, "ClientUpdate")
        return cls(
            client_index=int(payload["client_index"]),
            client_id=int(payload["client_id"]),
            state=None if state is None else decode_state(state),
            mask=None if mask is None else MaskSet(unpack_state(mask)),
            num_examples=int(payload["num_examples"]),
            mean_loss=float(payload["mean_loss"]),
            val_accuracy=_opt_float(payload["val_accuracy"]),
            pruned_unstructured=bool(payload["pruned_unstructured"]),
            pruned_structured=bool(payload["pruned_structured"]),
            accuracy=_opt_float(payload["accuracy"]),
            sparsity=_opt_float(payload["sparsity"]),
            channel_sparsity=_opt_float(payload["channel_sparsity"]),
        )


def _opt_float(value) -> Optional[float]:
    return None if value is None else float(value)


def capture_sync(
    client, model_state: State, mask: Optional[MaskSet]
) -> ClientSync:
    """Snapshot everything a training task may have mutated on ``client``.

    ``model_state`` is a ``client.state_dict()`` taken after the task and
    ``mask`` the update's committed mask, so a worker pickles each once:
    without a structured branch the combined mask equals ``un_mask``, and
    the snapshot carries the update's object in its place
    (``PruningController.load_state_dict`` copies it on apply).
    """
    controller = client.controller
    controller_state = None
    if controller is not None:
        controller_state = controller.state_dict()
        if controller.st_cfg is None:
            controller_state["un_mask"] = mask
    return ClientSync(
        model_state=model_state,
        rng_state=client.rng_state(),
        controller_state=controller_state,
    )


def apply_sync(client, sync: ClientSync) -> None:
    """Replay a worker-side mutation onto the parent's ``client``."""
    client.model.load_state_dict(sync.model_state)
    client.set_rng_state(sync.rng_state)
    if sync.controller_state is not None:
        client.controller.load_state_dict(sync.controller_state)


def run_client_task(
    client, task: ClientTask, global_state: State, with_sync: bool = False
) -> ClientUpdate:
    """Execute one task against ``client`` and package the result.

    This is the single code path every backend funnels through, so serial
    and parallel execution cannot drift apart semantically.
    """
    if task.kind == "train":
        return _run_train(client, task, global_state, with_sync)
    return _run_evaluate(client, task, global_state)


def _load(client, task: ClientTask, global_state: State) -> None:
    if task.load == "global":
        client.load_global(global_state)
    elif task.load == "partial":
        client.load_partial(global_state, task.shared_names)


def _run_train(
    client, task: ClientTask, global_state: State, with_sync: bool
) -> ClientUpdate:
    _load(client, task, global_state)
    if task.anchor_global:
        client.set_anchor(global_state)
    result = client.train_local()
    update = ClientUpdate(
        client_index=task.client_index,
        client_id=client.client_id,
        state=client.state_dict(),
        mask=client.mask,
        num_examples=result.num_examples,
        mean_loss=result.mean_loss,
        val_accuracy=result.val_accuracy,
        pruned_unstructured=result.pruned_unstructured,
        pruned_structured=result.pruned_structured,
    )
    if task.want_trajectory:
        update.sparsity = client.controller.unstructured_sparsity()
        update.channel_sparsity = client.controller.channel_sparsity()
        update.accuracy = client.test_accuracy()
    if with_sync:
        # One object each for state and mask: apply_sync copies both into
        # the parent's client, so sharing them with the update is safe.
        update.sync = capture_sync(client, update.state, update.mask)
    return update


def _run_evaluate(client, task: ClientTask, global_state: State) -> ClientUpdate:
    saved = client.snapshot_state() if task.restore else None
    _load(client, task, global_state)
    if task.epochs:
        client.train_local(epochs=task.epochs)
    accuracy = client.test_accuracy()
    if saved is not None:
        client.restore_state(saved)
    return ClientUpdate(
        client_index=task.client_index,
        client_id=client.client_id,
        accuracy=accuracy,
    )


def default_worker_count(workers: int = 0) -> int:
    """Resolve a worker-count setting: positive values pass through, 0/None
    means one worker per CPU.  Shared by the round-level backends here and
    the grid-level :class:`~repro.experiments.sweep.SweepRunner`."""
    if workers and workers > 0:
        return int(workers)
    return max(1, os.cpu_count() or 1)


class ExecutionBackend:
    """Strategy interface: run a batch of tasks, return updates in order."""

    name = "abstract"

    #: Does ``run`` mutate clients from several threads of *this* process
    #: at once?  A :class:`~repro.federated.pool.ClientPool` must pin such
    #: a batch live for the duration — an evicted-then-rebuilt twin must
    #: never race a running task.  Serial execution and the process
    #: backend's parent side touch clients strictly sequentially.
    concurrent_in_process = False

    def run(
        self, tasks: Sequence[ClientTask], clients: Sequence, global_state: State
    ) -> List[ClientUpdate]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """In-order, in-thread execution — the reference semantics."""

    name = "serial"

    def __init__(self, workers: int = 0) -> None:  # signature-compatible
        del workers

    def run(self, tasks, clients, global_state):
        return [
            run_client_task(clients[task.client_index], task, global_state)
            for task in tasks
        ]


class ThreadBackend(ExecutionBackend):
    """Thread-pool execution; clients are mutated in place as in serial."""

    name = "thread"
    concurrent_in_process = True

    def __init__(self, workers: int = 0) -> None:
        self.workers = default_worker_count(workers)

    def run(self, tasks, clients, global_state):
        if len(tasks) <= 1:
            return SerialBackend().run(tasks, clients, global_state)
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            futures = [
                pool.submit(
                    run_client_task, clients[task.client_index], task, global_state
                )
                for task in tasks
            ]
            return [future.result() for future in futures]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ThreadBackend(workers={self.workers})"


def resolve_start_method(start_method: Optional[str] = None) -> str:
    """Pick a multiprocessing start method, failing loudly when impossible.

    ``None`` auto-selects: ``fork`` where available (cheap worker startup,
    shared read-only pages), else ``spawn`` — so platforms without fork
    (Windows, macOS defaults) get a working pool instead of a crash or a
    hang.  An explicit method that the platform lacks raises a clear
    ``RuntimeError`` naming the alternatives.
    """
    methods = multiprocessing.get_all_start_methods()
    if start_method is None:
        return "fork" if "fork" in methods else "spawn"
    if start_method not in methods:
        raise RuntimeError(
            f"multiprocessing start method {start_method!r} is unavailable "
            f"on this platform (have {methods}); pass start_method=None to "
            "auto-select, or use the thread backend"
        )
    return start_method


class WorkerPool:
    """A persistent, start-method-aware process pool.

    Created lazily on the first :meth:`map` and reused until
    :meth:`close` — so the round-level :class:`ProcessBackend` amortizes
    worker startup across every round of a run, and the sweep engine
    amortizes it across grid cells.  Workers are stateless: every call
    ships fully picklable payloads, which is what makes the same code
    path correct under both ``fork`` and ``spawn``.
    """

    def __init__(self, workers: int = 0, start_method: Optional[str] = None) -> None:
        self.workers = default_worker_count(workers)
        self.start_method = resolve_start_method(start_method)
        self._pool = None
        self._finalizer = None

    def _ensure(self):
        if self._pool is None:
            context = multiprocessing.get_context(self.start_method)
            self._pool = context.Pool(self.workers)
            # Reap workers when the pool object is garbage-collected even
            # if close() was never called (interpreter shutdown safety).
            self._finalizer = weakref.finalize(self, _terminate_pool, self._pool)
        return self._pool

    def map(self, fn, items: Sequence) -> List:
        """``[fn(item) for item in items]`` on the workers, in order."""
        items = list(items)
        if not items:
            return []
        try:
            return self._ensure().map(fn, items)
        except Exception:
            # Pickling failures surface as various types (PicklingError,
            # AttributeError, TypeError) depending on the payload; probe
            # the payloads so the caller gets a diagnosis, not a hang dump.
            for item in items:
                try:
                    pickle.dumps(item)
                except Exception as pickle_exc:
                    raise RuntimeError(
                        f"worker payloads must pickle for the "
                        f"{self.start_method!r} process pool ({pickle_exc}); "
                        "use the thread backend for unpicklable clients"
                    ) from pickle_exc
            raise

    def close(self) -> None:
        """Shut the workers down; the next :meth:`map` starts a fresh pool."""
        if self._pool is not None:
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
            _terminate_pool(self._pool)
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorkerPool(workers={self.workers}, "
            f"start_method={self.start_method!r})"
        )


def _terminate_pool(pool) -> None:
    pool.terminate()
    pool.join()


def _process_entry(payload: Tuple[ClientTask, Any, State]) -> ClientUpdate:
    """Worker-side unit of work: one (task, client, global_state) triple."""
    task, client, global_state = payload
    return run_client_task(
        client, task, global_state, with_sync=task.kind == "train"
    )


#: Parent-side batch context a ``fork`` pool's workers inherit copy-on-write
#: (set immediately before the pool is created, cleared right after map).
_FORK_CONTEXT: Optional[Tuple[Sequence[ClientTask], Any, State]] = None


def _fork_entry(index: int) -> ClientUpdate:
    """Worker-side unit of work under ``fork``: everything is inherited."""
    tasks, clients, global_state = _FORK_CONTEXT
    task = tasks[index]
    return run_client_task(
        clients[task.client_index], task, global_state,
        with_sync=task.kind == "train",
    )


class ProcessBackend(ExecutionBackend):
    """Process-pool execution, dispatch strategy chosen by start method.

    * ``fork`` — each batch forks a short-lived pool whose workers
      inherit the tasks, clients and global state copy-on-write, so
      *nothing* ships on the way in (only the :class:`ClientUpdate`
      results pickle back).  Fork startup is a syscall, far cheaper than
      serializing every client's model **and dataset** per task into a
      persistent pool.
    * ``spawn`` — a persistent :class:`WorkerPool` is reused across
      rounds (worker startup boots an interpreter, so persistence is
      what pays) and each task ships as a picklable
      ``(task, client, global_state)`` payload.

    Either way each worker returns a :class:`ClientUpdate` whose ``sync``
    payload the parent replays onto its own client, in task order, so the
    parent federation ends the round in exactly the state a serial run
    produces.
    """

    name = "process"

    def __init__(self, workers: int = 0, start_method: Optional[str] = None) -> None:
        self.workers = default_worker_count(workers)
        self.pool = WorkerPool(workers=self.workers, start_method=start_method)

    @property
    def start_method(self) -> str:
        return self.pool.start_method

    def run(self, tasks, clients, global_state):
        tasks = list(tasks)
        if len(tasks) <= 1:
            return SerialBackend().run(tasks, clients, global_state)
        if self.start_method == "fork":
            updates = self._run_forked(tasks, clients, global_state)
        else:
            payloads = [
                (task, clients[task.client_index], global_state)
                for task in tasks
            ]
            updates = self.pool.map(_process_entry, payloads)
        for task, update in zip(tasks, updates):
            if update.sync is not None:
                apply_sync(clients[task.client_index], update.sync)
                update.sync = None
        return updates

    def _run_forked(self, tasks, clients, global_state) -> List[ClientUpdate]:
        global _FORK_CONTEXT
        context = multiprocessing.get_context("fork")
        # The context global must be in place *before* Pool() forks the
        # workers: they snapshot it (and the clients it references) via
        # copy-on-write page sharing, not via pickling.
        _FORK_CONTEXT = (tasks, clients, global_state)
        try:
            with context.Pool(min(self.workers, len(tasks))) as pool:
                return pool.map(_fork_entry, range(len(tasks)))
        finally:
            _FORK_CONTEXT = None

    def close(self) -> None:
        self.pool.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProcessBackend(workers={self.workers}, "
            f"start_method={self.start_method!r})"
        )


#: Constructible backends, keyed by config/CLI name.
BACKENDS = Registry("execution backend")
for _backend in (SerialBackend, ThreadBackend, ProcessBackend):
    BACKENDS.add(_backend.name, _backend)
del _backend

#: Deleted backend names a stored config or ``--backend`` may still carry,
#: mapped to the removal to name.
REMOVED_BACKENDS = {
    "process-spawn": "the process-spawn backend was removed; use 'process', "
    "which starts its workers with spawn wherever fork is missing",
}


def backend_class(name: str) -> type:
    """The backend class a config name selects.

    A removed name raises ``ValueError`` naming the removal; any other
    unknown name raises ``KeyError``.
    """
    if name in REMOVED_BACKENDS:
        raise ValueError(
            f"backend={name!r} is no longer available: {REMOVED_BACKENDS[name]}"
        )
    return BACKENDS[name]


def resolve_backend(
    backend: Union[str, ExecutionBackend, None], workers: int = 0
) -> ExecutionBackend:
    """Turn a config value (name, instance or None) into a backend object."""
    if backend is None:
        return SerialBackend()
    if isinstance(backend, ExecutionBackend):
        return backend
    return backend_class(backend)(workers=workers)
