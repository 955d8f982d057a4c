"""Spans and counters recorded from outside the program.

Nothing under ``src/`` knows about tracing: the ``install_*`` functions
replace public functions with timing wrappers *where their callers look
them up*
(a module global such as ``repro.tensor.tensor.run_kernel``, a class
attribute such as ``FederatedClient.train_local``, or an attribute of one
live object such as a trainer's sampler).  Coarse calls become spans with
a parent and a round id; hot leaf calls (kernels, optimizer steps, batch
gathers) only add to busy-time and call counters, so tracing stays cheap.

Spans stay in memory and are written out once, when the process ends its
federation (:meth:`Tracer.dump`).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List

from stats import self_time

#: Round-phase of each span name that can sit directly under a round span.
#: Anything else found there is reported as ``round.other_s``.
ROUND_PHASES = {
    "round.sample": "sample",
    "systems.plan_round": "plan",
    "systems.complete_round": "plan",
    "trainer.execute": "execute",
    "aggregation.intersection": "aggregate",
    "aggregation.fedavg": "aggregate",
    "trainer.evaluate": "evaluate",
}
PHASES = ("sample", "plan", "execute", "aggregate", "evaluate", "other", "self")


class Tracer:
    """In-memory spans plus busy-time/call counters (thread-safe)."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [id, name, start, end, parent, round]
        self.busy: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.amounts: Dict[str, int] = defaultdict(int)  # bytes, not calls
        self.round_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        record = [next(self._ids), name, time.perf_counter(), None, parent, self.round_id]
        stack.append(record)
        return record

    def end(self, record: list) -> None:
        record[3] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is record:
            stack.pop()
        elif record in stack:  # a callee leaked an open span: close it too
            del stack[stack.index(record):]
        self.spans.append(record)

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        with self._lock:
            self.busy[name] += seconds
            self.calls[name] += calls

    def count(self, name: str, calls: int = 1) -> None:
        with self._lock:
            self.calls[name] += calls

    def amount(self, name: str, value: int) -> None:
        with self._lock:
            self.amounts[name] += value

    # ------------------------------------------------------------------
    def span_totals(self) -> Dict[str, float]:
        """Inclusive seconds per span name."""
        totals: Dict[str, float] = defaultdict(float)
        for _, name, start, end, _, _ in self.spans:
            totals[name] += end - start
        return totals

    def span_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span[1]] += 1
        return counts

    def durations(self, name: str) -> List[float]:
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]

    def round_phases(self) -> List[Dict[str, float]]:
        """Per round: seconds of each phase; the phases sum to the round.

        A phase is the inclusive time of the round's direct child spans of
        that kind; ``self`` is the round minus the union of all children.
        """
        children: Dict[int, list] = defaultdict(list)
        for span in self.spans:
            children[span[4]].append(span)
        rounds = []
        for span_id, name, start, end, _, _ in self.spans:
            if name != "round":
                continue
            phases = dict.fromkeys(PHASES, 0.0)
            kids = children.get(span_id, [])
            for child in kids:
                phase = ROUND_PHASES.get(child[1], "other")
                phases[phase] += child[3] - child[2]
            phases["self"] = self_time(start, end, [(c[2], c[3]) for c in kids])
            phases["total"] = end - start
            rounds.append(phases)
        return rounds

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "round"],
                    "spans": self.spans,
                    "busy": dict(self.busy),
                    "calls": dict(self.calls),
                    "amounts": dict(self.amounts),
                },
                handle,
            )


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _replace(owner, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Swap ``owner.attr`` for ``make(original)``, keeping classmethods."""
    static = inspect.getattr_static(owner, attr)
    if isinstance(static, classmethod):
        setattr(owner, attr, classmethod(make(static.__func__)))
    else:
        setattr(owner, attr, make(getattr(owner, attr)))


def span(tracer: Tracer, owner, attr: str, name: str, after=None) -> None:
    """Record every call of ``owner.attr`` as a span called ``name``.

    ``after(args, result)`` runs once the call returns (counters that
    depend on the result).
    """

    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            record = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(record)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    _replace(owner, attr, make)


def busy(tracer: Tracer, owner, attr: str, name: str, key=None) -> None:
    """Add each call of ``owner.attr`` to the ``name`` busy/call counters.

    ``key(args)`` names a second counter to charge as well (per-op kernel
    time, for instance).
    """

    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer.add(name, elapsed)
                if key is not None:
                    tracer.add(key(args), elapsed)

        return wrapper

    _replace(owner, attr, make)


def counted(tracer: Tracer, owner, attr: str, name: str) -> None:
    """Count calls of ``owner.attr`` without timing them."""

    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return original(*args, **kwargs)

        return wrapper

    _replace(owner, attr, make)


def wrapper_cost() -> float:
    """Seconds one span wrapper adds to a call (measured, not assumed)."""

    class Probe:
        def noop(self):
            return None

    plain = Probe()
    repeats = 20000
    start = time.perf_counter()
    for _ in range(repeats):
        plain.noop()
    bare = time.perf_counter() - start
    scratch = Tracer()
    span(scratch, Probe, "noop", "probe")
    start = time.perf_counter()
    for _ in range(repeats):
        plain.noop()
    wrapped = time.perf_counter() - start
    return max(0.0, (wrapped - bare) / repeats)


# ----------------------------------------------------------------------
# Installation, per process role
# ----------------------------------------------------------------------
def install_program(tracer: Tracer) -> None:
    """Wrap the layers every federation passes through (before building)."""
    import repro.data.loader as loader
    import repro.federated.builder as builder
    import repro.federated.execution as execution
    import repro.federated.pool as pool
    import repro.federated.trainers.base as base
    import repro.federated.trainers.fedavg as fedavg
    import repro.federated.trainers.subfedavg as subfedavg
    import repro.optim.sgd as sgd
    import repro.pruning.controller as controller
    import repro.pruning.mask as mask
    import repro.tensor.tensor as tensor
    from repro.federated.client import FederatedClient

    # engine / tensor / optim / data: hot leaves, counters only.
    busy(tracer, tensor, "run_kernel", "engine.kernel", key=lambda a: f"engine.{a[0]}")
    busy(tracer, tensor.Tensor, "backward", "tensor.backward")
    busy(tracer, sgd.SGD, "step", "optim.step")
    busy(tracer, loader.DataLoader, "_gather", "data.batch")
    busy(tracer, mask.MaskSet, "apply_to_model", "pruning.mask_apply")
    counted(tracer, pool.ClientPool, "__getitem__", "pool.lookups")
    # Coarse layer boundaries: spans.
    span(tracer, builder, "load_dataset", "data.synth")
    span(tracer, builder, "build_client_data", "data.synth")
    span(tracer, controller.PruningController, "snapshot", "pruning.snapshot")

    def gates(args, decision):
        controller_ = args[0]
        tracer.count("pruning.gates", int(controller_.un_cfg is not None)
                     + int(controller_.st_cfg is not None))
        tracer.count("pruning.commits", int(decision.unstructured_applied)
                     + int(decision.structured_applied))

    span(tracer, controller.PruningController, "update", "pruning.update", after=gates)
    span(tracer, FederatedClient, "train_local", "client.train_local")
    span(tracer, FederatedClient, "evaluate", "client.evaluate")
    span(tracer, pool.ClientPool, "_materialize", "pool.build")
    span(tracer, base.FederatedTrainer, "execute", "trainer.execute")
    span(tracer, base.FederatedTrainer, "evaluate_sampled", "trainer.evaluate")
    span(tracer, base.FederatedTrainer, "evaluate_all", "trainer.evaluate")
    span(tracer, subfedavg, "intersection_average", "aggregation.intersection")
    span(tracer, fedavg, "fedavg_average", "aggregation.fedavg")
    span(tracer, execution, "apply_sync", "execution.apply_sync")

    def tasks(args, result):
        tracer.count("execution.tasks", len(result))

    for backend in (execution.SerialBackend, execution.ThreadBackend,
                    execution.ProcessBackend):
        span(tracer, backend, "run", "execution.batch", after=tasks)


def install_trainer(tracer: Tracer, trainer) -> None:
    """Wrap the round-phase calls that live on one built trainer."""
    span(tracer, trainer.sampler, "sample", "round.sample")
    if trainer.fleet_sim is not None:
        span(tracer, trainer.fleet_sim, "plan_round", "systems.plan_round")
        span(tracer, trainer.fleet_sim, "complete_round", "systems.complete_round")


def install_server(tracer: Tracer) -> None:
    """Wrap the serving layer inside the server process."""
    import repro.federated.compression as compression
    import repro.federated.execution as execution
    import repro.serving.hub as hub
    import repro.serving.server as server

    leased = set()

    def took(args, payload):
        if payload.get("status") == "task":
            task_id = payload["task_id"]
            if task_id in leased:
                tracer.count("hub.requeued")
            leased.add(task_id)
        else:
            tracer.count("hub.empty_polls")

    def completed(args, accepted):
        tracer.count("hub.accepted", int(bool(accepted)))

    span(tracer, hub.WireHub, "take", "hub.take", after=took)
    span(tracer, hub.WireHub, "complete", "hub.complete", after=completed)
    span(tracer, hub.WireHub, "wait_for", "hub.wait_for")
    span(tracer, hub.WireBackend, "run", "execution.batch",
         after=lambda args, result: tracer.count("execution.tasks", len(result)))
    span(tracer, execution.ClientUpdate, "from_wire", "protocol.from_wire")

    def sized(name, index):
        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                result = original(*args, **kwargs)
                tracer.add(name, time.perf_counter() - start)
                blob = result if index is None else args[index]
                tracer.amount("codec.bytes", len(blob))
                return result

            return wrapper

        return make

    _replace(compression, "pack_state", sized("codec.pack", None))
    _replace(compression, "decode_state", sized("codec.unpack", 0))

    make_handler = server._make_handler

    def traced_handler(federation_server):
        handler = make_handler(federation_server)
        span(tracer, handler, "do_GET", "http.request")
        span(tracer, handler, "do_POST", "http.request")
        return handler

    server._make_handler = traced_handler


# ----------------------------------------------------------------------
# Reduction to per-layer numbers (one process's share)
# ----------------------------------------------------------------------
def layer_sums(tracer: Tracer) -> Dict[str, float]:
    """Additive per-layer numbers of one process, merged across processes."""
    totals = tracer.span_totals()
    counts = tracer.span_counts()
    sums: Dict[str, float] = {}
    for name, value in tracer.busy.items():
        sums[f"{name}_s"] = value
    for name, value in tracer.calls.items():
        sums[f"{name}.calls"] = float(value)
    for name, value in totals.items():
        sums[f"{name}_s"] = value
        sums[f"{name}.calls"] = float(counts[name])
    sums.update(tracer.amounts)
    sums["trace.spans"] = float(len(tracer.spans))
    sums["trace.wrapped_calls"] = float(len(tracer.spans) + sum(tracer.calls.values()))
    return sums

