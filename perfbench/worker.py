"""One fresh interpreter per federation, set-up sample or served run.

Usage (spawned by ``run.py``, never by hand)::

    python3 perfbench/worker.py fed   <workload> <seed> <trace> <trace-file>
    python3 perfbench/worker.py setup <workload> <seed>
    python3 -u perfbench/worker.py serve <workload> <seed> <trace> <trace-file>
    python3 -u perfbench/worker.py serve-setup <workload> <seed>

``run.py`` pins the BLAS thread count in the environment before this
interpreter loads numpy.  Every mode prints JSON lines on stdout; the last
one is the result.  Times are ``time.monotonic()`` readings, which share
one clock across processes, so the parent can measure set-up from the
moment it spawned the process.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from workloads import WORKLOADS, federation_config  # noqa: E402


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


class RoundClock:
    """Round boundaries from the trainer's own callbacks.

    Round ``k`` runs from the end of round ``k-1`` (round 1: run start) to
    the end of round ``k``, so sampling and fleet planning, which happen
    before ``on_round_start``, count toward the round they belong to.
    With a tracer, the same boundaries open and close ``round`` spans.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.marks = []
        self._span = None

    def _open(self, round_index: int) -> None:
        if self.tracer is not None:
            self.tracer.round_id = round_index
            self._span = self.tracer.begin("round")

    def on_run_start(self, trainer) -> None:
        if self.tracer is not None:
            import tracing

            tracing.install_trainer(self.tracer, trainer)
        self.marks = [time.monotonic()]
        self._open(1)

    def on_round_end(self, trainer, round_index, record) -> None:
        self.marks.append(time.monotonic())
        if self._span is not None:
            self.tracer.end(self._span)
            self._span = None
        if round_index < trainer.rounds and not trainer.stop_requested:
            self._open(round_index + 1)

    def rounds(self):
        return [b - a for a, b in zip(self.marks, self.marks[1:])]


def callbacks_for(config, clock):
    """The clock goes after the fleet callback so a round includes its
    ``complete_round`` (Federation.run would otherwise append it last)."""
    if config.systems is None:
        return [clock]
    from repro.systems.callback import FleetSimCallback

    return [FleetSimCallback(), clock]


def trace_summary(tracer, extra: dict) -> dict:
    import tracing

    return {
        "sums": tracing.layer_sums(tracer),
        "train_local": tracer.durations("client.train_local"),
        "round_phases": tracer.round_phases(),
        **extra,
    }


def run_federation(workload: str, seed: int, trace: bool, trace_file: str) -> None:
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install_program(tracer)
    from repro.federated import Federation

    config = federation_config(workload, seed)
    federation = Federation.from_config(config)
    emit({"ready": time.monotonic()})
    clock = RoundClock(tracer)
    history = federation.run(callbacks=callbacks_for(config, clock))
    run_end = time.monotonic()

    train_tasks = eval_tasks = 0
    exchanged = 0.0
    stragglers = 0
    for record in history.rounds:
        trained = len(record.client_uploaded_bytes)
        train_tasks += trained
        if record.sampled_accuracy is not None:
            eval_tasks += trained
        exchanged += record.uploaded_bytes + record.downloaded_bytes
        stragglers += len(record.stragglers or ())
    eval_tasks += len(history.final_per_client_accuracy)
    result = {
        "run_start": clock.marks[0],
        "run_end": run_end,
        "rounds": clock.rounds(),
        "history_rounds": len(history.rounds),
        "accuracy": history.final_accuracy,
        "train_tasks": train_tasks,
        "eval_tasks": eval_tasks,
        "exchanged_bytes": exchanged,
        "rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        pool = federation.clients
        tracer.dump(trace_file)
        result["trace"] = trace_summary(
            tracer,
            {
                "pool": {
                    "builds": pool.materializations,
                    "evictions": pool.evictions,
                    "spills": pool.spills,
                },
                "stragglers": stragglers,
            },
        )
    emit(result)


def run_setup(workload: str, seed: int) -> None:
    from repro.federated import Federation

    Federation.from_config(federation_config(workload, seed))
    emit({"ready": time.monotonic()})


def run_server(workload: str, seed: int, trace: bool, trace_file: str) -> None:
    """The served workload's server: one FederationServer in this process.

    Prints ``{"port": ...}`` once listening.  In ``serve`` mode it then
    serves the run to completion and prints the hub's own accounting.
    Either way it stops only when stdin closes, so the load generator's
    last ``done`` polls are answered before the sockets go away.
    """
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install_program(tracer)
        tracing.install_server(tracer)
    from repro.serving.server import FederationServer

    config = federation_config(workload, seed)
    clock = RoundClock(tracer)
    server = FederationServer(config, callbacks=[clock]).start()
    emit({"port": server.port})
    try:
        if trace_file is None:
            sys.stdin.readline()
            return
        history = server.wait(timeout=170)
        batches = server.hub.stats()
        result = {
            "history_rounds": len(history.rounds),
            "accuracy": history.final_accuracy,
            "tasks_completed": server.hub.tasks_completed,
            "train_batch_s": [
                batch.latency_seconds
                for batch in batches
                if batch.kind == "train" and batch.latency_seconds is not None
            ],
            "unsettled_batches": sum(
                1 for batch in batches
                if batch.cancelled or batch.completed != batch.size
            ),
            "rss_mb": peak_rss_mb(),
        }
        if tracer is not None:
            tracer.dump(trace_file)
            result["trace"] = trace_summary(tracer, {})
        emit(result)
        sys.stdin.readline()
    finally:
        server.stop()


def main(argv) -> None:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}")
    trace = len(argv) > 3 and argv[3] == "1"
    trace_file = argv[4] if len(argv) > 4 else None
    if mode == "fed":
        run_federation(workload, seed, trace, trace_file)
    elif mode == "setup":
        run_setup(workload, seed)
    elif mode in ("serve", "serve-setup"):
        run_server(workload, seed, trace, trace_file if mode == "serve" else None)
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
