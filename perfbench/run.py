"""perfbench: the repository's benchmark, one command per run.

    python3 perfbench/run.py --workload hybrid-cifar10 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --steadiness 5 --seconds 40 [--workload NAME ...]

Run from the repository root.  A run spends about ``--seconds`` on whole
federations of the chosen workload, each in a fresh interpreter, with one
extra set-up sample after each.  With
``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` the same federations run with the wrappers of
``tracing.py`` installed and it reports the per-layer metrics instead.
Human-readable lines (every metric with its unit and sample count, the
checks, the operation counts) come first; the last line of stdout is one
JSON object.  A failed output check makes the run exit 1.

``--steadiness N`` runs each workload N times untraced and once traced,
and prints each end-to-end metric's median, quartiles and spreads, plus
the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from stats import (  # noqa: E402
    Metric,
    check_metric,
    check_timing_scale,
    median,
    percentile,
    quartile_spread,
    spread_ratio,
)
from workloads import SERVED_SESSIONS, WORKLOADS, federation_config  # noqa: E402

SERVED = "served-fedavg-mnist"
#: Final accuracy may differ from its pin by this much: BLAS builds on
#: other CPUs round differently, and a few flipped test predictions must
#: not read as a broken program.  On the machine that made the pins the
#: difference is exactly 0.
PIN_TOLERANCE = 0.02
WORKER_TIMEOUT = 170.0
TRACE_DIR = ".perfbench-traces"

END_TO_END = ("setup_s", "run_s", "round_s_p50", "peak_rss_mb",
              "tasks_per_s", "wire_kb_per_task")


def served_cpus() -> Optional[tuple]:
    """``(server CPU, load CPU)``, or None on a one-CPU box.

    The served workload puts the server and the load generator on CPUs of
    their own.  Left to the scheduler, the two processes' threads trade
    places and a run's throughput swings by a fifth from that alone.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else None


class Worker:
    """One ``worker.py`` process; leaving the ``with`` block reaps it."""

    def __init__(self, *args: str, stdin: bool = False, cpu: Optional[int] = None) -> None:
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", os.path.join(HERE, "worker.py"), *args],
            stdout=subprocess.PIPE,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            text=True,
        )
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})

    def line(self) -> dict:
        text = self.proc.stdout.readline()
        if not text:
            raise RuntimeError(f"worker exited early (code {self.proc.wait()})")
        return json.loads(text)

    def finish(self) -> None:
        if self.proc.stdin is not None:
            self.proc.stdin.close()
        try:
            code = self.proc.wait(timeout=WORKER_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.kill()


def _trace_file(workload: str, seed: int, index: int) -> str:
    return os.path.join(TRACE_DIR, f"{workload}-seed{seed}-{index}.json")


# ----------------------------------------------------------------------
# One federation / one set-up sample
# ----------------------------------------------------------------------
def train_federation(workload: str, seed: int, trace: bool, index: int) -> dict:
    with Worker("fed", workload, str(seed), str(int(trace)),
                _trace_file(workload, seed, index)) as worker:
        ready = worker.line()["ready"]
        result = worker.line()
        worker.finish()
    result["setup_s"] = ready - worker.spawned
    result["run_s"] = result["run_end"] - result["run_start"]
    result["tasks"] = result["train_tasks"] + result["eval_tasks"]
    result["wire_bytes"] = result["exchanged_bytes"]
    return result


def _health(port: int) -> None:
    from repro.serving.client import ServerClient

    ServerClient(f"http://127.0.0.1:{port}", timeout=30.0).health()


def served_federation(workload: str, seed: int, trace: bool, index: int,
                      counter, server_cpu: Optional[int]) -> dict:
    import loadgen

    with Worker("serve", workload, str(seed), str(int(trace)),
                _trace_file(workload, seed, index), stdin=True,
                cpu=server_cpu) as worker:
        port = worker.line()["port"]
        _health(port)
        setup_s = time.monotonic() - worker.spawned
        clients = federation_config(workload, seed).num_clients
        run_start, logs = loadgen.run_load(
            f"http://127.0.0.1:{port}", clients, SERVED_SESSIONS, counter
        )
        run_end = max(log.done_at or time.monotonic() for log in logs)
        result = worker.line()
        worker.finish()
    errors = [repr(log.error) for log in logs if log.error is not None]
    task_ids = [task_id for log in logs for task_id in log.task_ids]
    result.update(
        setup_s=setup_s,
        run_s=run_end - run_start,
        rounds=result.pop("train_batch_s"),
        tasks=len(task_ids),
        train_s=[s for log in logs for s in log.train_s],
        eval_tasks=sum(len(log.eval_s) for log in logs),
        relet=len(task_ids) - len(set(task_ids)),
        rejected=sum(log.rejected for log in logs),
        polls=sum(log.polls for log in logs),
        session_errors=errors,
        http_requests=counter.requests,
        http_failed=counter.failed,
        wire_bytes=counter.up_bytes + counter.down_bytes,
        up_bytes=counter.up_bytes,
        down_bytes=counter.down_bytes,
    )
    return result


def setup_sample(workload: str, seed: int, server_cpu: Optional[int]) -> float:
    if workload == SERVED:
        with Worker("serve-setup", workload, str(seed), stdin=True,
                    cpu=server_cpu) as worker:
            _health(worker.line()["port"])
            elapsed = time.monotonic() - worker.spawned
            worker.finish()
        return elapsed
    with Worker("setup", workload, str(seed)) as worker:
        ready = worker.line()["ready"]
        worker.finish()
    return ready - worker.spawned


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def load_pins() -> Dict[str, Dict[str, float]]:
    with open(os.path.join(HERE, "pins.json")) as handle:
        return json.load(handle)["accuracy"]


def output_checks(workload: str, seed: int, feds: List[dict]) -> List[tuple]:
    """``(name, passed, detail)`` for every output check of the run."""
    rounds = WORKLOADS[workload]["rounds"]
    checks = []
    for number, fed in enumerate(feds, 1):
        checks.append((f"fed{number}.history_has_every_round",
                       fed["history_rounds"] == rounds,
                       f"{fed['history_rounds']} of {rounds}"))
    accuracies = [fed["accuracy"] for fed in feds]
    if workload == SERVED:
        for number, fed in enumerate(feds, 1):
            checks += [
                (f"fed{number}.accuracy_is_echo", fed["accuracy"] == 0.5,
                 f"{fed['accuracy']!r}"),
                (f"fed{number}.every_result_accepted", fed["rejected"] == 0,
                 f"{fed['rejected']} rejected"),
                (f"fed{number}.no_lease_requeued",
                 fed["relet"] == 0 and fed["unsettled_batches"] == 0,
                 f"{fed['relet']} task ids leased twice, "
                 f"{fed['unsettled_batches']} unsettled batches"),
                (f"fed{number}.sessions_clean", not fed["session_errors"],
                 "; ".join(fed["session_errors"]) or "ok"),
                (f"fed{number}.hub_counted_every_task",
                 fed["tasks_completed"] == fed["tasks"],
                 f"hub {fed['tasks_completed']}, clients {fed['tasks']}"),
            ]
        return checks
    checks.append(("accuracy_repeats_exactly", len(set(accuracies)) == 1,
                   f"{accuracies}"))
    checks.append(("accuracy_in_range", all(0.0 < a <= 1.0 for a in accuracies),
                   f"{accuracies}"))
    pin = load_pins().get(workload, {}).get(str(seed))
    if pin is None:
        print(f"check pin: no pinned accuracy for seed {seed}; range and "
              "repeat checks only")
    else:
        what = ("serial_backend_accuracy" if workload == "unstructured-mnist-fleet"
                else "pinned_accuracy")
        delta = max(abs(a - pin) for a in accuracies)
        checks.append((f"matches_{what}", delta <= PIN_TOLERANCE,
                       f"pin {pin!r}, got {accuracies[0]!r}, delta {delta:.6f}"))
    return checks


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(workload: str, feds: List[dict], setups: List[float]) -> Dict[str, Metric]:
    run_total = sum(fed["run_s"] for fed in feds)
    tasks = sum(fed["tasks"] for fed in feds)
    rounds = [r for fed in feds for r in fed["rounds"]]
    if workload == SERVED:
        wire_tasks = tasks
    else:
        wire_tasks = sum(fed["train_tasks"] for fed in feds)
    metrics = {
        "setup_s": Metric(median(setups), "s", len(setups)),
        "run_s": Metric(median([fed["run_s"] for fed in feds]), "s", len(feds)),
        "round_s_p50": percentile(rounds, 50),
        "peak_rss_mb": Metric(median([fed["rss_mb"] for fed in feds]), "MB", len(feds)),
        "tasks_per_s": Metric(tasks / run_total, "1/s", tasks),
        "wire_kb_per_task": Metric(
            sum(fed["wire_bytes"] for fed in feds) / wire_tasks / 1000.0, "KB", wire_tasks
        ),
    }
    for name, metric in metrics.items():
        check_metric(name, metric)
        check_timing_scale(name, metric)
    return metrics


def served_task_latency(feds: List[dict]) -> Dict[str, Optional[Metric]]:
    """Train-task latency percentiles (evaluate tasks are kept apart)."""
    train = [s for fed in feds for s in fed["train_s"]]
    return {f"task_s_p{q}": percentile(train, q) for q in (50, 90, 99)}


#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("engine.kernel_s", "s"), ("engine.kernel.calls", "count"),
    ("engine.conv2d_s", "s"), ("engine.matmul_s", "s"),
    ("tensor.backward_s", "s"), ("tensor.backward.calls", "count"),
    ("optim.step_s", "s"), ("optim.step.calls", "count"),
    ("data.synth_s", "s"), ("data.batch_s", "s"),
    ("pruning.snapshot_s", "s"), ("pruning.update_s", "s"),
    ("pruning.commit_ratio", "ratio"), ("pruning.mask_apply_s", "s"),
    ("client.train_local_s_p50", "s"), ("client.train_local.calls", "count"),
    ("client.evaluate_s", "s"), ("client.evaluate.calls", "count"),
    ("execution.batch_s", "s"), ("execution.tasks", "count"),
    ("execution.apply_sync_s", "s"),
    ("pool.lookups", "count"), ("pool.builds", "count"), ("pool.hit_ratio", "ratio"),
    ("pool.evictions", "count"), ("pool.spills", "count"), ("pool.build_s", "s"),
    ("aggregation.intersection_s", "s"), ("aggregation.intersection.calls", "count"),
    ("aggregation.fedavg_s", "s"), ("aggregation.fedavg.calls", "count"),
    ("round.sample_s", "s"), ("round.plan_s", "s"), ("round.execute_s", "s"),
    ("round.aggregate_s", "s"), ("round.evaluate_s", "s"), ("round.other_s", "s"),
    ("round.self_s", "s"), ("round.total_s", "s"),
    ("systems.plan_round_s", "s"), ("systems.complete_round_s", "s"),
    ("systems.stragglers", "count"),
    ("codec.pack_s", "s"), ("codec.unpack_s", "s"), ("codec.bytes", "B"),
    ("hub.take.calls", "count"), ("hub.take_s", "s"), ("hub.empty_poll_ratio", "ratio"),
    ("hub.complete_s", "s"), ("hub.accept_ratio", "ratio"), ("hub.wait_for_s", "s"),
    ("hub.requeued", "count"), ("http.requests", "count"), ("http.request_s", "s"),
    ("protocol.from_wire_s", "s"),
    ("wire.down_bytes_per_task", "B"), ("wire.up_bytes_per_task", "B"),
    ("client.polls_per_task", "count"), ("client.retries", "count"),
    ("trace.run_s", "s"), ("trace.spans", "count"), ("trace.overhead_est_ratio", "ratio"),
)


def per_layer(workload: str, feds: List[dict]) -> Dict[str, Metric]:
    """Per-layer numbers, each the mean per federation of this run.

    Times are busy seconds (inclusive of callees), counts are calls;
    round phases are seconds per round and sum to ``round.total_s``.  A
    layer the workload never enters reads 0.
    """
    count = len(feds)
    sums: Dict[str, float] = {}
    for fed in feds:
        for name, value in fed["trace"]["sums"].items():
            sums[name] = sums.get(name, 0.0) + value

    def per_fed(name: str) -> float:
        return sums.get(name, 0.0) / count

    def ratio(numerator: str, denominator: str) -> float:
        base = sums.get(denominator, 0.0)
        return sums.get(numerator, 0.0) / base if base else 0.0

    values = {name: per_fed(name) for name, _ in PER_LAYER}
    values["execution.tasks"] = per_fed("execution.tasks.calls")
    values["pruning.commit_ratio"] = ratio("pruning.commits.calls", "pruning.gates.calls")
    values["pool.lookups"] = per_fed("pool.lookups.calls")
    values["hub.empty_poll_ratio"] = ratio("hub.empty_polls.calls", "hub.take.calls")
    values["hub.accept_ratio"] = ratio("hub.accepted.calls", "hub.complete.calls")
    values["hub.requeued"] = per_fed("hub.requeued.calls")
    values["http.requests"] = per_fed("http.request.calls")
    pools = [fed["trace"].get("pool") for fed in feds if fed["trace"].get("pool")]
    if pools:
        for key in ("builds", "evictions", "spills"):
            values[f"pool.{key}"] = sum(p[key] for p in pools) / count
    lookups = values["pool.lookups"]
    values["pool.hit_ratio"] = 1.0 - values["pool.builds"] / lookups if lookups else 0.0
    values["systems.stragglers"] = sum(fed["trace"].get("stragglers", 0) for fed in feds) / count
    train_local = [s for fed in feds for s in fed["trace"]["train_local"]]
    p50 = percentile(train_local, 50)
    values["client.train_local_s_p50"] = 0.0 if p50 is None else p50.value
    phases = [phase for fed in feds for phase in fed["trace"]["round_phases"]]
    for key in ("sample", "plan", "execute", "aggregate", "evaluate", "other",
                "self", "total"):
        values[f"round.{key}_s"] = (
            sum(phase[key] for phase in phases) / len(phases) if phases else 0.0
        )
    if workload == SERVED:
        tasks = sum(fed["tasks"] for fed in feds)
        values["wire.down_bytes_per_task"] = sum(f["down_bytes"] for f in feds) / tasks
        values["wire.up_bytes_per_task"] = sum(f["up_bytes"] for f in feds) / tasks
        values["client.polls_per_task"] = sum(f["polls"] for f in feds) / tasks
        values["client.retries"] = sum(f["http_failed"] for f in feds) / count
    values["trace.run_s"] = median([fed["run_s"] for fed in feds])
    # Wrapper cost is measured here, in a quiet process: inside a busy
    # server a thread switch during the probe loop would inflate it.
    from tracing import wrapper_cost

    values["trace.overhead_est_ratio"] = (
        per_fed("trace.wrapped_calls") * wrapper_cost() / values["trace.run_s"]
    )
    samples = {"client.train_local_s_p50": len(train_local)}
    metrics = {}
    for name, unit in PER_LAYER:
        metric = Metric(values[name], unit, samples.get(name, count))
        check_metric(name, metric)
        metrics[name] = metric
    return metrics


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    print(f"workload {workload} seed {seed} seconds {seconds} trace {int(trace)}")
    print(f"why {WORKLOADS[workload]['why']}")
    counter = server_cpu = None
    own_cpus = os.sched_getaffinity(0)
    if workload == SERVED:
        import loadgen

        counter = loadgen.WireCounter()
        cpus = served_cpus()
        if cpus:
            server_cpu = cpus[0]
            os.sched_setaffinity(0, {cpus[1]})
    started = time.monotonic()
    feds: List[dict] = []
    setups: List[float] = []
    crashed = 0
    try:
        # Each step is one federation plus, untraced, one more set-up
        # sample; spreading the samples over the run keeps a brief busy
        # spell of the box from landing on all of them.
        while True:
            try:
                if workload == SERVED:
                    fed = served_federation(workload, seed, trace, len(feds),
                                            counter, server_cpu)
                else:
                    fed = train_federation(workload, seed, trace, len(feds))
                feds.append(fed)
                setups.append(fed["setup_s"])
                if not trace:
                    setups.append(setup_sample(workload, seed, server_cpu))
            except (RuntimeError, ValueError, OSError, subprocess.TimeoutExpired) as exc:
                crashed += 1
                print(f"federation failed: {exc!r}")
                break
            took = time.monotonic() - started
            if took + took / len(feds) > seconds:
                break
    finally:
        if counter is not None:
            counter.close()
        os.sched_setaffinity(0, own_cpus)

    checks = output_checks(workload, seed, feds) if feds else []
    for name, passed, detail in checks:
        print(f"check {name} {'ok' if passed else 'FAILED'}: {detail}")
    failed_checks = sum(1 for _, passed, _ in checks if not passed)
    ops = sum(fed["tasks"] for fed in feds) + len(checks) + crashed
    ops_failed = failed_checks + crashed
    if workload == SERVED:
        ops += sum(fed["http_requests"] for fed in feds)
        ops_failed += sum(fed["http_failed"] + fed["rejected"] for fed in feds)
    correct = bool(feds) and ops_failed == 0
    print(f"ops {ops} ops_failed {ops_failed} failed_share {ops_failed / max(ops, 1):.6f}")

    metrics: Dict[str, Metric] = {}
    if feds:
        metrics = per_layer(workload, feds) if trace else end_to_end(workload, feds, setups)
        shown = dict(metrics)
        if workload == SERVED and not trace:
            shown.update(served_task_latency(feds))
        for name, metric in shown.items():
            if metric is None:
                print(f"metric {name} not emitted: too few samples for this tail")
            else:
                print(f"metric {name} {metric.value:.6g} {metric.unit} n={metric.n}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(ops, 1),
        "failed": ops_failed,
        "metrics": {name: {"value": m.value, "unit": m.unit} for name, m in metrics.items()},
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Steadiness report
# ----------------------------------------------------------------------
def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _invoke(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    result = _last_json(done.stdout)
    if done.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stdout}")
    return result["metrics"]


def steadiness(workloads: List[str], repeats: int, seconds: float) -> int:
    # Round-robin over the workloads, so a spell in which the whole box
    # runs faster or slower lands on every workload alike.
    results = {workload: [] for workload in workloads}
    for seed in range(1, repeats + 1):
        for workload in workloads:
            results[workload].append(_invoke(workload, seed, seconds, 0))
    for workload in workloads:
        runs = results[workload]
        print(f"== {workload}: {repeats} untraced runs, seeds 1..{repeats}")
        for seed, result in enumerate(runs, 1):
            print(f"seed {seed}: " + " ".join(
                f"{name} {result[name]['value']:.4g}" for name in END_TO_END))
        print(f"{'metric':18} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'iqr/med':>8} {'range/med':>9}")
        for name in END_TO_END:
            values = [r[name]["value"] for r in runs]
            q1, mid, q3 = quartile_spread(values)
            span = (max(values) - min(values)) / mid if mid else 0.0
            print(f"{name:18} {mid:10.4f} {q1:10.4f} {q3:10.4f} "
                  f"{spread_ratio(values):8.3f} {span:9.3f}")
        traced = _invoke(workload, repeats + 1, seconds, 1)
        untraced_run = median([r["run_s"]["value"] for r in runs])
        traced_run = traced["trace.run_s"]["value"]
        print(f"tracing overhead: traced run_s {traced_run:.3f} s / untraced median "
              f"{untraced_run:.3f} s = {traced_run / untraced_run:.3f} (estimated "
              f"{traced['trace.overhead_est_ratio']['value']:.4f})")
        phases = ("sample", "plan", "execute", "aggregate", "evaluate", "other", "self")
        total = sum(traced[f"round.{p}_s"]["value"] for p in phases)
        if total:
            untraced_round = median([r["round_s_p50"]["value"] for r in runs])
            print("round phases (traced, mean s/round): " + ", ".join(
                f"{p} {traced[f'round.{p}_s']['value']:.4f}" for p in phases))
            print(f"phase sum {total:.4f} s vs untraced round_s_p50 "
                  f"{untraced_round:.4f} s (ratio {total / untraced_round:.3f})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N")
    args = parser.parse_args(argv)
    # One BLAS thread here and, through the environment, in every worker:
    # set before anything imports numpy.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(1, os.path.join(os.getcwd(), "src"))
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    if args.steadiness:
        return steadiness(args.workload or list(WORKLOADS), args.steadiness, args.seconds)
    if not args.workload or len(args.workload) != 1:
        parser.error("give exactly one --workload")
    return run(args.workload[0], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
