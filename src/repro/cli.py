"""Command-line interface for running reproductions.

Usage::

    python -m repro list
    python -m repro run    --dataset mnist --algorithm sub-fedavg-un --preset smoke
    python -m repro run    --config run.json
    python -m repro run    --backend thread --workers 4
    python -m repro run    --partition dirichlet --set data.dirichlet_alpha=0.1
    python -m repro run    --sampler availability --set scenario.dropout=0.2
    python -m repro run    --round-policy async-buffer --set systems.jitter=0.1
    python -m repro run    --set scenario.fleet=hierarchical --set scenario.regions=16 \\
                           --set scenario.region_uplink_bytes_per_second=5e6
    python -m repro sweep  --grid smoke --jobs 2 --out sweep-results
    python -m repro sweep  --grid ablate-partition --dataset mnist
    python -m repro sweep  --grid table1 --dataset mnist --resume --export-json sweep.json
    python -m repro table1 --dataset mnist --preset smoke
    python -m repro table2 --dataset cifar10
    python -m repro fig2   --dataset mnist --preset smoke
    python -m repro fig3   --dataset mnist --preset smoke
    python -m repro ablate --which aggregation --dataset mnist
    python -m repro report --dataset mnist --out report.md
    python -m repro serve  --dataset mnist --algorithm fedavg --port 8731
    python -m repro client --url http://127.0.0.1:8731 --clients 0,1,2
    python -m repro loadtest --clients 1000 --rounds 2 --out BENCH_serving.json

Algorithm, dataset, partitioner, sampler and preset choices are resolved
from the registries (``repro.federated.registry``, ``repro.data.registry``,
``repro.federated.scenario``, ``repro.experiments.presets``), so a newly
registered plugin appears here without CLI edits.  ``run`` accepts either
flags or a serialized :class:`~repro.federated.builder.FederationConfig`
(``--config run.json``; write one with ``--export-config``), plus scenario
flags (``--partition dirichlet``, ``--sampler availability``) and generic
nested-section overrides (``--set data.dirichlet_alpha=0.1 --set
scenario.dropout=0.2``).  Each subcommand prints the corresponding paper
artifact to stdout and optionally saves the raw run history
(``--save history.json``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from .data.registry import (
    available_partitioners,
    dataset_entries,
    partitioner_specs,
)
from .data.synthetic import SPECS
from .experiments import (
    PRESETS,
    ResultStore,
    SweepRunner,
    aggregation_spec,
    ascii_plot,
    export_results,
    federation_config,
    fig2_spec,
    fig3_spec,
    fleet_spec,
    gate_spec,
    get_preset,
    fig2_series,
    fig3_series,
    format_table1,
    format_table2,
    heterogeneity_spec,
    partition_override,
    partition_spec,
    pruning_step_spec,
    sampler_override,
    rounds_to_target,
    run_convergence,
    run_sparsity_sweep,
    run_table1,
    run_table2,
    seconds_to_target,
    smoke_spec,
    table1_spec,
)
from .experiments.sweep import SWEEP_EXECUTORS, merge_overrides
from .federated import (
    Federation,
    FederationConfig,
    ProgressLogger,
    ScenarioConfig,
    SystemsConfig,
    available_algorithms,
    available_backends,
    available_fleets,
    available_round_policies,
    available_samplers,
    fleet_specs,
    round_policy_specs,
    sampler_specs,
    trainer_specs,
)
from .utils.serialization import save_history


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Sub-FedAvg reproduction driver"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    datasets = tuple(SPECS)
    presets = tuple(PRESETS)

    def common(p: argparse.ArgumentParser, preset: bool = True) -> None:
        p.add_argument("--dataset", choices=datasets, default="mnist")
        p.add_argument("--seed", type=int, default=0)
        if preset:
            p.add_argument("--preset", choices=presets, default="smoke")

    def scenario_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--partition",
            choices=available_partitioners(),
            default=None,
            help="partition strategy (default: the config's, i.e. shard)",
        )
        p.add_argument(
            "--sampler",
            choices=available_samplers(),
            default=None,
            help="client-participation model (default: the config's, i.e. uniform)",
        )
        p.add_argument(
            "--fleet",
            choices=available_fleets(),
            default=None,
            help="client-device fleet shape (default: the config's, i.e. tiers)",
        )
        p.add_argument(
            "--round-policy",
            choices=available_round_policies(),
            default=None,
            help="enable fleet simulation under this round-completion policy",
        )
        p.add_argument(
            "--deadline",
            type=float,
            default=None,
            help="round budget in simulated seconds (implies "
            "--round-policy deadline)",
        )

    list_cmd = sub.add_parser(
        "list",
        help="show registered algorithms, datasets, partitioners, "
        "samplers and presets",
    )
    list_cmd.set_defaults(func=_cmd_list)

    run_cmd = sub.add_parser("run", help="run one algorithm end to end")
    common(run_cmd)
    run_cmd.add_argument(
        "--algorithm", choices=available_algorithms(), default="sub-fedavg-un"
    )
    run_cmd.add_argument(
        "--config", help="run a serialized FederationConfig JSON file "
        "(overrides --dataset/--algorithm/--preset/--seed)"
    )
    run_cmd.add_argument(
        "--export-config",
        help="write the resolved FederationConfig JSON here and exit "
        "without training (replay it later with --config)",
    )
    run_cmd.add_argument("--save", help="write the run history JSON here")
    run_cmd.add_argument(
        "--progress", action="store_true", help="print a per-round progress line"
    )
    run_cmd.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help="client-execution backend (default: the config's, i.e. serial)",
    )
    run_cmd.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for thread/process backends (default: cpu count)",
    )
    scenario_flags(run_cmd)
    run_cmd.add_argument(
        "--set",
        dest="set_overrides",
        action="append",
        default=[],
        metavar="SECTION.FIELD=VALUE",
        help="override any config field, including the nested data.*, "
        "scenario.* and systems.* sections "
        "(e.g. --set data.dirichlet_alpha=0.1 --set scenario.dropout=0.2 "
        "--set scenario.fleet=hierarchical --set scenario.regions=16 "
        "--set systems.round_policy=async-buffer --set systems.jitter=0.1 "
        "--set rounds=10); values are parsed as JSON, falling back to "
        "strings",
    )
    run_cmd.set_defaults(func=_cmd_run)

    sweep = sub.add_parser(
        "sweep", help="run a grid of experiment cells in parallel, resumably"
    )
    common(sweep)
    scenario_flags(sweep)
    sweep.add_argument(
        "--grid",
        choices=tuple(SWEEP_GRIDS),
        default="smoke",
        help="which declarative grid to expand and run",
    )
    sweep.add_argument(
        "--jobs",
        type=int,
        default=0,
        help="concurrent cells (0 = one per CPU core)",
    )
    sweep.add_argument(
        "--executor",
        choices=SWEEP_EXECUTORS,
        default=None,
        help="how cells run (default: process where fork exists, else thread)",
    )
    sweep.add_argument(
        "--out",
        default="sweep-results",
        help="result-store directory (one JSON per cell, keyed by config hash)",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="reuse cells already in the store instead of recomputing them",
    )
    sweep.add_argument(
        "--export-json",
        help="also write one merged JSON document of every cell result here",
    )
    sweep.set_defaults(func=_cmd_sweep)

    table1 = sub.add_parser("table1", help="regenerate Table 1")
    common(table1)
    table1.set_defaults(func=_cmd_table1)

    table2 = sub.add_parser("table2", help="regenerate Table 2 (analytic)")
    common(table2, preset=False)
    table2.set_defaults(func=_cmd_table2)

    fig2 = sub.add_parser("fig2", help="accuracy vs pruning-percentage sweep")
    common(fig2)
    fig2.set_defaults(func=_cmd_fig2)

    fig3 = sub.add_parser("fig3", help="accuracy vs communication rounds")
    common(fig3)
    fig3.add_argument("--target", type=float, default=0.8, help="accuracy target")
    fig3.set_defaults(func=_cmd_fig3)

    ablate = sub.add_parser("ablate", help="ablate one of Sub-FedAvg's design choices")
    common(ablate)
    ablate.add_argument(
        "--which",
        choices=("aggregation", "gate", "heterogeneity", "partition", "step"),
        default="aggregation",
    )
    ablate.set_defaults(func=_run_ablation)

    report = sub.add_parser("report", help="full reproduction report to markdown")
    common(report)
    report.add_argument("--out", default="report.md", help="output markdown path")
    report.set_defaults(func=_cmd_report)

    serve = sub.add_parser(
        "serve", help="serve one run to wire-attached clients over HTTP"
    )
    common(serve)
    serve.add_argument(
        "--algorithm", choices=available_algorithms(), default="fedavg"
    )
    serve.add_argument(
        "--config", help="serve a serialized FederationConfig JSON file"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8731, help="0 binds an ephemeral port"
    )
    serve.add_argument(
        "--lease-seconds",
        type=float,
        default=60.0,
        help="task lease before a disconnected client's work is re-queued",
    )
    serve.add_argument(
        "--time-scale",
        type=float,
        default=0.0,
        help="simulated seconds per real second of dispatch pacing "
        "(0 = dispatch immediately; needs a systems section)",
    )
    serve.add_argument("--save", help="write the run history JSON here")
    serve.add_argument(
        "--set",
        dest="set_overrides",
        action="append",
        default=[],
        metavar="SECTION.FIELD=VALUE",
        help="override any config field (same syntax as `repro run --set`)",
    )
    serve.set_defaults(func=_cmd_serve)

    client = sub.add_parser(
        "client", help="attach local training clients to a federation server"
    )
    client.add_argument("--url", default="http://127.0.0.1:8731")
    client.add_argument(
        "--clients",
        default=None,
        help="comma-separated client indices to serve (default: any)",
    )
    client.add_argument(
        "--poll-seconds", type=float, default=5.0, help="long-poll duration"
    )
    client.set_defaults(func=_cmd_client)

    loadtest = sub.add_parser(
        "loadtest",
        help="stress the serving path with many concurrent fake clients",
    )
    loadtest.add_argument("--clients", type=int, default=1000)
    loadtest.add_argument("--rounds", type=int, default=2)
    loadtest.add_argument("--seed", type=int, default=0)
    loadtest.add_argument(
        "--poll-seconds", type=float, default=10.0, help="long-poll duration"
    )
    loadtest.add_argument(
        "--timeout", type=float, default=600.0, help="abort after this many seconds"
    )
    loadtest.add_argument("--out", help="write the JSON report here")
    loadtest.set_defaults(func=_cmd_loadtest)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def _cmd_list(args) -> int:
    print("algorithms:")
    for spec in trainer_specs():
        sections = f" (config: {', '.join(spec.config_sections)})" if spec.config_sections else ""
        print(f"  {spec.name:18s} {spec.summary}{sections}")
    print("datasets:")
    for entry in dataset_entries():
        shape = "x".join(str(dim) for dim in entry.spec.shape)
        print(
            f"  {entry.name:18s} {shape}, {entry.spec.num_classes} classes"
            f" — {entry.summary}"
        )
    print("partitioners:")
    for spec in partitioner_specs():
        fields = f" (config: {', '.join(sorted(set(spec.params.values())))})" if spec.params else ""
        print(f"  {spec.name:18s} {spec.summary}{fields}")
    print("samplers:")
    for spec in sampler_specs():
        print(f"  {spec.name:18s} {spec.summary}")
    print("fleets:")
    for spec in fleet_specs():
        print(f"  {spec.name:18s} [{spec.tiers}] {spec.summary}")
    print("round-policies:")
    for spec in round_policy_specs():
        print(f"  {spec.name:18s} {spec.summary}")
    print("presets:")
    for preset in PRESETS.values():
        print(
            f"  {preset.name:18s} {preset.num_clients} clients, "
            f"{preset.rounds} rounds, C={preset.sample_fraction}, "
            f"{preset.n_train}/{preset.n_test} train/test examples"
        )
    return 0


def _resolve_run_config(args) -> FederationConfig:
    if args.config:
        config = FederationConfig.from_json(Path(args.config).read_text())
    else:
        config = federation_config(
            args.dataset, args.algorithm, get_preset(args.preset), seed=args.seed
        )
    overrides = {}
    if getattr(args, "backend", None) is not None:
        overrides["backend"] = args.backend
    if getattr(args, "workers", None) is not None:
        overrides["workers"] = args.workers
    if getattr(args, "partition", None) is not None:
        overrides["data"] = replace(config.data, partition=args.partition)
    scenario_changes = {}
    if getattr(args, "sampler", None) is not None:
        scenario_changes["sampler"] = args.sampler
    if getattr(args, "fleet", None) is not None:
        scenario_changes["fleet"] = args.fleet
    if scenario_changes:
        overrides["scenario"] = replace(config.scenario, **scenario_changes)
    systems = _systems_from_flags(args, config.systems)
    if systems is not None:
        overrides["systems"] = systems
    if overrides:
        config = replace(config, **overrides)
    for assignment in getattr(args, "set_overrides", []):
        config = _apply_set_override(config, assignment)
    return config


def _systems_from_flags(args, current: SystemsConfig | None) -> SystemsConfig | None:
    """Fold ``--round-policy``/``--deadline`` into a ``systems`` section.

    ``--deadline`` alone implies the deadline policy; either flag enables
    fleet simulation on a config that had none.  Returns None when the
    flags leave the config's systems section untouched.
    """
    policy = getattr(args, "round_policy", None)
    deadline = getattr(args, "deadline", None)
    if policy is None and deadline is None:
        return None
    base = current if current is not None else SystemsConfig()
    changes = {}
    if deadline is not None:
        changes["deadline_seconds"] = deadline
        policy = policy or "deadline"
    if policy is not None:
        changes["round_policy"] = policy
    try:
        return replace(base, **changes)
    except (KeyError, ValueError) as error:
        # e.g. --round-policy deadline without --deadline: surface the
        # config validation message as a clean CLI error.
        raise SystemExit(f"--round-policy/--deadline: {error}") from None


def _apply_set_override(config: FederationConfig, assignment: str) -> FederationConfig:
    """Apply one ``--set section.field=value`` (or ``field=value``) override.

    Values are parsed as JSON (``0.1``, ``true``, ``[1, 2]``) with a
    plain-string fallback, so ``--set data.partition=dirichlet`` needs no
    quoting.
    """
    path, sep, raw = assignment.partition("=")
    if not sep:
        raise SystemExit(f"--set expects SECTION.FIELD=VALUE, got {assignment!r}")
    try:
        value = json.loads(raw)
    except ValueError:
        value = raw
    parts = path.split(".")
    try:
        if len(parts) == 1:
            return replace(config, **{parts[0]: value})
        if len(parts) == 2:
            section, fld = parts
            nested = getattr(config, section, None)
            if nested is None:
                raise SystemExit(
                    f"--set cannot reach {path!r}: section {section!r} is unset"
                )
            return replace(config, **{section: replace(nested, **{fld: value})})
    except (TypeError, ValueError, KeyError) as error:
        # Bad field names (TypeError) and rejected values (ValueError /
        # KeyError from config validation) both get the clean CLI error.
        raise SystemExit(f"--set {assignment!r}: {error}") from None
    raise SystemExit(f"--set path {path!r} nests too deep (one dot maximum)")


def _cmd_run(args) -> int:
    config = _resolve_run_config(args)
    if args.export_config:
        Path(args.export_config).write_text(config.to_json())
        print(f"config written to {args.export_config}")
        return 0  # export is a preparation step, not a run
    callbacks = [ProgressLogger()] if args.progress else None
    history = Federation.from_config(config).run(callbacks=callbacks)
    print(f"{config.algorithm} on {config.dataset} ({config.num_clients} clients):")
    print(f"  final personalized accuracy: {history.final_accuracy:.4f}")
    print(f"  total communication: {history.total_communication_gb:.4f} GB")
    if history.total_simulated_seconds is not None:
        from .systems.report import total_stragglers

        print(
            f"  simulated fleet time: {history.total_simulated_seconds:.1f} s "
            f"({config.systems.round_policy if config.systems else 'wall-clock'} "
            f"policy, {total_stragglers(history)} straggler uploads)"
        )
    if args.save:
        save_history(args.save, history)
        print(f"  history saved to {args.save}")
    return 0


#: Named sweep grids: CLI name -> SweepSpec builder over the parsed args.
SWEEP_GRIDS = {
    "smoke": lambda args: smoke_spec(seed=args.seed),
    "table1": lambda args: table1_spec(args.dataset, preset=args.preset, seed=args.seed),
    "fig2": lambda args: fig2_spec(args.dataset, preset=args.preset, seed=args.seed),
    "fig3": lambda args: fig3_spec(args.dataset, preset=args.preset, seed=args.seed),
    "ablate-aggregation": lambda args: aggregation_spec(
        args.dataset, preset=args.preset, seed=args.seed
    ),
    "ablate-gate": lambda args: gate_spec(
        args.dataset, preset=args.preset, seed=args.seed
    ),
    "ablate-heterogeneity": lambda args: heterogeneity_spec(
        args.dataset, preset=args.preset, seed=args.seed
    ),
    "ablate-partition": lambda args: partition_spec(
        args.dataset, preset=args.preset, seed=args.seed
    ),
    "ablate-step": lambda args: pruning_step_spec(
        args.dataset, preset=args.preset, seed=args.seed
    ),
    "fleet": lambda args: fleet_spec(args.dataset, preset=args.preset, seed=args.seed),
}


def _default_sweep_executor() -> str:
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return "process" if "fork" in methods else "thread"


def _cmd_sweep(args) -> int:
    if args.grid == "smoke" and (args.dataset != "mnist" or args.preset != "smoke"):
        print(
            "note: the smoke grid is fixed (mnist+emnist at the smoke preset); "
            "--dataset/--preset are ignored",
            file=sys.stderr,
        )
    spec = SWEEP_GRIDS[args.grid](args)
    # --partition/--sampler/--fleet/--round-policy re-base every cell of
    # the grid on a different scenario (cells that pin their own override
    # still win).
    base = dict(spec.base)
    if args.partition is not None:
        base = merge_overrides(base, partition_override(args.partition))
    if args.sampler is not None:
        base.update(sampler_override(args.sampler))
    if args.fleet is not None:
        scenario = base.get("scenario") or ScenarioConfig()
        base["scenario"] = replace(scenario, fleet=args.fleet)
    systems = _systems_from_flags(args, base.get("systems"))
    if systems is not None:
        base["systems"] = systems
    spec.base = base
    if args.partition is not None:
        pinned = [
            cell.key
            for cell in spec.expand()
            if cell.config.data.partition != args.partition
        ]
        if pinned:
            print(
                f"note: --partition {args.partition} has no effect on "
                f"{len(pinned)} cell(s) of grid {args.grid!r} that pin "
                f"their own partition (e.g. {pinned[0]})",
                file=sys.stderr,
            )
    if args.sampler is not None:
        pinned = [
            cell.key
            for cell in spec.expand()
            if cell.config.scenario.sampler != args.sampler
        ]
        if pinned:
            print(
                f"note: --sampler {args.sampler} has no effect on "
                f"{len(pinned)} cell(s) of grid {args.grid!r} that pin "
                f"their own scenario (e.g. {pinned[0]})",
                file=sys.stderr,
            )
    executor = args.executor or _default_sweep_executor()
    runner = SweepRunner(
        spec,
        store=ResultStore(args.out),
        jobs=args.jobs,
        executor=executor,
        resume=args.resume,
    )
    result = runner.run()
    for cell_result in result.ordered():
        if cell_result.error is not None:
            status = "FAILED"
        elif cell_result.cached:
            status = "cached"
        else:
            status = f"{cell_result.elapsed_seconds:6.1f}s"
        accuracy = (
            f"acc={cell_result.history.final_accuracy:.4f}"
            if cell_result.ok and cell_result.history.final_accuracy is not None
            else ""
        )
        simulated = ""
        if cell_result.ok:
            seconds = cell_result.history.total_simulated_seconds
            if seconds is not None:
                simulated = f" t={seconds:.1f}s"
        print(f"  [{status:>7s}] {cell_result.key} {accuracy}{simulated}")
    print(
        f"sweep {spec.name!r}: executed {len(result.executed)} cells, "
        f"reused {len(result.reused)} cached, {len(result.failed)} failed "
        f"(jobs={runner.jobs}, executor={executor}, store={args.out})"
    )
    if args.export_json:
        Path(args.export_json).write_text(export_results(result.ordered()))
        print(f"merged results exported to {args.export_json}")
    if result.failed:
        for key, error in result.failed.items():
            print(f"--- {key} ---\n{error}", file=sys.stderr)
        return 1
    return 0


def _cmd_table1(args) -> int:
    rows = run_table1(args.dataset, preset=args.preset, seed=args.seed)
    print(format_table1(f"{args.dataset} ({args.preset})", rows))
    return 0


def _cmd_table2(args) -> int:
    print(format_table2(args.dataset, run_table2(args.dataset, seed=args.seed)))
    return 0


def _cmd_fig2(args) -> int:
    points = run_sparsity_sweep(args.dataset, preset=args.preset, seed=args.seed)
    curve = fig2_series(points)
    print(f"Figure 2 — {args.dataset}: mean accuracy vs mean pruning %")
    for sparsity, accuracy in curve:
        print(f"  sparsity {sparsity:.2f} -> accuracy {accuracy:.3f}")
    print(ascii_plot(curve))
    return 0


def _cmd_fig3(args) -> int:
    histories = run_convergence(args.dataset, preset=args.preset, seed=args.seed)
    print(f"Figure 3 — {args.dataset}: accuracy per round")
    for name, curve in fig3_series(histories).items():
        formatted = ", ".join(f"{accuracy:.3f}" for _, accuracy in curve)
        print(f"  {name:14s}: {formatted}")
    print(f"rounds to {args.target:.0%}: {rounds_to_target(histories, args.target)}")
    times = seconds_to_target(histories, args.target)
    if any(seconds is not None for seconds in times.values()):
        # Only meaningful when rounds carry simulated seconds (a
        # systems-configured run or a FleetSimCallback).
        print(f"simulated seconds to {args.target:.0%}: {times}")
    return 0


def _cmd_report(args) -> int:
    from .experiments.report import write_report

    write_report(args.out, datasets=(args.dataset,), preset=args.preset, seed=args.seed)
    print(f"report written to {args.out}")
    return 0


def _run_ablation(args) -> int:
    from .experiments.ablations import (
        ablate_aggregation,
        ablate_heterogeneity,
        ablate_mask_distance_gate,
        ablate_partition,
        ablate_pruning_step,
    )

    if args.which == "heterogeneity":
        table = ablate_heterogeneity(args.dataset, preset=args.preset, seed=args.seed)
        print("alpha | sub-fedavg-un | fedavg")
        for alpha, cell in table.items():
            print(
                f"{alpha:>5} | {cell['sub-fedavg-un']:>13.3f} | {cell['fedavg']:.3f}"
            )
        return 0

    if args.which == "partition":
        table = ablate_partition(args.dataset, preset=args.preset, seed=args.seed)
        print("partition | sub-fedavg-un | fedavg")
        for partition, cell in table.items():
            print(
                f"{partition:>13} | {cell['sub-fedavg-un']:>13.3f} | "
                f"{cell['fedavg']:.3f}"
            )
        return 0

    runner = {
        "aggregation": ablate_aggregation,
        "gate": ablate_mask_distance_gate,
        "step": ablate_pruning_step,
    }[args.which]
    results = runner(args.dataset, preset=args.preset, seed=args.seed)
    print("variant | accuracy | sparsity | comm (GB)")
    for result in results:
        print(
            f"{result.variant} | {result.accuracy:.3f} | "
            f"{result.sparsity:.2f} | {result.communication_gb:.4f}"
        )
    return 0


def _cmd_serve(args) -> int:
    from .serving import FederationServer

    config = _resolve_run_config(args)
    server = FederationServer(
        config,
        host=args.host,
        port=args.port,
        lease_seconds=args.lease_seconds,
        time_scale=args.time_scale,
    ).start()
    print(f"serving {config.algorithm} on {config.dataset} at {server.url}")
    print(
        f"attach clients with: repro client --url {server.url}"
        f" --clients 0,1,...  ({config.num_clients} client indices)"
    )
    try:
        history = server.wait()
        # Give attached clients one long-poll cycle to observe the
        # run-done status before the endpoint disappears.
        time.sleep(2.0)
    except KeyboardInterrupt:
        print("interrupted; stopping server")
        return 130
    finally:
        server.stop()
    print(f"run complete: final accuracy {history.final_accuracy:.4f}")
    if args.save:
        save_history(args.save, history)
        print(f"history written to {args.save}")
    return 0


def _cmd_client(args) -> int:
    from .serving import WireClientRunner

    indices = None
    if args.clients:
        indices = [int(part) for part in args.clients.split(",") if part.strip()]
    runner = WireClientRunner(
        args.url, client_indices=indices, poll_seconds=args.poll_seconds
    )
    served = "any client" if indices is None else f"clients {indices}"
    print(f"attaching to {args.url}, serving {served}")
    completed = runner.run()
    print(f"run complete: {completed} tasks executed")
    return 0


def _cmd_loadtest(args) -> int:
    from .serving.loadtest import run_load_test

    report = run_load_test(
        num_clients=args.clients,
        rounds=args.rounds,
        seed=args.seed,
        poll_seconds=args.poll_seconds,
        timeout=args.timeout,
    )
    payload = report.to_dict()
    print(json.dumps(payload, indent=2))
    if report.failed_clients:
        print(f"WARNING: {report.failed_clients} clients failed", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2))
        print(f"report written to {args.out}", file=sys.stderr)
    return 1 if report.failed_clients else 0


if __name__ == "__main__":
    sys.exit(main())
