"""Ablation studies on Sub-FedAvg's design choices.

Five ablations, each isolating one mechanism the paper relies on:

* **Aggregation rule** — intersection average vs a naive zero-filling mean.
  Shows why averaging only over keepers matters: zero-filling drags rarely
  kept (i.e. personalized) coordinates toward zero.
* **Mask-distance gate** — the paper's ε-gate vs always-prune.  Measures
  whether gating on first/last-epoch mask drift stabilizes final accuracy.
* **Heterogeneity sweep** — Dirichlet(α) partitions from near-IID to
  pathological.  Sub-FedAvg's advantage over FedAvg should grow as α drops.
* **Pruning-step sensitivity** — per-commit increment r_us from cautious to
  aggressive at a fixed target (the paper iterates 5-10% per event).
* **Partition sweep** — one cell per *registered* partition strategy, so the
  grid automatically widens as partitioners are added (third-party ones
  included): personalization should pay off under the skewed splits and
  wash out under ``iid``.

Scenario axes are declared through the registry-validated helpers in
:mod:`~repro.experiments.presets` (``partition_override``), never as bare
string literals.  Every ablation grid is a
:class:`~repro.experiments.sweep.SweepSpec` executed through the sweep
engine, so cells run in parallel (``jobs=``/``executor=``) and are cached
in a :class:`~repro.experiments.sweep.ResultStore` when one is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..data.registry import available_partitioners
from ..pruning import UnstructuredConfig
from .presets import partition_override
from .sweep import CellResult, ResultStore, SweepSpec, Variant, run_sweep


@dataclass
class AblationResult:
    """One ablation cell."""

    variant: str
    accuracy: float
    sparsity: float
    communication_gb: float


def _ablation_result(result: CellResult) -> AblationResult:
    history = result.history
    return AblationResult(
        variant=result.tags["variant"],
        accuracy=history.final_accuracy or 0.0,
        sparsity=result.extras.get("mean_unstructured_sparsity", 0.0),
        communication_gb=history.total_communication_gb,
    )


def _run_ablation_spec(
    spec: SweepSpec,
    jobs: int = 1,
    executor: str = "serial",
    store: Optional[ResultStore] = None,
) -> List[AblationResult]:
    sweep = run_sweep(spec, store=store, jobs=jobs, executor=executor)
    sweep.raise_failures()
    return [_ablation_result(result) for result in sweep.ordered()]


def aggregation_spec(
    dataset: str = "mnist", preset: str = "smoke", seed: int = 0
) -> SweepSpec:
    """Intersection average vs naive zero-filling mean, as a sweep grid."""
    pruning = UnstructuredConfig(target_rate=0.5, step=0.2)
    return SweepSpec(
        name="ablate-aggregation",
        datasets=(dataset,),
        algorithms=tuple(
            Variant(
                label=aggregator,
                algorithm="sub-fedavg-un",
                unstructured=pruning,
                trainer_overrides={"aggregator": aggregator},
            )
            for aggregator in ("intersection", "zerofill")
        ),
        seeds=(seed,),
        preset=preset,
    )


def ablate_aggregation(
    dataset: str = "mnist",
    preset: str = "smoke",
    seed: int = 0,
    jobs: int = 1,
    executor: str = "serial",
    store: Optional[ResultStore] = None,
) -> List[AblationResult]:
    """Intersection average vs naive zero-filling mean."""
    spec = aggregation_spec(dataset, preset=preset, seed=seed)
    return _run_ablation_spec(spec, jobs=jobs, executor=executor, store=store)


def gate_spec(
    dataset: str = "mnist", preset: str = "smoke", seed: int = 0
) -> SweepSpec:
    """The ε mask-distance gate vs pruning unconditionally (ε = 0)."""
    return SweepSpec(
        name="ablate-gate",
        datasets=(dataset,),
        algorithms=tuple(
            Variant(
                label=label,
                algorithm="sub-fedavg-un",
                unstructured=UnstructuredConfig(
                    target_rate=0.5, step=0.2, epsilon=epsilon
                ),
            )
            for label, epsilon in (("gated (paper eps)", 1e-4), ("ungated (eps=0)", 0.0))
        ),
        seeds=(seed,),
        preset=preset,
    )


def ablate_mask_distance_gate(
    dataset: str = "mnist",
    preset: str = "smoke",
    seed: int = 0,
    jobs: int = 1,
    executor: str = "serial",
    store: Optional[ResultStore] = None,
) -> List[AblationResult]:
    """The ε mask-distance gate vs pruning unconditionally (ε = 0)."""
    spec = gate_spec(dataset, preset=preset, seed=seed)
    return _run_ablation_spec(spec, jobs=jobs, executor=executor, store=store)


def heterogeneity_spec(
    dataset: str = "mnist",
    alphas: Sequence[float] = (0.1, 0.5, 5.0),
    preset: str = "smoke",
    seed: int = 0,
) -> SweepSpec:
    """Dirichlet(α) × {Sub-FedAvg, FedAvg} as a two-axis sweep grid."""
    return SweepSpec(
        name="ablate-heterogeneity",
        datasets=(dataset,),
        algorithms=(
            Variant(
                label="sub-fedavg-un",
                algorithm="sub-fedavg-un",
                unstructured=UnstructuredConfig(target_rate=0.5, step=0.2),
            ),
            "fedavg",
        ),
        seeds=(seed,),
        preset=preset,
        overrides={
            f"alpha={alpha:g}": partition_override("dirichlet", dirichlet_alpha=alpha)
            for alpha in alphas
        },
    )


def ablate_heterogeneity(
    dataset: str = "mnist",
    alphas: Sequence[float] = (0.1, 0.5, 5.0),
    preset: str = "smoke",
    seed: int = 0,
    jobs: int = 1,
    executor: str = "serial",
    store: Optional[ResultStore] = None,
) -> Dict[float, Dict[str, float]]:
    """Dirichlet(α) sweep: Sub-FedAvg vs FedAvg accuracy per heterogeneity level.

    Returns ``{alpha: {"sub-fedavg-un": acc, "fedavg": acc}}``.
    """
    spec = heterogeneity_spec(dataset, alphas=alphas, preset=preset, seed=seed)
    sweep = run_sweep(spec, store=store, jobs=jobs, executor=executor)
    sweep.raise_failures()
    results: Dict[float, Dict[str, float]] = {alpha: {} for alpha in alphas}
    for result in sweep.ordered():
        alpha = result.config.data.dirichlet_alpha
        results[alpha][result.tags["variant"]] = (
            result.history.final_accuracy or 0.0
        )
    return results


def partition_spec(
    dataset: str = "mnist",
    partitions: Optional[Sequence[str]] = None,
    preset: str = "smoke",
    seed: int = 0,
) -> SweepSpec:
    """Sub-FedAvg vs FedAvg across every registered partition strategy.

    ``partitions`` defaults to the full partitioner registry, so the grid
    grows automatically when a new strategy (builtin or third-party) is
    registered — no edits here.
    """
    names: Tuple[str, ...] = (
        tuple(partitions) if partitions is not None else available_partitioners()
    )
    return SweepSpec(
        name="ablate-partition",
        datasets=(dataset,),
        algorithms=(
            Variant(
                label="sub-fedavg-un",
                algorithm="sub-fedavg-un",
                unstructured=UnstructuredConfig(target_rate=0.5, step=0.2),
            ),
            "fedavg",
        ),
        seeds=(seed,),
        preset=preset,
        overrides={name: partition_override(name) for name in names},
    )


def ablate_partition(
    dataset: str = "mnist",
    partitions: Optional[Sequence[str]] = None,
    preset: str = "smoke",
    seed: int = 0,
    jobs: int = 1,
    executor: str = "serial",
    store: Optional[ResultStore] = None,
) -> Dict[str, Dict[str, float]]:
    """Accuracy per (partition strategy × algorithm).

    Returns ``{partition: {"sub-fedavg-un": acc, "fedavg": acc}}`` over the
    registered partitioners (or the explicit ``partitions`` subset).
    """
    spec = partition_spec(dataset, partitions=partitions, preset=preset, seed=seed)
    sweep = run_sweep(spec, store=store, jobs=jobs, executor=executor)
    sweep.raise_failures()
    results: Dict[str, Dict[str, float]] = {}
    for result in sweep.ordered():
        partition = result.tags["override"]
        results.setdefault(partition, {})[result.tags["variant"]] = (
            result.history.final_accuracy or 0.0
        )
    return results


def pruning_step_spec(
    dataset: str = "mnist",
    steps: Sequence[float] = (0.05, 0.1, 0.25, 0.5),
    preset: str = "smoke",
    seed: int = 0,
) -> SweepSpec:
    """Sensitivity to the per-commit pruning increment r_us."""
    return SweepSpec(
        name="ablate-step",
        datasets=(dataset,),
        algorithms=tuple(
            Variant(
                label=f"step={step:.2f}",
                algorithm="sub-fedavg-un",
                unstructured=UnstructuredConfig(
                    target_rate=0.5, step=step, epsilon=0.0
                ),
            )
            for step in steps
        ),
        seeds=(seed,),
        preset=preset,
    )


def ablate_pruning_step(
    dataset: str = "mnist",
    steps: Sequence[float] = (0.05, 0.1, 0.25, 0.5),
    preset: str = "smoke",
    seed: int = 0,
    jobs: int = 1,
    executor: str = "serial",
    store: Optional[ResultStore] = None,
) -> List[AblationResult]:
    """Sensitivity to the per-commit pruning increment r_us."""
    spec = pruning_step_spec(dataset, steps=steps, preset=preset, seed=seed)
    return _run_ablation_spec(spec, jobs=jobs, executor=executor, store=store)
