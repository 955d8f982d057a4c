"""Figure reproductions: accuracy-vs-sparsity (Figs 1-2) and convergence (Fig 3).

Figure 1 — per-client test accuracy against the client's achieved pruning
percentage under Sub-FedAvg (Un), iterating 5-10% per pruning event.

Figure 2 — the same sweep averaged over all clients, for CIFAR-10, MNIST
and EMNIST: accuracy rises with moderate sparsity (common parameters
removed) and degrades past ~50% (personal parameters start to go).

Figure 3 — mean personalized accuracy against communication round for
Sub-FedAvg (Un) vs FedAvg / LG-FedAvg / MTL.  Its time axis
(:func:`fig3_time_series`, :func:`seconds_to_target`) reads the
``simulated_seconds`` the fleet simulator stamps on each round.

Each figure's grid is declared as a
:class:`~repro.experiments.sweep.SweepSpec` (:func:`fig2_spec`,
:func:`fig3_spec`) and rendered from sweep results, so the sweeps run in
parallel (``jobs=``/``executor=``) and resume from a result store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..federated import History
from ..pruning import UnstructuredConfig
from ..systems.report import (
    compare_simulated_time_to_accuracy,
    simulated_time_curve,
)
from .sweep import ResultStore, SweepSpec, Variant, run_sweep


#: Mask distances are normalized to [0, 1], so a gate of 2.0 can never
#: pass — the dense-reference "never prune" config in a finite form that
#: stays strict-JSON portable (``Infinity`` is not valid RFC 8259 JSON,
#: and the result store / CI artifact must parse outside Python).
DENSE_GATE_EPSILON = 2.0


@dataclass
class SparsitySweepPoint:
    """One sweep cell: a target pruning rate and the resulting accuracies."""

    target_rate: float
    achieved_sparsity: float
    mean_accuracy: float
    per_client_accuracy: Dict[int, float] = field(default_factory=dict)


def fig2_spec(
    dataset: str,
    targets: Sequence[float] = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9),
    preset: str = "smoke",
    seed: int = 0,
    step: float = 0.1,
) -> SweepSpec:
    """Declare the Figures 1-2 target-rate grid as a sweep."""
    variants = []
    for target in targets:
        if target == 0.0:
            # Dense reference = Sub-FedAvg with a never-passing gate.
            config = UnstructuredConfig(
                target_rate=0.0, step=step, epsilon=DENSE_GATE_EPSILON
            )
        else:
            config = UnstructuredConfig(target_rate=target, step=step)
        variants.append(
            Variant(
                label=f"sub-fedavg-un@{int(target * 100)}",
                algorithm="sub-fedavg-un",
                unstructured=config,
                tags={"target_rate": target},
            )
        )
    return SweepSpec(
        name="fig2",
        datasets=(dataset,),
        algorithms=variants,
        seeds=(seed,),
        preset=preset,
    )


def run_sparsity_sweep(
    dataset: str,
    targets: Sequence[float] = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9),
    preset: str = "smoke",
    seed: int = 0,
    step: float = 0.1,
    jobs: int = 1,
    executor: str = "serial",
    store: Optional[ResultStore] = None,
) -> List[SparsitySweepPoint]:
    """Figures 1-2 backbone: Sub-FedAvg (Un) across target pruning rates."""
    spec = fig2_spec(dataset, targets=targets, preset=preset, seed=seed, step=step)
    sweep = run_sweep(spec, store=store, jobs=jobs, executor=executor)
    sweep.raise_failures()
    points: List[SparsitySweepPoint] = []
    for result in sweep.ordered():
        history = result.history
        achieved = history.rounds[-1].mean_sparsity if history.rounds else 0.0
        points.append(
            SparsitySweepPoint(
                target_rate=result.tags["target_rate"],
                achieved_sparsity=achieved,
                mean_accuracy=history.final_accuracy or 0.0,
                per_client_accuracy=dict(history.final_per_client_accuracy),
            )
        )
    return points


def fig1_series(
    points: List[SparsitySweepPoint], client_ids: Sequence[int]
) -> Dict[int, List[Tuple[float, float]]]:
    """Per-client (sparsity, accuracy) curves for the sampled clients."""
    series: Dict[int, List[Tuple[float, float]]] = {cid: [] for cid in client_ids}
    for point in points:
        for cid in client_ids:
            if cid in point.per_client_accuracy:
                series[cid].append(
                    (point.achieved_sparsity, point.per_client_accuracy[cid])
                )
    return series


def fig2_series(points: List[SparsitySweepPoint]) -> List[Tuple[float, float]]:
    """(mean sparsity, mean accuracy) — the Figure 2 curve for one dataset."""
    return [(point.achieved_sparsity, point.mean_accuracy) for point in points]


def fig1_spec(
    dataset: str = "cifar10",
    preset: str = "smoke",
    seed: int = 0,
    target_rate: float = 0.7,
    step: float = 0.08,
) -> SweepSpec:
    """Declare the Figure 1 trajectory run (a single tracked cell)."""
    return SweepSpec(
        name="fig1",
        datasets=(dataset,),
        algorithms=(
            Variant(
                label=f"sub-fedavg-un@{int(target_rate * 100)}",
                algorithm="sub-fedavg-un",
                unstructured=UnstructuredConfig(target_rate=target_rate, step=step),
                trainer_overrides={"track_trajectory": True},
            ),
        ),
        seeds=(seed,),
        preset=preset,
    )


def run_fig1_trajectory(
    dataset: str = "cifar10",
    preset: str = "smoke",
    seed: int = 0,
    target_rate: float = 0.7,
    step: float = 0.08,
    store: Optional[ResultStore] = None,
) -> Dict[int, List[Tuple[float, float]]]:
    """Figure 1 in its literal form: per-client in-run pruning trajectories.

    One Sub-FedAvg (Un) run with trajectory tracking: every participating
    client logs (achieved sparsity, test accuracy) after each local update,
    with the paper's 5-10%-per-iteration schedule (``step`` defaults to 8%).
    Returns client id → chronological (sparsity, accuracy) curve.
    """
    spec = fig1_spec(
        dataset, preset=preset, seed=seed, target_rate=target_rate, step=step
    )
    sweep = run_sweep(spec, store=store)
    sweep.raise_failures()
    (result,) = sweep.ordered()

    curves: Dict[int, List[Tuple[float, float]]] = {}
    for point in result.extras.get("trajectory", []):
        curves.setdefault(point["client_id"], []).append(
            (point["sparsity"], point["test_accuracy"])
        )
    return curves


def fig3_spec(
    dataset: str,
    algorithms: Sequence[str] = ("sub-fedavg-un", "fedavg", "lg-fedavg", "mtl"),
    preset: str = "smoke",
    seed: int = 0,
) -> SweepSpec:
    """Declare the Figure 3 convergence grid (per-round evaluation)."""
    return SweepSpec(
        name="fig3",
        datasets=(dataset,),
        algorithms=tuple(algorithms),
        seeds=(seed,),
        preset=preset,
        base={"eval_every": 1},
    )


def run_convergence(
    dataset: str,
    algorithms: Sequence[str] = ("sub-fedavg-un", "fedavg", "lg-fedavg", "mtl"),
    preset: str = "smoke",
    seed: int = 0,
    jobs: int = 1,
    executor: str = "serial",
    store: Optional[ResultStore] = None,
) -> Dict[str, History]:
    """Figure 3 backbone: per-round accuracy curves for each algorithm."""
    spec = fig3_spec(dataset, algorithms=algorithms, preset=preset, seed=seed)
    sweep = run_sweep(spec, store=store, jobs=jobs, executor=executor)
    sweep.raise_failures()
    return {
        result.tags["variant"]: result.history for result in sweep.ordered()
    }


def fig3_series(histories: Dict[str, History]) -> Dict[str, List[Tuple[int, float]]]:
    """Algorithm → (round, mean accuracy) series."""
    return {name: history.accuracy_curve() for name, history in histories.items()}


def rounds_to_target(
    histories: Dict[str, History], target_accuracy: float
) -> Dict[str, object]:
    """Rounds each algorithm needed to reach ``target_accuracy`` (None = never).

    Quantifies the paper's §4.2.2 claim of 2-10× fewer rounds.
    """
    return {
        name: history.rounds_to_accuracy(target_accuracy)
        for name, history in histories.items()
    }


def fig3_time_series(
    histories: Dict[str, History],
) -> Dict[str, List[Tuple[float, float]]]:
    """Algorithm → (cumulative simulated seconds, mean accuracy) series.

    The Figure-3 curves re-based onto the deployment-relevant time axis:
    rounds priced by the fleet simulator (``simulated_seconds``, stamped
    by a ``systems``-configured run or a
    :class:`~repro.systems.callback.FleetSimCallback`).
    """
    return {
        name: simulated_time_curve(history) for name, history in histories.items()
    }


def seconds_to_target(
    histories: Dict[str, History], target_accuracy: float
) -> Dict[str, object]:
    """Simulated seconds each algorithm needed to reach the target.

    The time-axis twin of :func:`rounds_to_target` (a thin alias for
    :func:`repro.systems.report.compare_simulated_time_to_accuracy`):
    under a deadline or async round policy an algorithm can win on
    seconds while losing on rounds (more rounds, but each one far
    cheaper).
    """
    return compare_simulated_time_to_accuracy(histories, target_accuracy)


def ascii_plot(series: List[Tuple[float, float]], width: int = 50, height: int = 12) -> str:
    """Tiny ASCII line plot for terminal-only environments."""
    if not series:
        return "(empty series)"
    xs = np.array([point[0] for point in series], dtype=float)
    ys = np.array([point[1] for point in series], dtype=float)
    x_min, x_max = xs.min(), xs.max()
    y_min, y_max = ys.min(), ys.max()
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y in zip(xs, ys):
        col = int((x - x_min) / x_span * (width - 1))
        row = height - 1 - int((y - y_min) / y_span * (height - 1))
        grid[row][col] = "*"
    lines = ["".join(row) for row in grid]
    lines.append(f"x: [{x_min:.2f}, {x_max:.2f}]  y: [{y_min:.3f}, {y_max:.3f}]")
    return "\n".join(lines)
