"""Benchmarks: the design-choice ablations of ``repro.experiments.ablations``."""

import pytest

from repro.experiments.ablations import (
    ablate_aggregation,
    ablate_heterogeneity,
    ablate_mask_distance_gate,
    ablate_pruning_step,
)


@pytest.mark.benchmark(group="ablations")
def test_aggregation_rule(benchmark, once, capsys):
    results = once(benchmark, ablate_aggregation, "mnist", preset="smoke", seed=0)
    with capsys.disabled():
        print("\nAblation — aggregation rule (intersection vs zero-filling):")
        for result in results:
            print(
                f"  {result.variant:>12}: acc={result.accuracy:.3f} "
                f"sparsity={result.sparsity:.0%}"
            )
    by_name = {result.variant: result for result in results}
    # Zero-filling shrinks rarely-kept personalized coordinates; it must not
    # beat the intersection rule (ties possible at smoke scale).
    assert by_name["intersection"].accuracy >= by_name["zerofill"].accuracy - 0.02


@pytest.mark.benchmark(group="ablations")
def test_mask_distance_gate(benchmark, once, capsys):
    results = once(benchmark, ablate_mask_distance_gate, "mnist", preset="smoke", seed=0)
    with capsys.disabled():
        print("\nAblation — mask-distance gate:")
        for result in results:
            print(
                f"  {result.variant:>18}: acc={result.accuracy:.3f} "
                f"final sparsity={result.sparsity:.0%}"
            )
    # Both settings must complete and produce sane accuracy.
    assert all(0.0 <= result.accuracy <= 1.0 for result in results)
    # The ungated variant prunes at least as deep as the gated one.
    gated, ungated = results
    assert ungated.sparsity >= gated.sparsity - 1e-9


@pytest.mark.benchmark(group="ablations")
def test_heterogeneity_sweep(benchmark, once, capsys):
    table = once(
        benchmark, ablate_heterogeneity, "mnist", alphas=(0.1, 5.0), preset="smoke",
        seed=0,
    )
    with capsys.disabled():
        print("\nAblation — Dirichlet heterogeneity sweep:")
        for alpha, cell in table.items():
            advantage = cell["sub-fedavg-un"] - cell["fedavg"]
            print(
                f"  alpha={alpha:<4}: sub-fedavg={cell['sub-fedavg-un']:.3f} "
                f"fedavg={cell['fedavg']:.3f} (advantage {advantage:+.3f})"
            )
    # Personalization pays off under strong heterogeneity.
    assert table[0.1]["sub-fedavg-un"] >= table[0.1]["fedavg"] - 0.02


@pytest.mark.benchmark(group="ablations")
def test_pruning_step_sensitivity(benchmark, once, capsys):
    results = once(
        benchmark, ablate_pruning_step, "mnist", steps=(0.1, 0.5), preset="smoke",
        seed=0,
    )
    with capsys.disabled():
        print("\nAblation — pruning step r_us sensitivity (target 50%):")
        for result in results:
            print(
                f"  {result.variant}: acc={result.accuracy:.3f} "
                f"sparsity={result.sparsity:.0%} "
                f"comm={result.communication_gb * 1000:.2f} MB"
            )
    # Larger steps reach deeper sparsity within the same round budget.
    assert results[-1].sparsity >= results[0].sparsity - 1e-9
