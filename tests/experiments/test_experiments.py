"""Experiment drivers: presets, Table 2 exact values, smoke Table 1 / figures."""

import numpy as np
import pytest

from repro.experiments import (
    PRESETS,
    ascii_plot,
    fig1_series,
    fig2_series,
    fig3_series,
    format_table,
    format_table1,
    format_table2,
    rounds_to_target,
    run_convergence,
    run_sparsity_sweep,
    run_table1,
    run_table2,
    uniform_channel_mask,
)
from repro.experiments.figures import SparsitySweepPoint
from repro.models import create_model


class TestPresets:
    def test_all_presets_exist(self):
        assert {"smoke", "small", "paper"} <= set(PRESETS)

    def test_paper_preset_matches_protocol(self):
        preset = PRESETS["paper"]
        assert preset.num_clients == 100
        assert preset.sample_fraction == 0.1
        assert preset.local_epochs == 5

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError):
            PRESETS["huge"]


class TestTable2:
    def test_row_structure(self):
        rows = run_table2("cifar10")
        names = [row.algorithm for row in rows]
        assert "fedavg" in names
        assert any(name.startswith("sub-fedavg-hy") for name in names)

    def test_baselines_have_no_reduction(self):
        rows = run_table2("cifar10")
        for row in rows:
            if not row.algorithm.startswith("sub-fedavg"):
                assert row.flop_reduction == 1.0
                assert row.param_reduction == 0.0

    def test_unstructured_rows_keep_flops(self):
        rows = run_table2("cifar10")
        for row in rows:
            if row.algorithm.startswith("sub-fedavg-un"):
                assert row.flop_reduction == 1.0
                assert row.param_reduction > 0.0

    def test_hybrid_flop_factor_in_paper_range(self):
        """Paper: 2.4x on LeNet-5 with ~half the channels pruned."""
        rows = run_table2("cifar10")
        factors = [
            row.flop_reduction
            for row in rows
            if row.algorithm.startswith("sub-fedavg-hy")
        ]
        assert all(2.0 <= factor <= 3.0 for factor in factors)

    def test_formatting(self):
        text = format_table2("cifar10", run_table2("cifar10"))
        assert "Table 2" in text and "flop" in text

    def test_uniform_channel_mask_keeps_minimum(self):
        model = create_model("cifar10")
        mask = uniform_channel_mask(model, rate=0.99)
        for _, keep in mask.items():
            assert keep.sum() >= 1


class TestTable1Smoke:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_table1("mnist", preset="smoke", seed=0)

    def test_contains_all_algorithms(self, rows):
        names = [row.algorithm for row in rows]
        assert "standalone" in names
        assert "fedavg" in names
        assert "fedprox" in names  # mnist includes fedprox
        assert sum(name.startswith("sub-fedavg-un") for name in names) == 3
        assert sum(name.startswith("sub-fedavg-hy") for name in names) == 3

    def test_accuracies_valid(self, rows):
        assert all(0.0 <= row.accuracy <= 1.0 for row in rows)

    def test_standalone_free(self, rows):
        standalone = next(row for row in rows if row.algorithm == "standalone")
        assert standalone.communication_gb == 0.0

    def test_subfedavg_cheaper_than_fedavg(self, rows):
        fedavg = next(row for row in rows if row.algorithm == "fedavg")
        sub = next(row for row in rows if row.algorithm.startswith("sub-fedavg-un@70"))
        assert sub.communication_gb < fedavg.communication_gb

    def test_formatting(self, rows):
        text = format_table1("mnist", rows)
        assert "Table 1" in text

    def test_cifar_excludes_fedprox_by_default(self):
        rows = run_table1(
            "cifar10", preset="smoke", seed=0, include_fedprox=False
        )
        assert all(row.algorithm != "fedprox" for row in rows)


class TestFigures:
    def test_sparsity_sweep_smoke(self):
        points = run_sparsity_sweep("mnist", targets=(0.0, 0.5), preset="smoke")
        assert len(points) == 2
        assert points[0].achieved_sparsity == 0.0
        assert points[1].achieved_sparsity > 0.0

    def test_fig1_fig2_series_shapes(self):
        points = [
            SparsitySweepPoint(0.0, 0.0, 0.5, {0: 0.4, 1: 0.6}),
            SparsitySweepPoint(0.5, 0.45, 0.7, {0: 0.6, 1: 0.8}),
        ]
        per_client = fig1_series(points, client_ids=[0, 1])
        assert per_client[0] == [(0.0, 0.4), (0.45, 0.6)]
        curve = fig2_series(points)
        assert curve == [(0.0, 0.5), (0.45, 0.7)]

    def test_convergence_and_rounds_to_target(self):
        histories = run_convergence(
            "mnist", algorithms=("fedavg", "sub-fedavg-un"), preset="smoke"
        )
        series = fig3_series(histories)
        assert set(series) == {"fedavg", "sub-fedavg-un"}
        assert all(len(points) > 0 for points in series.values())
        targets = rounds_to_target(histories, target_accuracy=0.0)
        assert all(value == 1 for value in targets.values())

    def test_ascii_plot(self):
        text = ascii_plot([(0.0, 0.1), (0.5, 0.9), (1.0, 0.5)])
        assert "*" in text
        assert ascii_plot([]) == "(empty series)"


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)
