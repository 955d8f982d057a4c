"""Trajectory tracking, the report generator and new CLI subcommands."""

import functools

import pytest

from repro.cli import build_parser, main
from repro.experiments import ResultStore, run_fig1_trajectory
from repro.experiments.report import build_report
from repro.federated import FederationConfig, LocalTrainConfig, make_clients
from repro.federated.builder import model_factory
from repro.federated.trainers.subfedavg import SubFedAvgUn, TrajectoryPoint
from repro.pruning import UnstructuredConfig


class TestTrajectoryTracking:
    def make_trainer(self, track):
        config = FederationConfig(
            dataset="mnist", algorithm="sub-fedavg-un", num_clients=3,
            n_train=120, n_test=60, seed=0,
            local=LocalTrainConfig(epochs=1, batch_size=10),
        )
        clients = make_clients(config)
        return SubFedAvgUn(
            clients,
            model_factory(config),
            rounds=2,
            sample_fraction=1.0,
            seed=0,
            unstructured=UnstructuredConfig(
                target_rate=0.5, step=0.25, epsilon=0.0, acc_threshold=0.0
            ),
            track_trajectory=track,
        )

    def test_disabled_by_default(self):
        trainer = self.make_trainer(track=False)
        trainer.run()
        assert trainer.trajectory == []

    def test_points_recorded_per_participant_per_round(self):
        trainer = self.make_trainer(track=True)
        trainer.run()
        assert len(trainer.trajectory) == 2 * 3  # rounds x clients
        assert all(isinstance(point, TrajectoryPoint) for point in trainer.trajectory)

    def test_sparsity_monotone_per_client(self):
        trainer = self.make_trainer(track=True)
        trainer.run()
        per_client = {}
        for point in trainer.trajectory:
            per_client.setdefault(point.client_id, []).append(point.sparsity)
        for series in per_client.values():
            assert all(a <= b + 1e-12 for a, b in zip(series, series[1:]))

    def test_fig1_trajectory_driver(self):
        curves = run_fig1_trajectory("mnist", preset="smoke", seed=0, step=0.2)
        assert curves
        for curve in curves.values():
            assert all(0.0 <= acc <= 1.0 for _, acc in curve)


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    """The mnist smoke report, built once; its cells stay cached in the store."""
    store = ResultStore(tmp_path_factory.mktemp("report-store"))
    text = build_report(datasets=("mnist",), preset="smoke", seed=0, store=store)
    return store, text


class TestReportGenerator:
    def test_builds_markdown(self, smoke_report):
        _, text = smoke_report
        assert "# Sub-FedAvg reproduction report" in text
        assert "Table 1" in text and "Table 2" in text
        assert "Figure 2" in text and "Figure 3" in text

    def test_write_report(self, tmp_path, smoke_report):
        from repro.experiments.report import write_report

        store, expected = smoke_report
        out = tmp_path / "report.md"
        text = write_report(out, datasets=("mnist",), preset="smoke", seed=0, store=store)
        assert out.read_text() == text
        assert text == expected


class TestNewCliCommands:
    def test_ablate_parser(self):
        args = build_parser().parse_args(["ablate", "--which", "gate"])
        assert args.which == "gate"

    def test_ablate_invalid_choice(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablate", "--which", "bogus"])

    def test_ablate_step_command(self, capsys):
        assert main(["ablate", "--which", "step", "--dataset", "mnist"]) == 0
        out = capsys.readouterr().out
        assert "variant" in out and "step=" in out

    def test_report_command(self, capsys, tmp_path, monkeypatch, smoke_report):
        import repro.experiments.report as report

        store, expected = smoke_report
        monkeypatch.setattr(
            report, "build_report", functools.partial(build_report, store=store)
        )
        out_path = tmp_path / "r.md"
        assert main(["report", "--dataset", "mnist", "--out", str(out_path)]) == 0
        assert out_path.exists()
        assert out_path.read_text() == expected
