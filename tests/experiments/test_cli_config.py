"""CLI: the `list` subcommand and serialized-config runs."""

import json

import pytest

from repro.cli import build_parser, main
from repro.federated import (
    DataConfig,
    FederationConfig,
    LocalTrainConfig,
    available_algorithms,
)


def tiny_config_json():
    return FederationConfig(
        dataset="mnist",
        algorithm="fedavg",
        num_clients=3,
        rounds=2,
        sample_fraction=1.0,
        data=DataConfig(n_train=120, n_test=60),
        seed=0,
        local=LocalTrainConfig(epochs=1, batch_size=10),
    ).to_json()


class TestListCommand:
    def test_lists_registries(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "algorithms:" in out
        for name in ("fedavg", "sub-fedavg-un", "sub-fedavg-hy"):
            assert name in out
        assert "datasets:" in out
        assert "cifar10" in out
        assert "presets:" in out
        assert "smoke" in out

    def test_choices_come_from_registry(self):
        parser = build_parser()
        for algorithm in available_algorithms():
            args = parser.parse_args(["run", "--algorithm", algorithm])
            assert args.algorithm == algorithm


class TestConfigRuns:
    def test_run_from_config_file(self, capsys, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(tiny_config_json())
        assert main(["run", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "fedavg on mnist" in out
        assert "final personalized accuracy" in out

    def test_config_with_eager_compute_section_runs(self, capsys, tmp_path):
        """``--export-config`` files that still carry the removed
        ``compute`` section (always eager) run unchanged."""
        payload = json.loads(tiny_config_json())
        payload["compute"] = {"engine": "eager", "runtime": "numpy", "fusion": True}
        legacy_path = tmp_path / "legacy.json"
        legacy_path.write_text(json.dumps(payload))
        current_path = tmp_path / "current.json"
        current_path.write_text(tiny_config_json())
        assert main(["run", "--config", str(legacy_path)]) == 0
        legacy_out = capsys.readouterr().out
        assert main(["run", "--config", str(current_path)]) == 0
        assert "final personalized accuracy" in legacy_out
        assert legacy_out == capsys.readouterr().out

    def test_config_selecting_the_lazy_engine_is_refused(self, tmp_path):
        payload = json.loads(tiny_config_json())
        payload["compute"] = {"engine": "lazy", "runtime": "numpy", "fusion": True}
        config_path = tmp_path / "lazy.json"
        config_path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="lazy compute engine was removed"):
            main(["run", "--config", str(config_path)])

    def test_export_config_round_trips_without_training(self, capsys, tmp_path):
        config_path = tmp_path / "run.json"
        source_path = tmp_path / "source.json"
        source_path.write_text(tiny_config_json())
        assert main(
            ["run", "--config", str(source_path), "--export-config", str(config_path)]
        ) == 0
        restored = FederationConfig.from_json(config_path.read_text())
        assert restored == FederationConfig.from_json(source_path.read_text())
        # export is a preparation step: no federation was trained
        assert "final personalized accuracy" not in capsys.readouterr().out

    def test_export_config_resolves_preset_flags(self, capsys, tmp_path):
        config_path = tmp_path / "run.json"
        assert main(
            ["run", "--dataset", "mnist", "--algorithm", "fedavg",
             "--preset", "smoke", "--export-config", str(config_path)]
        ) == 0
        restored = FederationConfig.from_json(config_path.read_text())
        assert restored.algorithm == "fedavg"
        assert restored.num_clients == 8  # smoke preset sizing

    def test_scenario_flags_and_set_overrides_reach_the_config(self, tmp_path):
        config_path = tmp_path / "run.json"
        assert main(
            ["run", "--dataset", "mnist", "--algorithm", "fedavg",
             "--partition", "dirichlet", "--sampler", "availability",
             "--set", "data.dirichlet_alpha=0.2", "--set", "scenario.dropout=0.1",
             "--set", "rounds=7",
             "--export-config", str(config_path)]
        ) == 0
        restored = FederationConfig.from_json(config_path.read_text())
        assert restored.data.partition == "dirichlet"
        assert restored.data.dirichlet_alpha == 0.2
        assert restored.scenario.sampler == "availability"
        assert restored.scenario.dropout == 0.1
        assert restored.rounds == 7

    def test_bad_set_overrides_exit_cleanly(self):
        for assignment in (
            "data.no_such_field=1",     # unknown field -> TypeError
            "scenario.dropout=1.5",     # rejected value -> ValueError
            "data.partition=bogus",     # unknown registry name -> KeyError
            "malformed",                # no '=' at all
        ):
            with pytest.raises(SystemExit):
                main(["run", "--dataset", "mnist", "--algorithm", "fedavg",
                      "--set", assignment, "--export-config", "/dev/null"])
