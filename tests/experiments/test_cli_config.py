"""CLI: the `list` subcommand and serialized-config runs."""

import json

import pytest

from repro.cli import build_parser, main
from repro.federated import (
    TRAINERS,
    DataConfig,
    FederationConfig,
    LocalTrainConfig,
)

#: ``repro list`` output before it printed the codecs: its six registry
#: sections and the presets must keep printing byte for byte.
LIST_SIX_SECTIONS = """\
algorithms:
  fedavg             Classic dense averaging weighted by client example counts.
  fedprox            FedAvg plus a proximal term μ/2·‖w − w_g‖² in the local objective.
  fedavg-ft          FedAvg personalized by a post-hoc local fine-tune (two-step recipe).
  lg-fedavg          Personal representation layers, federated classifier head.
  mtl                Mean-regularized multi-task learning (simplified MOCHA).
  standalone         Purely local training, no communication (the Remark-2 baseline).
  sub-fedavg-un      Algorithm 1: Sub-FedAvg with unstructured pruning only. (config: unstructured)
  sub-fedavg-hy      Algorithm 2: hybrid — structured on convs, unstructured on FC layers. (config: unstructured, structured)
  fedavg-compressed  FedAvg whose uplink carries compressed *updates* instead of states. (config: compression)
datasets:
  mnist              1x28x28, 10 classes — synthetic class-conditional images
  emnist             1x28x28, 26 classes — synthetic class-conditional images
  cifar10            3x32x32, 10 classes — synthetic class-conditional images
  cifar100           3x32x32, 100 classes — synthetic class-conditional images
partitioners:
  shard              label-sorted shards, s random shards per client (paper §4.1) (config: shard_size, shards_per_client)
  dirichlet          Dirichlet(alpha) label skew (Hsu et al. 2019) (config: dirichlet_alpha, max_attempts, min_size)
  iid                uniform random equal split (IID control)
  quantity-skew      IID labels, Dirichlet(alpha) over client dataset sizes (config: min_size, quantity_alpha)
  label-k            each client sees exactly k labels (config: labels_per_client)
samplers:
  uniform            uniform k = max(1, K*N) draw (paper protocol)
  fixed              pinned client subset every round
  availability       per-client participation probabilities + per-round dropout
fleets:
  tiers              heterogeneous device classes assigned round-robin (client_id mod classes, the historical rule)
  uniform            every client is the same device class
  profile-list       explicit per-client device-class names
round-policies:
  synchronous        wait for every participant (paper protocol)
  deadline           close after T seconds; late uploads become 0-weight
  async-buffer       FedBuff-style: first K arrivals, staleness-discounted weights
"""
LIST_PRESETS = """\
presets:
  smoke              8 clients, 4 rounds, C=0.5, 480/240 train/test examples
  small              20 clients, 15 rounds, C=0.3, 2000/600 train/test examples
  paper              100 clients, 500 rounds, C=0.1, 50000/10000 train/test examples
"""


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
    def test_output_golden(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(LIST_SIX_SECTIONS)
        assert out.endswith(LIST_PRESETS)
        added = out[len(LIST_SIX_SECTIONS):-len(LIST_PRESETS)].splitlines()
        assert added[:1] == ["compressors:"]
        assert [line.split()[0] for line in added[1:]] == [
            "identity", "topk", "randommask", "quantize",
        ]

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
        for algorithm in TRAINERS:
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
