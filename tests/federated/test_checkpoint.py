"""Checkpoint/resume for long runs."""

import pickle

import numpy as np
import pytest

from repro.federated import (
    DataConfig,
    FedAvg,
    FederationConfig,
    LocalTrainConfig,
    load_checkpoint,
    CheckpointCallback,
    make_clients,
    save_checkpoint,
)
from repro.federated.builder import build_trainer, model_factory
from repro.pruning import UnstructuredConfig


def make_config(algorithm="sub-fedavg-un", rounds=4, **overrides):
    fields = dict(
        dataset="mnist", algorithm=algorithm, num_clients=3,
        rounds=rounds, sample_fraction=1.0, seed=0,
        data=DataConfig(n_train=120, n_test=60),
        local=LocalTrainConfig(epochs=1, batch_size=10),
        unstructured=UnstructuredConfig(
            target_rate=0.5, step=0.25, epsilon=0.0, acc_threshold=0.0
        ) if algorithm.startswith("sub-fedavg") else None,
    )
    fields.update(overrides)
    return FederationConfig(**fields)


def make_trainer(config):
    return build_trainer(config, make_clients(config))


class TestSaveLoad:
    def test_roundtrip_restores_global_state(self, tmp_path):
        config = make_config()
        trainer = make_trainer(config)
        trainer._round(1, trainer.sampler.sample())
        path = tmp_path / "ckpt.pkl"
        save_checkpoint(path, trainer, completed_rounds=1)

        fresh = make_trainer(make_config())
        completed = load_checkpoint(path, fresh)
        assert completed == 1
        for name, value in trainer.global_state.items():
            np.testing.assert_array_equal(fresh.global_state[name], value)

    def test_restores_masks_and_rates(self, tmp_path):
        config = make_config()
        trainer = make_trainer(config)
        trainer._round(1, trainer.sampler.sample())
        path = tmp_path / "ckpt.pkl"
        save_checkpoint(path, trainer, 1)

        fresh = make_trainer(make_config())
        load_checkpoint(path, fresh)
        for old, new in zip(trainer.clients, fresh.clients):
            assert new.controller.un_rate == old.controller.un_rate
            assert new.controller.un_mask == old.controller.un_mask

    @pytest.mark.parametrize("algorithm", ["sub-fedavg-un", "sub-fedavg-hy"])
    def test_bounded_pool_keeps_every_restored_client(self, tmp_path, algorithm):
        """Restoring writes state the pool cannot see (no RNG stream
        moves); a cache smaller than the population must still spill it
        instead of dropping it on eviction."""
        config = make_config(
            algorithm,
            num_clients=6,
            data=DataConfig(n_train=240, n_test=120),
            client_cache=2,
        )
        trainer = make_trainer(config)
        trainer._round(1, trainer.sampler.sample())
        saved = [client.controller.un_rate for client in trainer.clients]
        assert saved == [0.25] * 6  # every client committed one prune step
        path = tmp_path / "ckpt.pkl"
        save_checkpoint(path, trainer, 1)

        fresh = make_trainer(config)
        load_checkpoint(path, fresh)
        assert [client.controller.un_rate for client in fresh.clients] == saved
        for old, new in zip(trainer.clients, fresh.clients):
            assert new.controller.un_mask == old.controller.un_mask
            for name, value in old.model.state_dict().items():
                np.testing.assert_array_equal(new.model.state_dict()[name], value)

    @pytest.mark.parametrize("algorithm", ["sub-fedavg-un", "sub-fedavg-hy"])
    def test_resume_seeds_mean_sparsities(self, tmp_path, algorithm):
        config = make_config(
            algorithm, num_clients=6, data=DataConfig(n_train=240, n_test=120)
        )
        trainer = make_trainer(config)
        trainer._round(1, [0, 2, 3])
        path = tmp_path / "ckpt.pkl"
        save_checkpoint(path, trainer, 1)

        fresh = make_trainer(config)
        load_checkpoint(path, fresh)
        scan = [c.controller.unstructured_sparsity() for c in fresh.clients]
        channel_scan = [c.controller.channel_sparsity() for c in fresh.clients]
        assert fresh.mean_unstructured_sparsity() == float(np.mean(scan)) > 0
        assert fresh.mean_channel_sparsity() == float(np.mean(channel_scan))
        assert fresh.mean_unstructured_sparsity() == trainer.mean_unstructured_sparsity()
        assert fresh.mean_channel_sparsity() == trainer.mean_channel_sparsity()

    def test_algorithm_mismatch_rejected(self, tmp_path):
        trainer = make_trainer(make_config())
        path = tmp_path / "ckpt.pkl"
        save_checkpoint(path, trainer, 1)
        other = make_trainer(make_config(algorithm="fedavg"))
        with pytest.raises(ValueError, match="checkpoint is for"):
            load_checkpoint(path, other)

    def test_client_mismatch_rejected(self, tmp_path):
        trainer = make_trainer(make_config())
        path = tmp_path / "ckpt.pkl"
        save_checkpoint(path, trainer, 1)
        config = FederationConfig(
            dataset="mnist", algorithm="sub-fedavg-un", num_clients=5,
            data=DataConfig(n_train=200, n_test=60), seed=0,
            local=LocalTrainConfig(epochs=1),
            unstructured=UnstructuredConfig(),
        )
        other = make_trainer(config)
        with pytest.raises(ValueError, match="client ids"):
            load_checkpoint(path, other)


class TestRunWithCheckpoints:
    """Whole runs driven by :class:`CheckpointCallback`."""

    def test_completes_and_checkpoints(self, tmp_path):
        trainer = make_trainer(make_config(rounds=4))
        path = tmp_path / "ckpt.pkl"
        history = trainer.run(callbacks=[CheckpointCallback(path, every=2)])
        assert len(history.rounds) == 4
        assert history.final_accuracy is not None
        assert path.exists()

    def test_resume_skips_completed_rounds(self, tmp_path):
        path = tmp_path / "ckpt.pkl"
        # Run the first half and checkpoint.
        first = make_trainer(make_config(rounds=2))
        first.run(callbacks=[CheckpointCallback(path, every=1)])

        # Resume into a 4-round trainer: only rounds 3-4 should execute.
        resumed = make_trainer(make_config(rounds=4))
        history = resumed.run(callbacks=[CheckpointCallback(path, every=1)])
        assert len(history.rounds) == 4
        assert history.rounds[0].round_index == 1  # restored from checkpoint
        assert history.rounds[-1].round_index == 4

    def test_no_resume_starts_fresh(self, tmp_path):
        path = tmp_path / "ckpt.pkl"
        first = make_trainer(make_config(rounds=2))
        first.run(callbacks=[CheckpointCallback(path, every=1)])
        fresh = make_trainer(make_config(rounds=2))
        history = fresh.run(callbacks=[CheckpointCallback(path, every=1, resume=False)])
        assert len(history.rounds) == 2

    def test_resumes_a_history_with_wall_clock_seconds(self, tmp_path):
        """Checkpoints pickled before ``wall_clock_seconds`` was folded into
        ``simulated_seconds`` still resume, keeping their seconds."""
        path = tmp_path / "ckpt.pkl"
        first = make_trainer(make_config(rounds=2))
        first.run(callbacks=[CheckpointCallback(path, every=1)])
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        history = payload["history"]
        history["final_per_client_accuracy"] = {
            int(cid): acc for cid, acc in history["final_per_client_accuracy"].items()
        }
        for seconds, record in zip((1.25, 2.5), history["rounds"]):
            record.update(simulated_seconds=None, wall_clock_seconds=seconds)
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)

        resumed = make_trainer(make_config(rounds=4))
        result = resumed.run(callbacks=[CheckpointCallback(path, every=1)])
        assert [r.round_index for r in result.rounds] == [1, 2, 3, 4]
        assert [r.simulated_seconds for r in result.rounds[:2]] == [1.25, 2.5]
