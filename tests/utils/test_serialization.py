"""State/mask/history persistence round-trips."""

import json

import numpy as np
import pytest

from repro.federated import History, RoundRecord
from repro.models import create_model
from repro.pruning import MaskSet
from repro.utils import (
    history_to_dict,
    load_history,
    load_mask,
    load_state,
    save_history,
    save_mask,
    save_state,
)


class TestStateRoundTrip:
    def test_exact_roundtrip(self, tmp_path):
        model = create_model("mnist", seed=3)
        path = tmp_path / "state.npz"
        save_state(path, model.state_dict())
        loaded = load_state(path)
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(loaded[name], value)

    def test_loaded_state_restores_model(self, tmp_path):
        model = create_model("mnist", seed=3)
        path = tmp_path / "state.npz"
        save_state(path, model.state_dict())
        other = create_model("mnist", seed=99)
        other.load_state_dict(load_state(path))
        np.testing.assert_array_equal(
            other.conv1.weight.data, model.conv1.weight.data
        )


class TestMaskRoundTrip:
    def test_exact_roundtrip(self, tmp_path):
        mask = MaskSet({"a": np.array([1, 0, 1]), "b": np.zeros((2, 2))})
        path = tmp_path / "mask.npz"
        save_mask(path, mask)
        loaded = load_mask(path)
        assert loaded == mask

    def test_dtype_is_float_after_load(self, tmp_path):
        mask = MaskSet({"a": np.array([1, 0])})
        path = tmp_path / "mask.npz"
        save_mask(path, mask)
        assert load_mask(path)["a"].dtype == np.float64


class TestHistoryRoundTrip:
    def make_history(self):
        history = History(algorithm="sub-fedavg-un")
        history.append(
            RoundRecord(
                round_index=1,
                sampled_clients=[0, 2],
                train_loss=0.5,
                mean_accuracy=0.8,
                mean_sparsity=0.1,
                uploaded_bytes=123.0,
                downloaded_bytes=456.0,
            )
        )
        history.final_accuracy = 0.9
        history.final_per_client_accuracy = {0: 0.85, 2: 0.95}
        return history

    def test_roundtrip(self, tmp_path):
        history = self.make_history()
        path = tmp_path / "history.json"
        save_history(path, history)
        loaded = load_history(path)
        assert loaded.algorithm == history.algorithm
        assert loaded.final_accuracy == history.final_accuracy
        assert loaded.final_per_client_accuracy == history.final_per_client_accuracy
        assert loaded.total_communication_bytes == history.total_communication_bytes
        assert len(loaded.rounds) == 1
        assert loaded.rounds[0].sampled_clients == [0, 2]
        assert loaded.rounds[0].mean_accuracy == 0.8

    def test_client_ids_restored_as_ints(self, tmp_path):
        path = tmp_path / "history.json"
        save_history(path, self.make_history())
        loaded = load_history(path)
        assert all(isinstance(cid, int) for cid in loaded.final_per_client_accuracy)

    def test_wall_clock_seconds_history_keeps_its_time_axis(self, tmp_path):
        """Histories from before ``wall_clock_seconds`` was folded into
        ``simulated_seconds`` load with the same seconds-to-accuracy."""
        history = self.make_history()
        history.append(
            RoundRecord(
                round_index=2, sampled_clients=[0, 2], train_loss=0.4,
                mean_accuracy=0.9, simulated_seconds=4.0,
            )
        )
        payload = history_to_dict(history)
        payload["rounds"][0].update(simulated_seconds=None, wall_clock_seconds=1.5)
        payload["rounds"][1].update(wall_clock_seconds=None)
        path = tmp_path / "history.json"
        path.write_text(json.dumps(payload))
        loaded = load_history(path)
        assert [r.simulated_seconds for r in loaded.rounds] == [1.5, 4.0]
        assert loaded.seconds_to_accuracy(0.8) == 1.5
        assert loaded.seconds_to_accuracy(0.85) == 5.5
