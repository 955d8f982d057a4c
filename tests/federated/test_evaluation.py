"""Confusion matrices, per-class accuracy, fairness reports and the
evaluation forward with its prediction memo."""

import copy
import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.data import ArrayDataset, Dataset, Subset
from repro.data.partition import ClientData
from repro.federated import (
    DataConfig,
    FairnessReport,
    Federation,
    FederatedClient,
    FederationConfig,
    History,
    LocalTrainConfig,
    confusion_matrix,
    fairness_report,
    model_confusion,
    per_class_accuracy,
    predict,
)
from repro.federated import evaluation
from repro.federated.evaluation import EVAL_CHUNK, MEMO_MODELS
from repro.tensor import Tensor, no_grad


class TestConfusionMatrix:
    def test_counts(self):
        matrix = confusion_matrix(
            predictions=np.array([0, 1, 1, 2]),
            targets=np.array([0, 1, 2, 2]),
            num_classes=3,
        )
        expected = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 1]])
        np.testing.assert_array_equal(matrix, expected)

    def test_total_preserved(self, rng):
        predictions = rng.integers(0, 5, size=100)
        targets = rng.integers(0, 5, size=100)
        matrix = confusion_matrix(predictions, targets, 5)
        assert matrix.sum() == 100

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.zeros(3, dtype=int), np.zeros(4, dtype=int), 2)

    def test_per_class_accuracy(self):
        matrix = np.array([[8, 2], [5, 5]])
        accuracy = per_class_accuracy(matrix)
        np.testing.assert_allclose(accuracy, [0.8, 0.5])

    def test_absent_class_is_nan(self):
        matrix = np.array([[3, 0], [0, 0]])
        accuracy = per_class_accuracy(matrix)
        assert accuracy[0] == 1.0
        assert np.isnan(accuracy[1])

    def test_model_confusion_runs(self, rng, tiny_cnn, blob_dataset):
        matrix = model_confusion(tiny_cnn, blob_dataset, num_classes=3)
        assert matrix.shape == (3, 3)
        assert matrix.sum() == len(blob_dataset)


class TestPredict:
    """Evaluation results do not depend on how the forward is chunked."""

    @pytest.fixture
    def dataset(self, rng):
        count = 2 * EVAL_CHUNK + 5
        images = rng.normal(size=(count, 1, 8, 8))
        labels = rng.integers(0, 3, size=count)
        for k in range(3):
            images[labels == k, 0, k, :] += 1.0
        return ArrayDataset(images, labels)

    @staticmethod
    def client_for(model, dataset):
        indices = np.arange(len(dataset))
        data = ClientData(
            client_id=0,
            train=Subset(dataset, indices),
            val=Subset(dataset, indices[:0]),
            test=Subset(dataset, indices),
            labels=np.arange(3),
        )
        return FederatedClient(data, lambda: model, LocalTrainConfig())

    def test_matches_one_example_at_a_time(self, tiny_cnn, dataset):
        tiny_cnn.eval()
        with no_grad():
            expected = [
                int(tiny_cnn(Tensor(dataset.images[i : i + 1])).data.argmax())
                for i in range(len(dataset))
            ]
        np.testing.assert_array_equal(predict(tiny_cnn, dataset), expected)

    def test_callers_agree_with_predict(self, tiny_cnn, dataset):
        predictions = predict(tiny_cnn, dataset)
        client = self.client_for(tiny_cnn, dataset)
        assert client.evaluate(dataset) == np.mean(predictions == dataset.labels)
        np.testing.assert_array_equal(
            model_confusion(tiny_cnn, dataset, num_classes=3),
            confusion_matrix(predictions, dataset.labels, 3),
        )

    @pytest.mark.parametrize("caller", ["predict", "evaluate", "model_confusion"])
    def test_model_left_in_train_mode(self, tiny_cnn, dataset, caller):
        tiny_cnn.eval()
        if caller == "predict":
            predict(tiny_cnn, dataset)
        elif caller == "evaluate":
            self.client_for(tiny_cnn, dataset).evaluate(dataset)
        else:
            model_confusion(tiny_cnn, dataset, num_classes=3)
        assert tiny_cnn.training

    def test_empty_dataset_scores_zero_without_touching_mode(self, tiny_cnn, dataset):
        client = self.client_for(tiny_cnn, dataset)
        tiny_cnn.eval()
        assert client.evaluate(Subset(dataset, [])) == 0.0
        assert not tiny_cnn.training


def uncached(model, images):
    """Argmax of one full eval-mode forward, outside the memo."""
    model.eval()
    with no_grad():
        predictions = model(Tensor(images)).data.argmax(axis=1)
    model.train()
    return predictions


class TestPredictionMemo:
    """``predict`` forwards each (model, root example) once per process."""

    @pytest.fixture
    def root(self, blob_dataset):
        return blob_dataset

    @pytest.fixture
    def forwarded(self, monkeypatch):
        """Number of examples each forward of ``predict`` ran, in order."""
        counts = []
        original = evaluation._forward

        def counting(model, images):
            counts.append(len(images))
            return original(model, images)

        monkeypatch.setattr(evaluation, "_forward", counting)
        return counts

    def test_matches_uncached_on_every_client_of_a_federation(self):
        federation = Federation.from_config(
            FederationConfig(
                dataset="mnist",
                algorithm="sub-fedavg-un",
                num_clients=4,
                rounds=1,
                sample_fraction=1.0,
                data=DataConfig(n_train=160, n_test=80),
                local=LocalTrainConfig(epochs=1, batch_size=10),
            )
        )
        federation.run()
        for client in federation.clients:
            for view in (client.data.test, client.data.val, client.data.train):
                assert len(view)
                expected = uncached(client.model, view.batch(np.arange(len(view)))[0])
                np.testing.assert_array_equal(predict(client.model, view), expected)
                np.testing.assert_array_equal(predict(client.model, view), expected)

    @pytest.mark.parametrize("edit", ["weight", "running_var"])
    def test_in_place_edit_of_one_element_misses(self, tiny_cnn, root, forwarded, edit):
        view = Subset(root, np.arange(40))
        predict(tiny_cnn, view)
        if edit == "weight":
            tiny_cnn[5].weight.data[0, 0] += 5.0
        else:
            tiny_cnn[1].running_var[0] *= 4.0
        predictions = predict(tiny_cnn, view)
        assert forwarded == [40, 40]
        np.testing.assert_array_equal(predictions, uncached(tiny_cnn, root.images[:40]))

    def test_overlapping_view_forwards_only_new_rows(self, tiny_cnn, root, forwarded):
        first = predict(tiny_cnn, Subset(root, np.arange(0, 40)))
        nested = Subset(Subset(root, np.arange(20, 60)), np.arange(40))
        second = predict(tiny_cnn, nested)
        assert forwarded == [40, 20]
        np.testing.assert_array_equal(first[20:], second[:20])
        np.testing.assert_array_equal(second, uncached(tiny_cnn, root.images[20:60]))

    def test_full_hit_runs_no_forward_and_leaves_train_mode(self, tiny_cnn, root, forwarded):
        view = Subset(root, np.arange(10, 50))
        first = predict(tiny_cnn, view)
        tiny_cnn.eval()
        np.testing.assert_array_equal(predict(tiny_cnn, view), first)
        assert forwarded == [40]
        assert tiny_cnn.training

    def test_view_over_another_root_is_refused(self, tiny_cnn, root, forwarded):
        class ItemDataset(Dataset):
            """Per-item access only, over the same arrays as ``root``."""

            def __len__(self):
                return len(root)

            def __getitem__(self, index):
                return root[index]

            @property
            def labels(self):
                return root.labels

        other = ItemDataset()
        for view in (other, Subset(other, np.arange(30))):
            with pytest.raises(TypeError, match="ItemDataset"):
                predict(tiny_cnn, view)
        assert forwarded == []
        assert tiny_cnn.training

    def test_least_recently_used_model_is_evicted(self, tiny_cnn, root, forwarded):
        view = Subset(root, np.arange(8))
        bias = tiny_cnn[5].bias.data
        original = bias.copy()
        predict(tiny_cnn, view)
        for step in range(1, MEMO_MODELS + 1):  # pushes the first model out
            bias[0] = original[0] + step
            predict(tiny_cnn, view)
        predict(tiny_cnn, view)  # the newest model still hits
        bias[...] = original
        predict(tiny_cnn, view)
        assert forwarded == [8] * (MEMO_MODELS + 2)
        assert len(evaluation._memo[root]) == MEMO_MODELS

    def test_memo_does_not_keep_the_dataset_alive(self, tiny_cnn, rng):
        root = ArrayDataset(rng.normal(size=(12, 1, 8, 8)), rng.integers(0, 3, size=12))
        predict(tiny_cnn, Subset(root, np.arange(6)))
        assert root in evaluation._memo
        alive = weakref.ref(root)
        del root
        gc.collect()
        assert alive() is None

    def test_threads_sharing_the_memo_get_exact_predictions(self, tiny_cnn, root):
        variants = []
        for step in range(MEMO_MODELS + 2):  # more models than the memo keeps
            model = copy.deepcopy(tiny_cnn)
            model[5].bias.data[step % 3] += step
            variants.append((model, uncached(model, root.images)))
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            # Each thread owns its model objects: predict toggles train/eval.
            owned = [(copy.deepcopy(model), expected) for model, expected in variants]
            for _ in range(30):
                model, expected = owned[rng.integers(len(owned))]
                rows = rng.choice(len(root), size=rng.integers(1, 40), replace=False)
                got = predict(model, Subset(root, rows))
                if not np.array_equal(got, expected[rows]):
                    errors.append((seed, rows))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_thread_backend_final_accuracies_equal_serial(self):
        def final(backend):
            config = FederationConfig(
                dataset="mnist",
                algorithm="fedavg",
                num_clients=6,
                rounds=1,
                sample_fraction=0.5,
                data=DataConfig(n_train=240, n_test=120),
                backend=backend,
                workers=2,
                local=LocalTrainConfig(epochs=1, batch_size=10),
            )
            return Federation.from_config(config).run().final_per_client_accuracy

        assert final("thread") == final("serial")


class TestFairnessReport:
    def test_summary_values(self):
        report = FairnessReport.from_accuracies({0: 0.2, 1: 0.8, 2: 1.0, 3: 0.4})
        assert report.mean == pytest.approx(0.6)
        assert report.minimum == 0.2
        assert report.maximum == 1.0
        assert report.below_half == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FairnessReport.from_accuracies({})

    def test_from_history(self):
        history = History(algorithm="x")
        history.final_per_client_accuracy = {0: 0.9, 1: 0.3}
        report = fairness_report(history)
        assert report.below_half == 1

    def test_describe_is_readable(self):
        report = FairnessReport.from_accuracies({0: 0.5})
        text = report.describe()
        assert "mean=" in text and "clients<50%" in text
