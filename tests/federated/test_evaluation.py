"""Confusion matrices, per-class accuracy and fairness reports."""

import numpy as np
import pytest

from repro.data import ArrayDataset, Subset
from repro.data.partition import ClientData
from repro.federated import (
    FairnessReport,
    FederatedClient,
    History,
    LocalTrainConfig,
    confusion_matrix,
    fairness_report,
    model_confusion,
    per_class_accuracy,
    predict,
)
from repro.federated.evaluation import EVAL_CHUNK
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
