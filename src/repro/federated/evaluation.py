"""Evaluation metrics beyond mean accuracy.

The paper reports "average accuracy across all clients"; a personalization
method's real story also lives in the *distribution* over clients — a
global model can have fine mean accuracy while starving the clients whose
data it underserves (exactly FedAvg's failure mode in Table 1).  This
module provides per-class metrics and a client-fairness report used by the
fairness benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..data.loader import full_batch
from ..tensor import Tensor, no_grad


def confusion_matrix(
    predictions: np.ndarray, targets: np.ndarray, num_classes: int
) -> np.ndarray:
    """Counts matrix ``M[i, j]`` = examples of true class i predicted j."""
    predictions = np.asarray(predictions)
    targets = np.asarray(targets)
    if predictions.shape != targets.shape:
        raise ValueError("predictions and targets must have the same shape")
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(matrix, (targets, predictions), 1)
    return matrix


def per_class_accuracy(matrix: np.ndarray) -> np.ndarray:
    """Recall per class from a confusion matrix (NaN for absent classes)."""
    totals = matrix.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(totals > 0, np.diag(matrix) / totals, np.nan)


#: Examples per evaluation forward.  Predictions do not depend on it; speed
#: does.  On the LeNet and CNN5 workloads 16-32 examples evaluate fastest,
#: while at 256 LeNet's conv1 im2col buffer alone is 120 MB and evaluation
#: runs 1.2-1.7x slower.
EVAL_CHUNK = 32


def predict(model, dataset) -> np.ndarray:
    """Argmax class of ``model`` for every example of ``dataset``.

    The one evaluation forward of the repo: eval mode, no graph, in chunks
    of :data:`EVAL_CHUNK` examples.  Leaves ``model`` in train mode.
    """
    model.eval()
    images, _ = full_batch(dataset)
    predictions = np.empty(len(images), dtype=np.int64)
    with no_grad():
        for start in range(0, len(images), EVAL_CHUNK):
            chunk = images[start : start + EVAL_CHUNK]
            predictions[start : start + len(chunk)] = (
                model(Tensor(chunk)).data.argmax(axis=1)
            )
    model.train()
    return predictions


def model_confusion(model, dataset, num_classes: int) -> np.ndarray:
    """Confusion matrix of ``model`` over ``dataset`` (eval mode)."""
    return confusion_matrix(predict(model, dataset), dataset.labels, num_classes)


@dataclass(frozen=True)
class FairnessReport:
    """Summary of a per-client accuracy distribution."""

    mean: float
    std: float
    minimum: float
    maximum: float
    percentile_10: float
    percentile_90: float
    below_half: int  # clients under 50% accuracy — the "left behind" count

    @classmethod
    def from_accuracies(cls, accuracies: Mapping[int, float]) -> "FairnessReport":
        if not accuracies:
            raise ValueError("no client accuracies to summarize")
        values = np.asarray(list(accuracies.values()), dtype=np.float64)
        return cls(
            mean=float(values.mean()),
            std=float(values.std()),
            minimum=float(values.min()),
            maximum=float(values.max()),
            percentile_10=float(np.percentile(values, 10)),
            percentile_90=float(np.percentile(values, 90)),
            below_half=int((values < 0.5).sum()),
        )

    def describe(self) -> str:
        return (
            f"mean={self.mean:.3f} std={self.std:.3f} "
            f"min={self.minimum:.3f} p10={self.percentile_10:.3f} "
            f"p90={self.percentile_90:.3f} max={self.maximum:.3f} "
            f"clients<50%: {self.below_half}"
        )


def fairness_report(history) -> FairnessReport:
    """Fairness summary of a finished run's per-client accuracies."""
    return FairnessReport.from_accuracies(history.final_per_client_accuracy)
