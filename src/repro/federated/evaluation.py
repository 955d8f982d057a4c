"""Evaluation metrics beyond mean accuracy.

The paper reports "average accuracy across all clients"; a personalization
method's real story also lives in the *distribution* over clients — a
global model can have fine mean accuracy while starving the clients whose
data it underserves (exactly FedAvg's failure mode in Table 1).  This
module holds the repo's one evaluation forward (:func:`predict`, memoized
per process), per-class metrics and a client-fairness report used by the
fairness benchmark.
"""

from __future__ import annotations

import hashlib
import os
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..data.dataset import ArrayDataset, Subset
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


#: Examples per evaluation forward.  Predictions do not depend on it, bit
#: for bit: in eval mode every layer computes each example's logits on
#: their own, whatever else shares the chunk (``Linear`` runs one product
#: per row there; ``tests/models`` checks every registered model).
#: Speed does depend on it.  On the LeNet and CNN5 workloads 16-32
#: examples evaluate fastest, while at 256 LeNet's conv1 im2col buffer
#: alone is 120 MB and evaluation runs 1.2-1.7x slower.
EVAL_CHUNK = 32

#: Distinct models whose predictions the memo keeps per dataset; the least
#: recently used goes first.
MEMO_MODELS = 4


#: root ``ArrayDataset`` -> OrderedDict {model digest: predictions over the
#: root, -1 where not forwarded yet}, least recently used first.
_memo = weakref.WeakKeyDictionary()
_memo_lock = threading.Lock()


def _reset_lock() -> None:
    """A child forked while another thread held the lock gets a free one."""
    global _memo_lock
    _memo_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_lock)


def _model_digest(model) -> bytes:
    """sha256 over ``model``'s class and every parameter and buffer, in place."""
    digest = hashlib.sha256(f"{type(model).__module__}.{type(model).__qualname__}".encode())
    arrays = [(name, param.data) for name, param in model.named_parameters()]
    for name, array in arrays + list(model.named_buffers()):
        digest.update(f"{name}:{array.dtype.str}{array.shape}".encode())
        digest.update(np.ascontiguousarray(array))  # a view unless strided
    return digest.digest()


def _root_rows(dataset):
    """``(root, rows)`` of a ``Subset`` chain over an ``ArrayDataset``."""
    rows = None
    while isinstance(dataset, Subset):
        rows = dataset.indices if rows is None else dataset.indices[rows]
        dataset = dataset.base
    if not isinstance(dataset, ArrayDataset):
        raise TypeError(
            "predict needs an ArrayDataset or a Subset chain over one, "
            f"not {type(dataset).__name__}"
        )
    return dataset, np.arange(len(dataset)) if rows is None else rows


def _forward(model, images: np.ndarray) -> np.ndarray:
    predictions = np.empty(len(images), dtype=np.int64)
    with no_grad():
        for start in range(0, len(images), EVAL_CHUNK):
            chunk = images[start : start + EVAL_CHUNK]
            predictions[start : start + len(chunk)] = (
                model(Tensor(chunk)).data.argmax(axis=1)
            )
    return predictions


def predict(model, dataset) -> np.ndarray:
    """Argmax class of ``model`` for every example of ``dataset``.

    The one evaluation forward of the repo: eval mode, no graph, in chunks
    of :data:`EVAL_CHUNK` examples.  Leaves ``model`` in train mode.

    ``dataset`` is an :class:`ArrayDataset` or a ``Subset`` chain over
    one (what every dataset loader returns); anything else raises
    ``TypeError``.  Predictions are memoized per process, keyed by that
    root (held weakly) and by a sha256 of the model's class, parameters
    and buffers, so clients evaluating the same weights on overlapping
    views forward each example once, and any in-place edit of a weight or
    a batch-norm statistic misses.
    """
    root, rows = _root_rows(dataset)
    model.eval()
    predictions = _memoized(model, root, rows)
    model.train()
    return predictions


def _memoized(model, root: ArrayDataset, rows: np.ndarray) -> np.ndarray:
    key = _model_digest(model)
    with _memo_lock:
        entries = _memo.setdefault(root, OrderedDict())
        predictions = entries.get(key)
        if predictions is None:
            predictions = entries[key] = np.full(len(root), -1, dtype=np.int64)
            if len(entries) > MEMO_MODELS:
                entries.popitem(last=False)
        else:
            entries.move_to_end(key)
        missing = np.unique(rows[predictions[rows] < 0])
    if len(missing):
        # Outside the lock: concurrent forwards of one row agree bit for bit.
        forwarded = _forward(model, root.images[missing])
        with _memo_lock:
            predictions[missing] = forwarded
    with _memo_lock:
        return predictions[rows]


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
