"""Classification metrics: accuracy and support-weighted precision, recall,
and F1 from a confusion matrix, with 0/0 ratios defined as 0."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    confusion: np.ndarray   # rows = true class, cols = predicted class

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "confusion": self.confusion.tolist(),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def confusion_matrix(y_true, y_pred, num_classes: int) -> np.ndarray:
    """Counts of (true, predicted) pairs of classes in [0, num_classes)."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


def metrics_from_confusion(cm: np.ndarray) -> MetricsReport:
    cm = np.asarray(cm, dtype=np.int64)
    total = cm.sum()
    support = cm.sum(axis=1)
    predicted = cm.sum(axis=0)
    diag = np.diag(cm).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(predicted > 0, diag / predicted, 0.0)
        recall = np.where(support > 0, diag / support, 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2.0 * precision * recall / pr, 0.0)
    weights = support / total if total else np.zeros_like(support, dtype=float)
    return MetricsReport(
        accuracy=float(diag.sum() / total) if total else 0.0,
        precision=float((precision * weights).sum()),
        recall=float((recall * weights).sum()),
        f1=float((f1 * weights).sum()),
        confusion=cm,
    )


def compute_metrics(y_true, y_pred, num_classes: int) -> MetricsReport:
    return metrics_from_confusion(confusion_matrix(y_true, y_pred, num_classes))
