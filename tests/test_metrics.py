"""Weighted metrics against a brute-force per-sample loop oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmamba.metrics import compute_metrics, confusion_matrix, metrics_from_confusion


def brute_force(y_true, y_pred, num_classes):
    """Per-sample loop computation of all four weighted metrics."""
    n = len(y_true)
    acc = sum(1 for t, p in zip(y_true, y_pred) if t == p) / n
    wp = wr = wf = 0.0
    for c in range(num_classes):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        weight = (tp + fn) / n
        wp += weight * precision
        wr += weight * recall
        wf += weight * f1
    return acc, wp, wr, wf


def test_hand_computed_two_class_example():
    # supports (3, 1), every prediction class 0
    y_true = [0, 0, 0, 1]
    y_pred = [0, 0, 0, 0]
    report = compute_metrics(y_true, y_pred, 2)
    assert report.accuracy == pytest.approx(0.75)
    assert report.precision == pytest.approx(0.5625)
    assert report.recall == pytest.approx(0.75)
    assert report.f1 == pytest.approx(0.6429, abs=5e-5)
    np.testing.assert_array_equal(report.confusion, [[3, 0], [1, 0]])


def test_perfect_predictions():
    y = [0, 1, 2, 2, 1]
    report = compute_metrics(y, y, 3)
    assert (report.accuracy, report.precision, report.recall, report.f1) == (1, 1, 1, 1)


def test_single_class_split_accuracy_equals_recall():
    y_true = [1] * 8
    y_pred = [1, 1, 0, 1, 2, 1, 1, 1]
    report = compute_metrics(y_true, y_pred, 3)
    assert report.accuracy == pytest.approx(report.recall)


def test_row_sums_equal_support():
    rng = np.random.default_rng(0)
    y_true = rng.integers(0, 4, 50)
    y_pred = rng.integers(0, 4, 50)
    cm = confusion_matrix(y_true, y_pred, 4)
    np.testing.assert_array_equal(cm.sum(axis=1),
                                  np.bincount(y_true, minlength=4))


def test_metric_ranges():
    rng = np.random.default_rng(1)
    for _ in range(20):
        y_true = rng.integers(0, 3, 30)
        y_pred = rng.integers(0, 3, 30)
        r = compute_metrics(y_true, y_pred, 3)
        for v in (r.accuracy, r.precision, r.recall, r.f1):
            assert 0.0 <= v <= 1.0


def test_brute_force_equivalence_seeded():
    rng = np.random.default_rng(2)
    for _ in range(100):
        C = int(rng.integers(2, 7))
        n = int(rng.integers(1, 60))
        y_true = rng.integers(0, C, n)
        y_pred = rng.integers(0, C, n)
        report = compute_metrics(y_true, y_pred, C)
        acc, wp, wr, wf = brute_force(list(y_true), list(y_pred), C)
        assert report.accuracy == pytest.approx(acc, abs=1e-12)
        assert report.precision == pytest.approx(wp, abs=1e-12)
        assert report.recall == pytest.approx(wr, abs=1e-12)
        assert report.f1 == pytest.approx(wf, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    labels=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    min_size=1, max_size=40),
)
def test_brute_force_equivalence_property(labels):
    y_true = [t for t, _ in labels]
    y_pred = [p for _, p in labels]
    report = compute_metrics(y_true, y_pred, 5)
    acc, wp, wr, wf = brute_force(y_true, y_pred, 5)
    assert report.accuracy == pytest.approx(acc, abs=1e-12)
    assert report.precision == pytest.approx(wp, abs=1e-12)
    assert report.recall == pytest.approx(wr, abs=1e-12)
    assert report.f1 == pytest.approx(wf, abs=1e-12)


def test_metrics_from_random_confusion_matrix():
    rng = np.random.default_rng(3)
    cm = rng.integers(0, 9, (4, 4))
    report = metrics_from_confusion(cm)
    # expand the matrix back into label pairs and cross-check
    y_true, y_pred = [], []
    for i in range(4):
        for j in range(4):
            y_true += [i] * cm[i, j]
            y_pred += [j] * cm[i, j]
    acc, wp, wr, wf = brute_force(y_true, y_pred, 4)
    assert report.accuracy == pytest.approx(acc)
    assert report.f1 == pytest.approx(wf)


def test_report_json_round_trip():
    import json
    report = compute_metrics([0, 1], [0, 1], 2)
    loaded = json.loads(report.to_json())
    assert loaded["accuracy"] == 1.0
    assert loaded["confusion"] == [[1, 0], [0, 1]]
