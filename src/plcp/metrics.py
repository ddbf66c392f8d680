"""Evaluation metrics: accuracy and correction ratios."""

from __future__ import annotations

import numpy as np


def accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of exact label matches."""
    if truth is None or np.size(truth) == 0:
        raise ValueError("ground truth required for accuracy")
    pred, truth = np.asarray(pred), np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError("prediction and truth must have equal length")
    return float(np.mean(pred == truth))


def correction_metrics(
    base_labels: np.ndarray, plcp_labels: np.ndarray, truth: np.ndarray
) -> tuple[float, float]:
    """How many base mistakes the coupled run fixes, and how many it causes.

    Returns ``(correction_ratio, miscorrection_ratio)``: corrected samples
    over base mistakes, and newly broken samples over base successes. An
    empty denominator yields 0.
    """
    base_labels = np.asarray(base_labels)
    plcp_labels = np.asarray(plcp_labels)
    truth = np.asarray(truth)
    if not base_labels.shape == plcp_labels.shape == truth.shape:
        raise ValueError("label vectors must have equal length")
    base_wrong = base_labels != truth
    base_right = ~base_wrong
    corrected = base_wrong & (plcp_labels == truth)
    broken = base_right & (plcp_labels != truth)
    correction = corrected.sum() / base_wrong.sum() if base_wrong.any() else 0.0
    miscorrection = broken.sum() / base_right.sum() if base_right.any() else 0.0
    return float(correction), float(miscorrection)

