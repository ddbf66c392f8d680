"""Blurring of confidence matrices before they cross between classifiers.

The transform ``exp(exp(k) * p)``, masked to candidates and row-normalized,
contracts the gap between any two confidence values whenever ``k < 0``
while preserving their order. This keeps either classifier from being
dominated by the other's (possibly overconfident) predictions.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

LN2 = math.log(2.0)


def validate_temperature(k: float) -> None:
    """Reject k >= ln 2 (gap amplification); warn on k in [0, ln 2)."""
    if k >= LN2:
        raise ValueError(
            f"blur temperature k={k} >= ln 2 amplifies confidence gaps; use k < 0"
        )
    if k >= 0.0:
        warnings.warn(
            f"blur temperature k={k} >= 0: contraction of confidence gaps "
            "is only guaranteed for k < 0",
            stacklevel=2,
        )


def _normalize_rows(q: np.ndarray, y: np.ndarray) -> np.ndarray:
    if (np.asarray(y).sum(axis=1) == 0).any():
        raise ValueError("cannot blur a row with an empty candidate set")
    return q / q.sum(axis=1, keepdims=True)


def blur_labeling(p: np.ndarray, y: np.ndarray, k: float) -> np.ndarray:
    """Blur a labeling-confidence matrix into row-stochastic supervision.

    Computes ``exp(exp(k) * p)`` element-wise, zeroes non-candidates, and
    normalizes each row to sum to 1.
    """
    p, y = np.asarray(p, float), np.asarray(y, float)
    if p.shape != y.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {y.shape}")
    q = np.exp(math.exp(k) * p) * y
    return _normalize_rows(q, y)


def blur_noncandidate(phat: np.ndarray, y: np.ndarray, k: float) -> np.ndarray:
    """Blur a complement-confidence matrix into candidate-side supervision.

    ``1 - phat`` converts the complement confidence back to a labeling
    confidence before the same transform as :func:`blur_labeling`.
    """
    phat, y = np.asarray(phat, float), np.asarray(y, float)
    if phat.shape != y.shape:
        raise ValueError(f"shape mismatch: {phat.shape} vs {y.shape}")
    q = np.exp(math.exp(k) * (1.0 - phat)) * y
    return _normalize_rows(q, y)
