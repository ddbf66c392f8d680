"""Base candidate-side classifiers consuming blurred supervision.

Two bases cover the coupling paths the mutual-supervision loop must
support: neighbor averaging of supervision rows (confidence-friendly
PL-KNN) and a kernel least-squares regression onto the supervision, which
shares the partner's dual solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from . import kernel
from .core import PartialLabelDataset

KINDS = ("pl-knn", "kernel-ls")


@dataclass(frozen=True)
class BaseClassifierKind:
    """Which base classifier to run and its parameters.

    ``binarize`` switches the supervision fed to the base to the 0/1 mask
    ``indicator(ohat >= p)``, for bases that expect candidate masks rather
    than confidences. Off by default: both built-in bases consume
    confidences directly.
    """

    kind: str = "pl-knn"
    k_neighbors: int = 10
    kernel: kernel.KernelSpec = field(default_factory=kernel.KernelSpec)
    binarize: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown base classifier {self.kind!r}; use one of {KINDS}")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be positive")


def _knn_average(
    supervision: np.ndarray, distances: np.ndarray, k_neighbors: int
) -> np.ndarray:
    # stable sort keeps tie handling deterministic: lower index wins
    order = np.argsort(distances, axis=1, kind="stable")[:, :k_neighbors]
    return supervision[order].mean(axis=1)


def fit_predict_base(
    kind: BaseClassifierKind,
    dataset: PartialLabelDataset,
    supervision: np.ndarray,
    gram: np.ndarray | None = None,
) -> np.ndarray:
    """Train-side modeling output of the base under the given supervision.

    PL-KNN averages the supervision rows of each sample's nearest
    neighbors (self excluded) and masks the result by the candidate set;
    the blend/clamp step downstream handles normalization. The kernel
    least-squares base returns the ridge regression output onto the
    supervision.
    """
    supervision = np.asarray(supervision, float)
    if supervision.shape != dataset.candidates.shape:
        raise ValueError("supervision shape must match the candidate matrix")
    if kind.kind == "pl-knn":
        n = dataset.n_samples
        if kind.k_neighbors >= n:
            raise ValueError(
                f"k_neighbors={kind.k_neighbors} must be below the sample count {n}"
            )
        distances = cdist(dataset.features, dataset.features)
        np.fill_diagonal(distances, np.inf)
        return _knn_average(supervision, distances, kind.k_neighbors) * dataset.candidates
    if gram is None:
        gram = kernel.gram_matrix(dataset.features, kind.kernel)
    solve = kernel.kkt_solve(gram, supervision, kind.kernel.ridge)
    return kernel.training_output(solve)


def query_outputs(
    kind: BaseClassifierKind,
    dataset: PartialLabelDataset,
    supervision: np.ndarray,
    query_features: np.ndarray,
    gram: np.ndarray | None = None,
) -> np.ndarray:
    """Modeling output for unseen samples (no candidate mask applied)."""
    supervision = np.asarray(supervision, float)
    query_features = np.asarray(query_features, float)
    if kind.kind == "pl-knn":
        if kind.k_neighbors > dataset.n_samples:
            raise ValueError("k_neighbors exceeds the training sample count")
        distances = cdist(query_features, dataset.features)
        return _knn_average(supervision, distances, kind.k_neighbors)
    if gram is None:
        gram = kernel.gram_matrix(dataset.features, kind.kernel)
    cross = kernel.cross_matrix(query_features, dataset.features, kind.kernel)
    solve = kernel.kkt_solve(gram, supervision, kind.kernel.ridge)
    return kernel.predict(solve, cross)


def binarize_supervision(
    ohat: np.ndarray, p: np.ndarray, y: np.ndarray | None = None
) -> np.ndarray:
    """0/1 supervision: 1 where the partner-side confidence reached the
    candidate-side one, optionally masked by the candidate matrix."""
    ohat, p = np.asarray(ohat, float), np.asarray(p, float)
    if ohat.shape != p.shape:
        raise ValueError(f"shape mismatch: {ohat.shape} vs {p.shape}")
    out = (ohat >= p).astype(float)
    if y is not None:
        out = out * np.asarray(y, float)
    return out
