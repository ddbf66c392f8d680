"""Base candidate-side classifiers consuming blurred supervision.

Two bases cover the coupling paths the mutual-supervision loop must
support: neighbor averaging of supervision rows (confidence-friendly
PL-KNN) and a kernel least-squares regression onto the supervision, which
shares the partner's dual solver. One call, :func:`fit_predict_base`,
answers the train rows and any query rows from one fit. What a fit reads
besides the supervision does not change between rounds of a run: PL-KNN's
neighbour table is searched in blocks of rows and the kernel least-squares
base reuses one factored ridge system; the engine takes both from the
train set's memo, so each is built once per train set.
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


def _nearest(distances: np.ndarray, k: int) -> np.ndarray:
    # The k-th smallest distance of a row bounds its neighbours. Every
    # distance up to that bound stays a candidate, ties included; a stable
    # sort of the candidates, kept in index order, then ranks equal
    # distances by index, exactly as a stable argsort of the whole row.
    bound = np.partition(distances, k - 1, axis=1)[:, k - 1, None]
    rows, cols = np.nonzero(distances <= bound)
    counts = np.bincount(rows, minlength=distances.shape[0])
    slots = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    cand = np.zeros((distances.shape[0], counts.max()), dtype=np.intp)
    cand_d = np.full(cand.shape, np.inf)
    cand[rows, slots] = cols
    cand_d[rows, slots] = distances[rows, cols]
    order = np.argsort(cand_d, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(cand, order, axis=1)


def neighbour_table(
    query: np.ndarray, train: np.ndarray, k: int, exclude_self: bool = False
) -> np.ndarray:
    """Indices of the ``k`` nearest train rows of every query row, nearest first.

    Equal distances rank by train index, as in a stable argsort of each
    row of the distance matrix. With ``exclude_self`` the query rows are
    the train rows and no row is its own neighbour. The search runs over
    blocks of query rows, so the full query-by-train distance matrix never
    exists.
    """
    query, train = np.asarray(query, float), np.asarray(train, float)
    if not np.isfinite(query).all():
        raise ValueError("query features contain NaN or Inf")
    table = np.empty((query.shape[0], k), dtype=np.intp)
    step = kernel.block_rows(train.shape[0])
    for start in range(0, query.shape[0], step):
        distances = cdist(query[start : start + step], train)
        if exclude_self:
            rows = np.arange(distances.shape[0])
            distances[rows, start + rows] = np.inf
        table[start : start + step] = _nearest(distances, k)
    return table


def neighbour_mean(supervision: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``supervision[table].mean(axis=1)`` without its (n, k, l) temporary, a
    running sum over the k neighbour columns divided by k: the same bits from
    two labels on (at one label NumPy sums the k neighbours pairwise)."""
    total = supervision[table[:, 0]]
    for column in table.T[1:]:
        total += supervision[column]
    return total / table.shape[1]


def prepare(kind: BaseClassifierKind, dataset: PartialLabelDataset):
    """What every fit of ``kind`` on ``dataset`` shares.

    PL-KNN gets its neighbour table (self excluded), the kernel least-squares
    base the ridge system of its gram.
    """
    if kind.kind == "pl-knn":
        # each sample is excluded from its own neighbours, leaving n - 1
        n = dataset.n_samples
        if kind.k_neighbors >= n:
            raise ValueError(
                f"k_neighbors={kind.k_neighbors} must be below the sample count {n}"
            )
        return neighbour_table(
            dataset.features, dataset.features, kind.k_neighbors, exclude_self=True
        )
    return kernel.ridge_system(dataset.features, kind.kernel)


def fit_predict_base(
    kind: BaseClassifierKind,
    dataset: PartialLabelDataset,
    supervision: np.ndarray,
    prepared: np.ndarray | kernel.RidgeSystem | None = None,
    query: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Modeling output of the base under the given supervision, as
    ``(train_output, query_output)``; ``query_output`` is None without
    ``query`` rows.

    PL-KNN averages the supervision rows of each sample's nearest
    neighbors, self excluded on the train rows, and masks the train output
    by the candidate set; the blend/clamp step downstream handles
    normalization. Query rows, unseen samples, get no mask. The kernel
    least-squares base answers both from one ridge regression onto the
    supervision. ``prepared`` is what :func:`prepare` returns for ``kind``
    and ``dataset``, built here when absent.
    """
    supervision = np.asarray(supervision, float)
    if supervision.shape != dataset.candidates.shape:
        raise ValueError("supervision shape must match the candidate matrix")
    if prepared is None:
        prepared = prepare(kind, dataset)
    if kind.kind == "pl-knn":
        # prepare() keeps k below the sample count, so every query row
        # finds its k neighbours among the train rows
        train_output = neighbour_mean(supervision, prepared) * dataset.candidates
        if query is None:
            return train_output, None
        table = neighbour_table(query, dataset.features, kind.k_neighbors)
        return train_output, neighbour_mean(supervision, table)
    solve = kernel.kkt_solve(prepared, supervision)
    if query is None:
        return solve.fitted, None
    return solve.fitted, kernel.predict_query(solve, query, dataset.features, kind.kernel)


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
