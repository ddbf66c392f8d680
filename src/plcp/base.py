"""Base candidate-side classifiers consuming blurred supervision.

Two bases cover the coupling paths the mutual-supervision loop must
support: neighbor averaging of supervision rows (confidence-friendly
PL-KNN) and a kernel least-squares regression onto the supervision, which
shares the partner's dual solver. One call, :func:`fit_predict_base`,
answers the train rows and any query rows from one fit. What a fit reads
besides the supervision does not change between rounds of a run: PL-KNN's
neighbour table comes from one k-d tree query, rechecked exactly, and the
kernel least-squares base reuses one ridge system; the engine
takes both from the train set's ``setup``, so each is built once per train set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

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


# cKDTree's leaf size: 32 took 32 ms and the default 16 took 37 ms to query
# both tables of 2000 train rows at d = 8
_LEAF_SIZE = 32


def _rank(query, columns, candidates, own_rows, k):
    """The ``k`` nearest of each query row's ``candidates`` (train indices),
    ranked by (distance, train index), and their k-th distances. Squares
    summed column by column, then a root, give ``cdist``'s bits. A query
    row's own train row, in ``own_rows`` if given, ranks last."""
    distances = np.zeros(candidates.shape)
    for q, column in zip(query.T, columns):
        diff = column[candidates] - q[:, None]
        distances += np.square(diff, out=diff)
    np.sqrt(distances, out=distances)
    if own_rows is not None:
        distances[candidates == own_rows[:, None]] = np.inf
    order = np.lexsort((candidates, distances))[:, :k]
    kth = np.take_along_axis(distances, order[:, -1:], axis=1)[:, 0]
    return np.take_along_axis(candidates, order, axis=1), kth


def neighbour_table(
    query: np.ndarray, train: np.ndarray, k: int, exclude_self: bool = False
) -> np.ndarray:
    """Indices of the ``k`` nearest train rows of every query row, nearest first.

    Equal distances rank by train index, as in a stable argsort of each
    row of ``cdist``'s distance matrix. With ``exclude_self`` the query
    rows are the train rows and no row is its own neighbour. A k-d tree
    proposes ``k + 1`` candidates a row (one more with ``exclude_self``),
    ranked on their exact distances; a row whose k-th neighbour the tree
    cannot certify (a tie, or too few train rows) is ranked again among
    all train rows, in row blocks.
    """
    query, train = np.asarray(query, float), np.asarray(train, float)
    if not np.isfinite(query).all():
        raise ValueError("query features contain NaN or Inf")
    (n_query, d), n_train = query.shape, train.shape[0]
    if k > n_train:
        raise ValueError(f"k={k} exceeds the {n_train} train rows")
    want = min(k + 1 + exclude_self, n_train)
    # the table outlives the search's temporaries: allocated before them, it
    # leaves their freed memory in one piece for a run's later large arrays
    table = np.empty((n_query, k), dtype=np.intp)
    tree_distances, candidates = cKDTree(train, leafsize=_LEAF_SIZE).query(query, want)
    columns = train.T.copy()
    own_rows = np.arange(n_query) if exclude_self else None
    table[:], kth = _rank(query, columns, candidates.reshape(n_query, want), own_rows, k)
    # A train row left out lies at a tree distance of at least the last one
    # returned. The tree and the recheck each sum d rounded squares and take
    # a root, each within (d/2 + 2) eps of the true distance, and the tree
    # prunes on a bound it updates once per level, within eps a level over
    # at most bit_length(n_train) levels: rel doubles the sum of the three.
    rel = 2 * (d + 4 + n_train.bit_length()) * np.finfo(float).eps
    last = tree_distances.reshape(n_query, want)[:, -1]
    redo = np.flatnonzero(~(last * (1 - rel) > kth))
    step = kernel.block_rows(n_train)
    for start in range(0, redo.size, step):
        rows = redo[start : start + step]
        everyone = np.broadcast_to(np.arange(n_train), (rows.size, n_train))
        own = rows if exclude_self else None
        table[rows] = _rank(query[rows], columns, everyone, own, k)[0]
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
    return kernel.ridge_system(dataset.features, kind.kernel, dataset.label_count)


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
    supervision and predicts query rows with its system's pinned kernel.
    ``prepared`` is what :func:`prepare` returns for ``kind`` and
    ``dataset``, built here when absent.
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
    return solve.fitted, kernel.predict_query(solve, query, dataset.features, prepared.spec)


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
