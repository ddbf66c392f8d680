"""Core types for partial-label data and the confidence update operators.

A partial-label dataset pairs each sample with a candidate label set that
contains the (hidden) ground truth. Two confidence matrices track the
state of disambiguation: ``p`` scores candidates as ground truth, ``phat``
scores labels as *not* ground truth. Both are exchanged between classifiers
only in blurred, row-normalized form (``o``, ``ohat``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import blur, qp

if TYPE_CHECKING:
    from . import kernel, partner


class InvariantViolation(AssertionError):
    """An internal consistency check on a computed state failed."""


def _frozen(values, dtype) -> np.ndarray:
    # a copy, so the caller's own array stays writeable
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass
class TrainSetup:
    """What the runs on one train set share. Each piece is built by the
    first run that needs it and lives as long as the dataset object; a new
    dataset, even with equal contents, builds its own.

    ``sigma``: the Gaussian bandwidth, resolved at most once. ``systems``:
    the ridge systems of the latest run only, keyed by the spec the run was
    given; each system holds its spec with the bandwidth pinned. A run that
    lacks one of its systems first drops the systems it does not use, so
    the bandwidth's n(n-1)/2 distances sit beside fewer systems than the run
    keeps; a sweep, whose cells come ridge-outer, builds each once.
    ``neighbours``: one PL-KNN table per neighbour count. ``gamma0``: the
    partner fit of the latest gamma-0 config, which never reads its
    supervision, released before another config's is fitted.
    """

    sigma: float | None = None
    systems: dict[kernel.KernelSpec, kernel.RidgeSystem] = field(default_factory=dict)
    neighbours: dict[int, np.ndarray] = field(default_factory=dict)
    gamma0: tuple[partner.PartnerConfig, partner.PartnerModel] | None = None


@dataclass(frozen=True)
class PartialLabelDataset:
    """Feature matrix plus candidate-label mask, with optional ground truth.

    Attributes
    ----------
    features : (n, d) float array with at least one row.
    candidates : (n, l) 0/1 array, each row marking the candidate set.
        Every row must contain at least one candidate.
    ground_truth : optional (n,) labels in [0, l), kept as ints; a label
        that is not a finite integer raises. When present, the truth must
        sit inside each sample's candidate set.

    The dataset keeps read-only copies of its arrays, so what is derived
    from them can never go stale; ``setup`` holds what runs on it share
    (see :class:`TrainSetup`).
    """

    features: np.ndarray
    candidates: np.ndarray
    ground_truth: np.ndarray | None = None
    setup: TrainSetup = field(default_factory=TrainSetup, init=False, repr=False, compare=False)

    def __post_init__(self):
        x = _frozen(self.features, float)
        y = _frozen(self.candidates, float)
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "candidates", y)
        if x.ndim != 2 or y.ndim != 2:
            raise ValueError("features and candidates must be 2-D matrices")
        if x.shape[0] == 0:
            raise ValueError("a dataset needs at least one sample")
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"features has {x.shape[0]} rows but candidates has {y.shape[0]}"
            )
        if not np.isfinite(x).all():
            raise ValueError("features contain NaN or Inf")
        if not np.isin(y, (0, 1)).all():
            raise ValueError("candidates must be a 0/1 matrix")
        empty = np.flatnonzero(y.sum(axis=1) == 0)
        if empty.size:
            raise ValueError(f"empty candidate set at row {empty[0]}")
        if self.ground_truth is not None:
            t = np.asarray(self.ground_truth, float)
            if t.shape != (x.shape[0],):
                raise ValueError("ground_truth length must match sample count")
            # checked before the cast to int, which would truncate them
            bad = np.flatnonzero(~np.isfinite(t) | (np.floor(t) != t))
            if bad.size:
                row = bad[0]
                raise ValueError(f"ground_truth label {t[row]} at row {row} is not an integer")
            if t.min() < 0 or t.max() >= y.shape[1]:
                raise ValueError("ground_truth labels out of range")
            t = _frozen(t, int)
            object.__setattr__(self, "ground_truth", t)
            outside = np.flatnonzero(self.candidates[np.arange(t.size), t] == 0)
            if outside.size:
                raise ValueError(
                    f"ground truth outside candidate set at row {outside[0]}"
                )

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def label_count(self) -> int:
        return self.candidates.shape[1]

    @cached_property
    def noncandidates(self) -> np.ndarray:
        """Complement mask, read-only: 1 exactly where a label is known wrong."""
        return _frozen(self.candidates == 0, float)

    @cached_property
    def candidate_layout(self) -> qp.CandidateLayout:
        """The row QP's layout of the candidates, one per dataset."""
        return qp.candidate_layout(self.noncandidates)


@dataclass(frozen=True)
class ConfidenceState:
    """Paired confidence matrices and their blurred supervision forms.

    ``p`` lives in [0, Y] element-wise, ``phat`` in [1-Y, 1]. ``o`` and
    ``ohat`` are the row-stochastic supervision signals exchanged between
    the two classifiers; they vanish off-candidates.
    """

    p: np.ndarray
    phat: np.ndarray
    o: np.ndarray
    ohat: np.ndarray


def init_confidence(dataset: PartialLabelDataset, k: float = -1.0) -> ConfidenceState:
    """Initial confidence state: uniform over candidates, complement on phat.

    ``p`` starts at 1/|candidate set| on candidates and 0 elsewhere; ``phat``
    is the dataset's read-only non-candidate mask. The first base
    supervision ``ohat`` is the initial ``p`` array itself (already uniform
    on candidates, hence a fixed point of the blur transform).
    """
    y = dataset.candidates
    p = y / y.sum(axis=1, keepdims=True)
    o = blur.blur_labeling(p, y, k)
    return ConfidenceState(p=p, phat=dataset.noncandidates, o=o, ohat=p)


def _blend(prev, m, mask: np.ndarray, alpha: float) -> np.ndarray:
    """``alpha * prev + (1 - alpha) * m``, for ``prev`` and ``m`` of ``mask``'s shape."""
    prev, m = np.asarray(prev, float), np.asarray(m, float)
    shapes = {prev.shape, m.shape, mask.shape}
    if len(shapes) != 1:
        raise ValueError(f"shape mismatch: {sorted(shapes)}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return alpha * prev + (1.0 - alpha) * m


def update_labeling_confidence(
    p_prev: np.ndarray, m: np.ndarray, y: np.ndarray, alpha: float
) -> np.ndarray:
    """Blend previous confidence with a modeling output, clamp to [0, y].

    Returns ``clip(alpha * p_prev + (1 - alpha) * m, 0, y)`` element-wise.
    Rows are deliberately not renormalized here; normalization happens in
    the blur step.
    """
    y = np.asarray(y, float)
    return np.clip(_blend(p_prev, m, y, alpha), 0.0, y)


def update_noncandidate_confidence(
    phat_prev: np.ndarray, mhat: np.ndarray, yhat: np.ndarray, alpha: float
) -> np.ndarray:
    """Blend complement confidence with a modeling output, clamp to [yhat, 1].

    Mirror of :func:`update_labeling_confidence`: non-candidates stay pinned
    at 1, candidates move inside [0, 1].
    """
    yhat = np.asarray(yhat, float)
    return np.clip(_blend(phat_prev, mhat, yhat, alpha), yhat, 1.0)
