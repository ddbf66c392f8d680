"""The mutual-supervision loop coupling a base classifier with the partner.

Each iteration runs: base training on the partner-side supervision, the
candidate-confidence blend/clamp, blurring, partner training on that
blurred supervision, the complement-confidence blend/clamp, and blurring
back. Each round leaves one :class:`IterationSnapshot`, which holds its
label-change fraction; the loop stops early once two fractions in a row
fall below the threshold, and always within ``max_iter`` rounds. Test
predictions come from the partner of the final iteration.

Each run starts with one setup step (:func:`_prepare`), which reads and
fills the train set's :class:`~plcp.core.TrainSetup`, so every run and
round on one dataset object shares its bandwidth, ridge systems, neighbour
table and gamma-0 partner fit. Both runs take the base's outputs from
:func:`base.fit_predict_base`, whose one fit answers the train rows and,
when asked, the test rows.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import base as base_mod
from . import blur, kernel, partner
from .core import (
    ConfidenceState,
    InvariantViolation,
    PartialLabelDataset,
    init_confidence,
    update_labeling_confidence,
    update_noncandidate_confidence,
)


@dataclass(frozen=True)
class EngineConfig:
    alpha: float = 0.5
    k: float = -1.0
    max_iter: int = 5
    stop_change_frac: float = 0.05
    base: base_mod.BaseClassifierKind = field(default_factory=base_mod.BaseClassifierKind)
    partner: partner.PartnerConfig = field(default_factory=partner.PartnerConfig)
    # diagnostics: predict test labels from the base's final output instead
    # of the partner
    predict_from_base: bool = False
    check_invariants: bool = True

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0.0 <= self.stop_change_frac <= 1.0:
            raise ValueError("stop_change_frac must be in [0, 1]")
        blur.validate_temperature(self.k)


@dataclass(frozen=True)
class IterationSnapshot:
    """One round's record: its argmax labels, the fraction of them that
    changed in the round, and confidence extrema for plots."""

    labels: np.ndarray
    change_frac: float
    truth_confidence: np.ndarray | None
    max_false_confidence: np.ndarray | None


@dataclass(frozen=True)
class RunReport:
    """A run's rounds, its final partner and its test labels; the round
    count and the train labels are those of the rounds."""

    trajectories: list[IterationSnapshot]
    final_partner: partner.PartnerModel
    test_predictions: np.ndarray

    @property
    def iterations_run(self) -> int:
        return len(self.trajectories)

    @property
    def train_predictions(self) -> np.ndarray:
        return self.trajectories[-1].labels


def should_stop(change_fracs: Sequence[float], threshold: float) -> bool:
    """The two-in-a-row rule: True once the last two of the rounds' label
    change fractions both fall below ``threshold``. The hard iteration cap
    is the caller's responsibility."""
    return len(change_fracs) >= 2 and all(f < threshold for f in change_fracs[-2:])


def _check_state(state: ConfidenceState, y: np.ndarray, yhat: np.ndarray) -> None:
    # each test is a negated in-range test, so a NaN fails it
    for name, o in (("o", state.o), ("ohat", state.ohat)):
        if not np.abs(o.sum(axis=1) - 1.0).max() <= 1e-9:
            raise InvariantViolation(f"{name} rows must sum to 1")
        # yhat is 1 exactly off-candidates, so this sums |o| there
        if not np.vdot(np.abs(o), yhat) <= 0.0:
            raise InvariantViolation(f"{name} must vanish off-candidates")
    if not ((state.p >= -1e-12).all() and (state.p <= y + 1e-12).all()):
        raise InvariantViolation("p left the [0, y] box")
    if not ((state.phat >= yhat - 1e-12).all() and (state.phat <= 1.0 + 1e-12).all()):
        raise InvariantViolation("phat left the [yhat, 1] box")


def _masked_argmax(scores: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.argmax(np.where(y > 0, scores, -np.inf), axis=1)


def _fit_base(kind, dataset, state: ConfidenceState, prepared, query=None) -> tuple:
    """The base's outputs, fit on ``ohat`` or, under ``binarize``, its 0/1 mask."""
    supervision = state.ohat
    if kind.binarize:
        supervision = base_mod.binarize_supervision(state.ohat, state.p, dataset.candidates)
    return base_mod.fit_predict_base(kind, dataset, supervision, prepared, query)


def _snapshot(
    p: np.ndarray, labels: np.ndarray, change_frac: float,
    dataset: PartialLabelDataset,
) -> IterationSnapshot:
    truth = dataset.ground_truth
    if truth is None:
        return IterationSnapshot(labels, change_frac, None, None)
    idx = np.arange(p.shape[0])
    truth_conf = p[idx, truth]
    rivals = np.where(dataset.candidates > 0, p, -np.inf)
    rivals[idx, truth] = -np.inf
    max_false = rivals.max(axis=1)
    max_false = np.where(np.isfinite(max_false), max_false, 0.0)
    return IterationSnapshot(labels, change_frac, truth_conf, max_false)


def _fit_partner(dataset: PartialLabelDataset, o, cfg, system) -> partner.PartnerModel:
    """The partner fit on ``o``; at gamma 0, ``dataset.setup.gamma0``."""
    if cfg.gamma != 0:
        return partner.fit_partner(dataset, o, cfg, system)
    setup = dataset.setup
    if setup.gamma0 is None or setup.gamma0[0] != cfg:
        setup.gamma0 = None  # released before the new fit, not beside it
        setup.gamma0 = cfg, partner.fit_partner(dataset, o, cfg, system)
    return setup.gamma0[1]


def _physical_memory() -> int:
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


# Arrays of n x l entries, 8 bytes each, alive at a round's peak, which the
# partner's ridge solve, the blur back and the state check reach alike; at
# the solve: the new p and o, the last phat, the non-candidate mask, the
# partner's c, the last inner step's dual and fitted, this step's dual and
# fitted and one solve temporary, and the row QP's candidate layout, whose
# index has at most l columns. 11 are of train rows; the test output and
# its clip, 2, of test rows.
_TRAIN_ARRAYS, _TEST_ARRAYS = 11, 2


def _check_memory(n_train: int, n_test: int, n_labels: int, specs: tuple) -> None:
    """Refuse a run whose arrays cannot fit in physical memory.

    The estimate counts one packed factor of n_train(n_train+1)/2 entries
    per ridge system of ``specs`` (or, if :func:`kernel.holds_inverse`, an
    n_train^2 inverse, and once the triangle it is unpacked from), one block
    of test rows of the kernel matrix and the n x l arrays of a round and of
    its test output; the bandwidth's distances never set the peak (see
    :class:`~plcp.core.TrainSetup`).
    """
    triangle = n_train * (n_train + 1) // 2
    square = bool(specs) and kernel.holds_inverse(n_train, n_labels)
    systems = len(specs) * (n_train**2 if square else triangle) + square * triangle
    block = min(n_test, kernel.block_rows(n_train))
    labels = (_TRAIN_ARRAYS * n_train + _TEST_ARRAYS * n_test) * n_labels
    estimate = 8 * (systems + n_train * block + labels)
    memory, held = _physical_memory(), "a square inverse" if square else "a packed triangle"
    if estimate > memory:
        raise MemoryError(
            f"{n_train} train and {n_test} test samples with {n_labels} labels need "
            f"about {estimate / 2**20:.0f} MiB for {len(specs)} ridge system(s) of "
            f"{n_train}x{n_train}, each {held}, one block of test rows and "
            f"{_TRAIN_ARRAYS} train and {_TEST_ARRAYS} test arrays of {n_labels} labels, "
            f"but physical memory is {memory / 2**20:.0f} MiB"
        )


def _as_test_matrix(dataset: PartialLabelDataset, test_features) -> np.ndarray:
    test = np.asarray(test_features, float)
    if test.size == 0:
        return test.reshape(0, dataset.n_features)
    test = np.atleast_2d(test)
    if test.shape[1] != dataset.n_features:
        raise ValueError(
            f"test features have {test.shape[1]} columns, expected {dataset.n_features}"
        )
    if not np.isfinite(test).all():
        raise ValueError("test features contain NaN or Inf")
    return test


def _prepare(
    dataset: PartialLabelDataset, n_test: int, base: base_mod.BaseClassifierKind,
    partner_spec: kernel.KernelSpec | None = None,
) -> tuple:
    """The base's kNN table or ridge system and the ridge system of
    ``partner_spec`` (None without one), read from and kept in
    ``dataset.setup`` (see :class:`~plcp.core.TrainSetup`) under the specs
    given here; each system records its spec with the bandwidth pinned.
    """
    x, knn, setup = dataset.features, base.kind == "pl-knn", dataset.setup
    specs = [s for s in (partner_spec, None if knn else base.kernel) if s is not None]
    _check_memory(len(x), n_test, dataset.label_count, tuple(set(specs)))
    unpinned = [s for s in specs if s.kind == "gaussian" and s.sigma is None]
    if not setup.systems.keys() >= set(specs):
        for stale in setup.systems.keys() - set(specs):
            del setup.systems[stale]
        if unpinned and setup.sigma is None:
            setup.sigma = kernel.resolve_sigma(x, unpinned[0])
    if partner_spec is not None:
        dataset.candidate_layout  # built before the kNN table and the systems
    if knn and base.k_neighbors not in setup.neighbours:
        setup.neighbours[base.k_neighbors] = base_mod.prepare(base, dataset)
    for spec in specs:
        if spec not in setup.systems:
            pinned = replace(spec, sigma=setup.sigma) if spec in unpinned else spec
            setup.systems[spec] = kernel.ridge_system(x, pinned, dataset.label_count)
    prepared = setup.neighbours[base.k_neighbors] if knn else setup.systems[base.kernel]
    return prepared, setup.systems.get(partner_spec)


def run_plcp(
    dataset: PartialLabelDataset,
    test_features: np.ndarray,
    config: EngineConfig,
) -> RunReport:
    """Run the full mutual-supervision loop and predict the test labels."""
    x = dataset.features
    y = dataset.candidates
    test_features = _as_test_matrix(dataset, test_features)
    base_prepared, system = _prepare(
        dataset, len(test_features), config.base, config.partner.kernel
    )
    yhat = dataset.noncandidates

    state = init_confidence(dataset, config.k)
    labels_prev = _masked_argmax(state.p, y)
    snapshots: list[IterationSnapshot] = []
    partner_model = None  # only the last round's is read, after the loop

    for _ in range(config.max_iter):
        del partner_model
        m, _ = _fit_base(config.base, dataset, state, base_prepared)
        p = update_labeling_confidence(state.p, m, y, config.alpha)
        o = blur.blur_labeling(p, y, config.k)

        # across the partner fit and the blur back, the round's peak, hold
        # only what the round reads again: the last phat, new p and o, mask
        phat = state.phat
        del m, state
        partner_model = _fit_partner(dataset, o, config.partner, system)
        phat = update_noncandidate_confidence(
            phat, kernel.training_output(partner_model.solve), yhat, config.alpha
        )
        state = ConfidenceState(p, phat, o, blur.blur_noncandidate(phat, y, config.k))
        if config.check_invariants:
            _check_state(state, y, yhat)

        labels_curr = _masked_argmax(p, y)
        change_frac = float(np.mean(labels_curr != labels_prev))
        snapshots.append(_snapshot(p, labels_curr, change_frac, dataset))
        labels_prev = labels_curr
        if should_stop([snap.change_frac for snap in snapshots], config.stop_change_frac):
            break

    if config.predict_from_base:
        _, m_test = _fit_base(config.base, dataset, state, base_prepared, test_features)
        test_predictions = np.argmax(m_test, axis=1)
    else:
        del p, phat, o, state  # the partner alone predicts the test rows
        test_predictions = partner.labels_from_output(
            kernel.predict_query(partner_model.solve, test_features, x, system.spec)
        )

    return RunReport(snapshots, partner_model, test_predictions)


def run_base_alone(
    dataset: PartialLabelDataset,
    test_features: np.ndarray,
    kind: base_mod.BaseClassifierKind,
) -> tuple[np.ndarray, np.ndarray]:
    """Reference run of the base classifier without any partner feedback.

    Trains once on the uniform initial confidences, a fit that answers the
    train and the test rows, and returns the (train, test) label vectors.
    Train labels take the argmax over the candidate set; unseen test
    samples have no candidate mask.
    """
    test_features = _as_test_matrix(dataset, test_features)
    prepared, _ = _prepare(dataset, len(test_features), kind)
    p0 = dataset.candidates / dataset.candidates.sum(axis=1, keepdims=True)
    m_train, m_test = base_mod.fit_predict_base(kind, dataset, p0, prepared, test_features)
    return _masked_argmax(m_train, dataset.candidates), np.argmax(m_test, axis=1)
