"""The mutual-supervision loop coupling a base classifier with the partner.

Each iteration runs: base training on the partner-side supervision, the
candidate-confidence blend/clamp, blurring, partner training on that
blurred supervision, the complement-confidence blend/clamp, and blurring
back. The loop stops early once the per-sample label assignment settles
for two consecutive iterations, and always within ``max_iter`` rounds.
Test predictions come from the partner of the final iteration.

What depends only on the train features (the Gaussian bandwidth, each
ridge system and the PL-KNN neighbour table) is taken from the train
set's memo, so the base-alone run and every coupled run on the same
dataset object build each of them once.

A run keeps one n_train x n_train float64 array per ridge system (the
factor) and one block of test rows of the test-by-train kernel matrix;
before any work it checks that these fit in physical memory.
"""

from __future__ import annotations

import os
from collections import deque
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
    """Per-iteration trail: argmax labels plus confidence extrema for plots."""

    labels: np.ndarray
    change_frac: float
    truth_confidence: np.ndarray | None
    max_false_confidence: np.ndarray | None


@dataclass(frozen=True)
class RunReport:
    iterations_run: int
    trajectories: list[IterationSnapshot]
    final_partner: partner.PartnerModel
    final_state: ConfidenceState
    train_predictions: np.ndarray
    test_predictions: np.ndarray


def should_stop(
    prev_labels: np.ndarray,
    curr_labels: np.ndarray,
    history: deque,
    threshold: float,
) -> bool:
    """Record the label-change fraction and test the two-in-a-row rule.

    ``history`` is a ring of the last two change fractions, mutated in
    place. Returns True once two consecutive fractions fall below the
    threshold. The hard iteration cap is the caller's responsibility.
    """
    prev_labels, curr_labels = np.asarray(prev_labels), np.asarray(curr_labels)
    if prev_labels.shape != curr_labels.shape:
        raise ValueError("label vectors must have equal length")
    history.append(float(np.mean(prev_labels != curr_labels)))
    return len(history) == 2 and all(f < threshold for f in history)


def _check_state(state: ConfidenceState, y: np.ndarray) -> None:
    yhat = 1.0 - y
    off = y == 0
    for name, o in (("o", state.o), ("ohat", state.ohat)):
        if np.abs(o.sum(axis=1) - 1.0).max() > 1e-9:
            raise InvariantViolation(f"{name} rows must sum to 1")
        if off.any() and np.abs(o[off]).max() > 0.0:
            raise InvariantViolation(f"{name} must vanish off-candidates")
    if (state.p < -1e-12).any() or (state.p > y + 1e-12).any():
        raise InvariantViolation("p left the [0, y] box")
    if (state.phat < yhat - 1e-12).any() or (state.phat > 1.0 + 1e-12).any():
        raise InvariantViolation("phat left the [yhat, 1] box")


def _masked_argmax(scores: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.argmax(np.where(y > 0, scores, -np.inf), axis=1)


def _base_supervision(state: ConfidenceState, binarize: bool, y: np.ndarray) -> np.ndarray:
    """What the base trains on: ``ohat``, or its 0/1 mask under ``binarize``."""
    if binarize:
        return base_mod.binarize_supervision(state.ohat, state.p, y)
    return state.ohat


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


def _pin_sigma(dataset: PartialLabelDataset, spec: kernel.KernelSpec) -> kernel.KernelSpec:
    """``spec`` with its Gaussian bandwidth, resolved once per dataset."""
    if spec.kind == "gaussian" and spec.sigma is None:
        sigma = dataset.derived("sigma", lambda: kernel.resolve_sigma(dataset.features, spec))
        return replace(spec, sigma=sigma)
    return spec


def _ridge_systems(
    dataset: PartialLabelDataset, *specs: kernel.KernelSpec
) -> list[kernel.RidgeSystem]:
    """The ridge system of each sigma-pinned spec, kept in the dataset's memo.

    A call that needs a spec the memo lacks first drops the systems it does
    not ask for, so the memo never holds more factors than one run uses; a
    sweep, whose cells come ridge-outer, still builds each system once per
    dataset. Systems built by one call share a gram when their kind and
    sigma agree, as the gram does not depend on the ridge. The last system
    of a gram is factored in the gram's own buffer and the others in copies
    of it, so the call leaves no n x n array behind but the factors.
    """
    systems = dataset.derived("ridge", dict)
    if any(spec not in systems for spec in specs):
        for stale in set(systems).difference(specs):
            del systems[stale]
        groups: dict = {}
        for spec in dict.fromkeys(specs):
            if spec not in systems:
                groups.setdefault((spec.kind, spec.sigma), []).append(spec)
        for *copied, last in groups.values():
            gram = kernel.gram_matrix(dataset.features, last)
            for spec in copied:
                systems[spec] = kernel.ridge_system(gram, spec.ridge)
            systems[last] = kernel.factor_in_place(gram, last.ridge)
    return [systems[spec] for spec in specs]


def _neighbours(dataset: PartialLabelDataset, kind: base_mod.BaseClassifierKind) -> np.ndarray:
    """PL-KNN's fit-path neighbour table, searched once per dataset and k."""
    return dataset.derived(
        ("neighbours", kind.k_neighbors), lambda: base_mod.prepare(kind, dataset)
    )


def _physical_memory() -> int:
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_memory(n_train: int, n_test: int, n_labels: int, n_systems: int) -> None:
    """Refuse a run whose n_train-squared arrays cannot fit in physical memory.

    The estimate counts what grows with n_train squared: one factor per
    ridge system and the largest block of test rows of the kernel matrix.
    It is raised before any sigma, gram or neighbour work starts.
    """
    block_rows = max(
        rows.stop - rows.start for rows in kernel.query_blocks(n_test, n_train, n_labels)
    )
    estimate = 8 * n_train * (n_systems * n_train + block_rows)
    memory = _physical_memory()
    if estimate > memory:
        raise MemoryError(
            f"{n_train} train and {n_test} test samples with {n_labels} labels need "
            f"about {estimate / 2**20:.0f} MiB for {n_systems} ridge system(s) of "
            f"{n_train}x{n_train} and one block of test rows, but physical memory "
            f"is {memory / 2**20:.0f} MiB"
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
    return test


def run_plcp(
    dataset: PartialLabelDataset,
    test_features: np.ndarray,
    config: EngineConfig,
) -> RunReport:
    """Run the full mutual-supervision loop and predict the test labels."""
    x = dataset.features
    y = dataset.candidates
    yhat = dataset.noncandidates
    test_features = _as_test_matrix(dataset, test_features)
    kernel_specs = {config.partner.kernel}
    if config.base.kind == "kernel-ls":
        kernel_specs.add(config.base.kernel)
    _check_memory(len(x), len(test_features), dataset.label_count, len(kernel_specs))

    partner_spec = _pin_sigma(dataset, config.partner.kernel)
    partner_cfg = replace(config.partner, kernel=partner_spec)

    # shared by every round, and with other runs on this dataset: the
    # partner's ridge system, and the base's kNN table or ridge system
    base_kind = config.base
    if base_kind.kind == "pl-knn":
        (system,) = _ridge_systems(dataset, partner_spec)
        base_prepared = _neighbours(dataset, base_kind)
    else:
        base_kind = replace(base_kind, kernel=_pin_sigma(dataset, base_kind.kernel))
        system, base_prepared = _ridge_systems(dataset, partner_spec, base_kind.kernel)

    state = init_confidence(dataset, config.k)
    labels_prev = _masked_argmax(state.p, y)
    history: deque = deque(maxlen=2)
    snapshots: list[IterationSnapshot] = []
    partner_model = None

    for _ in range(config.max_iter):
        supervision = _base_supervision(state, base_kind.binarize, y)
        m = base_mod.fit_predict_base(base_kind, dataset, supervision, base_prepared)
        p_new = update_labeling_confidence(state.p, m, y, config.alpha)
        o_new = blur.blur_labeling(p_new, y, config.k)

        partner_model = partner.fit_partner(dataset, o_new, partner_cfg, system)
        mhat = kernel.training_output(partner_model.solve)
        phat_new = update_noncandidate_confidence(state.phat, mhat, yhat, config.alpha)
        ohat_new = blur.blur_noncandidate(phat_new, y, config.k)

        state = ConfidenceState(p=p_new, phat=phat_new, o=o_new, ohat=ohat_new)
        if config.check_invariants:
            _check_state(state, y)

        labels_curr = _masked_argmax(p_new, y)
        stop = should_stop(labels_prev, labels_curr, history, config.stop_change_frac)
        snapshots.append(_snapshot(p_new, labels_curr, history[-1], dataset))
        labels_prev = labels_curr
        if stop:
            break

    if partner_model is None:
        raise InvariantViolation("the loop ran no round")
    if config.predict_from_base:
        supervision = _base_supervision(state, base_kind.binarize, y)
        m_test = base_mod.query_outputs(
            base_kind, dataset, supervision, test_features, base_prepared
        )
        test_predictions = np.argmax(m_test, axis=1)
    else:
        test_predictions = partner.labels_from_output(
            kernel.predict_query(partner_model.solve, test_features, x, partner_spec)
        )

    return RunReport(
        iterations_run=len(snapshots),
        trajectories=snapshots,
        final_partner=partner_model,
        final_state=state,
        train_predictions=labels_prev,
        test_predictions=test_predictions,
    )


def run_base_alone(
    dataset: PartialLabelDataset,
    test_features: np.ndarray,
    kind: base_mod.BaseClassifierKind,
) -> tuple[np.ndarray, np.ndarray]:
    """Reference run of the base classifier without any partner feedback.

    Trains once on the uniform initial confidences and returns the
    (train, test) label vectors. Train labels take the argmax over the
    candidate set; unseen test samples have no candidate mask.
    """
    x = dataset.features
    test_features = _as_test_matrix(dataset, test_features)
    n_systems = 1 if kind.kind == "kernel-ls" else 0
    _check_memory(len(x), len(test_features), dataset.label_count, n_systems)
    p0 = dataset.candidates / dataset.candidates.sum(axis=1, keepdims=True)
    if kind.kind == "pl-knn":
        m_train = base_mod.fit_predict_base(kind, dataset, p0, _neighbours(dataset, kind))
        m_test = base_mod.query_outputs(kind, dataset, p0, test_features)
    else:
        kind = replace(kind, kernel=_pin_sigma(dataset, kind.kernel))
        # one solve serves the train and the test rows
        (system,) = _ridge_systems(dataset, kind.kernel)
        solve = kernel.kkt_solve(system, p0)
        m_train = kernel.training_output(solve)
        m_test = kernel.predict_query(solve, test_features, x, kind.kernel)
    return _masked_argmax(m_train, dataset.candidates), np.argmax(m_test, axis=1)
