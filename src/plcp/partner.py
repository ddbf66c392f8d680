"""The complementary partner classifier.

The partner regresses onto an auxiliary complement-confidence matrix C
while a trace coupling ``gamma * sum(O * C)`` nudges C away from labels the
candidate-side supervision O favors. Fitting alternates two exact steps:
the row-wise QP for C (given the current modeling output) and the dual
ridge solve for the regression (given C), so the joint objective descends
monotonically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernel, qp
from .core import InvariantViolation, PartialLabelDataset


@dataclass(frozen=True)
class PartnerConfig:
    """Partner settings; the ridge penalty is ``kernel.ridge``."""

    gamma: float = 2.0
    inner_iters: int = 10
    inner_tol: float = 1e-6
    kernel: kernel.KernelSpec = field(default_factory=kernel.KernelSpec)
    # ablation: replace the trace coupling with ||O + C - 1||_F^2, which
    # forces C toward 1 - O instead of merely discouraging overlap
    aggressive: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be non-negative and finite, got {self.gamma}")
        if self.inner_iters < 1:
            raise ValueError("inner_iters must be at least 1")
        if not (math.isfinite(self.inner_tol) and self.inner_tol >= 0):
            raise ValueError(
                f"inner_tol must be non-negative and finite, got {self.inner_tol}"
            )


@dataclass(frozen=True)
class PartnerModel:
    solve: kernel.KernelSolve
    c: np.ndarray
    objective_trace: np.ndarray


def _coupling(o: np.ndarray, c: np.ndarray, config: PartnerConfig) -> float:
    if config.aggressive:
        return config.gamma * float(((o + c - 1.0) ** 2).sum())
    return config.gamma * float((o * c).sum())


def _objective(
    j: np.ndarray, c: np.ndarray, o: np.ndarray,
    solve: kernel.KernelSolve, config: PartnerConfig,
) -> float:
    fit_term = float(((j - c) ** 2).sum())
    # ridge * ||W||^2 in dual form is trace(A^T K A) / (4 * ridge); since
    # K A / (2 * ridge) = J - 1 bias^T, that is sum(A * (J - bias)) / 2
    norm_term = float((solve.dual_coeffs * (j - solve.bias)).sum()) / 2.0
    return fit_term + _coupling(o, c, config) + norm_term


def fit_partner(
    dataset: PartialLabelDataset,
    o_supervision: np.ndarray,
    config: PartnerConfig,
    system: kernel.RidgeSystem | None = None,
) -> PartnerModel:
    """Fit the partner on candidate-side supervision ``o_supervision``.

    ``system`` may carry the ridge system of the train gram under
    ``config.kernel``; it is never mutated and can be shared across
    repeated fits on the same dataset, as is ``dataset.candidate_layout``.
    The model's arrays are read-only, so runs can share the model too.
    """
    o = np.asarray(o_supervision, float)
    if o.shape != dataset.candidates.shape:
        raise ValueError("supervision shape must match the candidate matrix")
    yhat, layout = dataset.noncandidates, dataset.candidate_layout
    if system is None:
        system = kernel.ridge_system(dataset.features, config.kernel, dataset.label_count)
    elif system.ridge != config.kernel.ridge:
        raise ValueError("the ridge system's ridge differs from config.kernel.ridge")

    j = np.zeros_like(o)
    trace: list[float] = []
    g = config.gamma
    for _ in range(config.inner_iters):
        if config.aggressive:
            # ||j - c||^2 + gamma ||o + c - 1||^2 rescales to the same row
            # geometry with a shifted target and no trace term
            c = qp.solve_matrix((j + g * (1.0 - o)) / (1.0 + g), o, yhat, 0.0, layout)
        else:
            c = qp.solve_matrix(j, o, yhat, g, layout)
        solve = kernel.kkt_solve(system, c)
        j = kernel.training_output(solve)
        trace.append(_objective(j, c, o, solve, config))
        if len(trace) >= 2:
            prev, curr = trace[-2], trace[-1]
            if abs(prev - curr) <= config.inner_tol * max(1.0, abs(prev)):
                break

    if not ((c >= yhat - 1e-9).all() and (c <= 1.0 + 1e-9).all()):
        raise InvariantViolation("partner c left the [yhat, 1] box")
    if not np.abs(c.sum(axis=1) - (dataset.label_count - 1)).max() <= 1e-9:
        raise InvariantViolation("partner c rows must sum to l - 1")
    model = PartnerModel(solve=solve, c=c, objective_trace=np.asarray(trace))
    for array in (c, model.objective_trace, solve.dual_coeffs, solve.bias, solve.fitted):
        array.flags.writeable = False
    return model


def labels_from_output(phat: np.ndarray) -> np.ndarray:
    """Per row, the label whose complement confidence, clipped to [0, 1], is
    smallest. Ties resolve to the lowest label index."""
    return np.argmin(np.clip(phat, 0.0, 1.0), axis=1)
