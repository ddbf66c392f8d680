"""Partial-label learning with a complementary partner classifier.

The toolkit couples any candidate-side base classifier with a partner
trained on non-candidate label information. The two supervise each other
through blurred confidence matrices, giving mislabeled training samples
repeated chances to be rectified.
"""

from .base import BaseClassifierKind, binarize_supervision, fit_predict_base
from .blur import blur_labeling, blur_noncandidate
from .core import (
    ConfidenceState,
    PartialLabelDataset,
    init_confidence,
    update_labeling_confidence,
    update_noncandidate_confidence,
)
from .data import SyntheticSpec, generate_synthetic, load_dataset, save_dataset, split
from .engine import EngineConfig, RunReport, run_base_alone, run_plcp, should_stop
from .kernel import KernelSolve, KernelSpec, gram_matrix, kkt_solve, predict
from .metrics import accuracy, correction_metrics
from .partner import PartnerConfig, PartnerModel, fit_partner, predict_labels
from .qp import RowQpProblem, solve_matrix

__all__ = [
    "BaseClassifierKind",
    "ConfidenceState",
    "EngineConfig",
    "KernelSolve",
    "KernelSpec",
    "PartialLabelDataset",
    "PartnerConfig",
    "PartnerModel",
    "RowQpProblem",
    "RunReport",
    "SyntheticSpec",
    "accuracy",
    "binarize_supervision",
    "blur_labeling",
    "blur_noncandidate",
    "correction_metrics",
    "fit_partner",
    "fit_predict_base",
    "generate_synthetic",
    "gram_matrix",
    "init_confidence",
    "kkt_solve",
    "load_dataset",
    "predict",
    "predict_labels",
    "run_base_alone",
    "run_plcp",
    "save_dataset",
    "should_stop",
    "solve_matrix",
    "split",
    "update_labeling_confidence",
    "update_noncandidate_confidence",
]
