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
from .partner import PartnerConfig, PartnerModel, fit_partner
from .qp import RowQpProblem, solve_matrix
