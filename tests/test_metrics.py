import numpy as np
import pytest

from plcp.metrics import accuracy, correction_metrics


class TestAccuracy:
    def test_perfect(self):
        truth = np.array([0, 1, 2])
        assert accuracy(truth, truth) == 1.0

    def test_disjoint(self):
        assert accuracy(np.array([0, 0]), np.array([1, 1])) == 0.0

    def test_partial(self):
        assert accuracy(np.array([0, 1, 2, 3]), np.array([0, 1, 2, 0])) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.array([0]), np.array([0, 1]))

    @pytest.mark.parametrize("truth", [None, np.array([], dtype=int)])
    def test_missing_truth(self, truth):
        with pytest.raises(ValueError, match="ground truth required"):
            accuracy(np.array([0]), truth)


class TestCorrectionMetrics:
    @pytest.mark.parametrize("which", range(3))
    def test_length_mismatch(self, which):
        labels = [np.zeros(3, int), np.zeros(3, int), np.zeros(3, int)]
        labels[which] = np.zeros(2, int)
        with pytest.raises(ValueError, match="label vectors must have equal length"):
            correction_metrics(*labels)

    def test_extremes(self):
        truth = np.array([0, 0, 0])
        base = np.array([1, 1, 1])
        plcp = truth.copy()
        assert correction_metrics(base, plcp, truth) == (1.0, 0.0)

    def test_no_change(self):
        truth = np.array([0, 1, 2])
        base = np.array([0, 1, 0])
        assert correction_metrics(base, base, truth) == (0.0, 0.0)

    def test_mixed_counts(self):
        # base wrong on samples 1 and 2; the coupled run fixes sample 1 and
        # breaks sample 3 out of the two the base had right
        truth = np.array([0, 1, 1, 2])
        base = np.array([0, 0, 0, 2])
        plcp = np.array([0, 1, 0, 1])
        assert correction_metrics(base, plcp, truth) == (0.5, 0.5)

    def test_no_base_errors(self):
        truth = np.array([0, 1])
        assert correction_metrics(truth, np.array([1, 0]), truth) == (0.0, 1.0)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(3, size=30)
        base = rng.integers(3, size=30)
        plcp = rng.integers(3, size=30)
        ref = correction_metrics(base, plcp, truth)
        perm = rng.permutation(30)
        assert correction_metrics(base[perm], plcp[perm], truth[perm]) == ref

