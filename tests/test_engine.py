import tracemalloc
from collections import deque

import numpy as np
import pytest

from plcp import engine, kernel, partner
from plcp.base import BaseClassifierKind
from plcp.core import PartialLabelDataset
from plcp.data import SyntheticSpec, generate_synthetic, split
from plcp.engine import EngineConfig, run_base_alone, run_plcp, should_stop
from plcp.kernel import KernelSpec
from plcp.metrics import accuracy
from plcp.partner import PartnerConfig


def count_calls(monkeypatch, module, name):
    """Record the arguments of every call to ``module.name``."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def blob_run(seed=7, n=200, l=4, flip_q=0.5, **cfg_kwargs):
    ds = generate_synthetic(SyntheticSpec(n=n, d=4, l=l, flip_q=flip_q, seed=seed))
    train, test = split(ds, 0.5, seed=seed + 1)
    config = EngineConfig(**cfg_kwargs)
    return train, test, run_plcp(train, test.features, config)


class TestShouldStop:
    def test_identical_twice_stops(self):
        labels = np.array([0, 1, 2, 1])
        history = deque(maxlen=2)
        assert not should_stop(labels, labels, history, 0.05)
        assert should_stop(labels, labels, history, 0.05)

    def test_persistent_change_keeps_going(self):
        history = deque(maxlen=2)
        a = np.zeros(10, dtype=int)
        b = a.copy()
        b[0] = 1  # 10% change each round
        assert not should_stop(a, b, history, 0.05)
        assert not should_stop(b, a, history, 0.05)
        assert not should_stop(a, b, history, 0.05)

    def test_below_then_above_does_not_stop(self):
        history = deque(maxlen=2)
        a = np.zeros(100, dtype=int)
        b = a.copy()
        b[:4] = 1  # 4% change
        c = a.copy()
        c[:6] = 2  # 6% change
        assert not should_stop(a, b, history, 0.05)
        assert not should_stop(a, c, history, 0.05)
        assert history[0] == pytest.approx(0.04)
        assert history[1] == pytest.approx(0.06)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            should_stop(np.zeros(3), np.zeros(4), deque(maxlen=2), 0.05)


class TestRunPlcp:
    def test_max_iter_one(self):
        _, _, report = blob_run(max_iter=1)
        assert report.iterations_run == 1
        assert len(report.trajectories) == 1

    def test_single_candidate_dataset_short_circuits(self):
        ds = generate_synthetic(SyntheticSpec(n=60, d=2, l=3, flip_q=0.0, seed=3))
        train, test = split(ds, 0.5, seed=4)
        report = run_plcp(train, test.features, EngineConfig())
        np.testing.assert_array_equal(report.train_predictions, train.ground_truth)
        # labels are pinned from the start, so the change fraction is zero
        # twice in a row and the loop exits well before the cap
        assert report.iterations_run == 2
        assert all(snap.change_frac == 0.0 for snap in report.trajectories)

    def test_deterministic(self):
        _, _, first = blob_run(seed=11)
        _, _, second = blob_run(seed=11)
        np.testing.assert_array_equal(first.train_predictions, second.train_predictions)
        np.testing.assert_array_equal(first.test_predictions, second.test_predictions)
        assert first.iterations_run == second.iterations_run

    def test_confidence_state_invariants(self):
        train, _, report = blob_run(seed=5)
        y = train.candidates
        state = report.final_state
        np.testing.assert_allclose(state.o.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(state.ohat.sum(axis=1), 1.0, atol=1e-9)
        assert (state.o[y == 0] == 0.0).all()
        assert (state.ohat[y == 0] == 0.0).all()
        assert (state.p >= -1e-12).all() and (state.p <= y + 1e-12).all()
        assert (state.phat >= 1.0 - y - 1e-12).all() and (state.phat <= 1.0 + 1e-12).all()

    def test_improves_over_base_alone(self):
        ds = generate_synthetic(SyntheticSpec(n=300, d=4, l=3, flip_q=0.3, seed=2))
        train, test = split(ds, 0.5, seed=2)
        config = EngineConfig()
        base_train, _ = run_base_alone(train, test.features, config.base)
        report = run_plcp(train, test.features, config)
        assert accuracy(report.train_predictions, train.ground_truth) >= accuracy(
            base_train, train.ground_truth
        )

    def test_supervision_mutation_rescues_a_sample(self):
        # a sample ranked wrong after the first base pass flips to the
        # ground truth once the partner side weighs in
        train, _, report = blob_run(seed=19, n=300, flip_q=0.5)
        truth = train.ground_truth
        first = report.trajectories[0].labels
        final = report.train_predictions
        rescued = (first != truth) & (final == truth)
        assert rescued.any()

    def test_trajectory_confidences_tracked(self):
        train, _, report = blob_run(seed=3, n=100)
        snap = report.trajectories[0]
        assert snap.truth_confidence.shape == (train.n_samples,)
        assert snap.max_false_confidence.shape == (train.n_samples,)
        assert (snap.truth_confidence >= 0.0).all()

    def test_predict_from_base_flag(self):
        _, test, report = blob_run(seed=9, predict_from_base=True)
        assert report.test_predictions.shape == (test.n_samples,)
        assert report.test_predictions.min() >= 0

    def test_kernel_ls_base(self):
        kind = BaseClassifierKind(kind="kernel-ls")
        ds = generate_synthetic(SyntheticSpec(n=120, d=3, l=3, flip_q=0.3, seed=21))
        train, test = split(ds, 0.5, seed=22)
        report = run_plcp(train, test.features, EngineConfig(base=kind))
        acc = accuracy(report.test_predictions, test.ground_truth)
        assert acc > 0.5

    def test_kernel_ls_base_shares_gram_across_ridges(self, monkeypatch):
        # a lambda sweep cell: the partner's ridge differs from the base's,
        # but the gram depends on kind and sigma only, so it is built once
        calls = []
        original = kernel.gram_matrix

        def counting(x, spec):
            calls.append(spec)
            return original(x, spec)

        monkeypatch.setattr(kernel, "gram_matrix", counting)
        config = EngineConfig(
            base=BaseClassifierKind(kind="kernel-ls"),
            partner=PartnerConfig(kernel=KernelSpec(ridge=0.2)),
            max_iter=2,
        )
        ds = generate_synthetic(SyntheticSpec(n=60, d=3, l=3, flip_q=0.3, seed=21))
        run_plcp(ds, ds.features[:5], config)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "base, partner_ridge, factors",
        [
            ("pl-knn", 0.05, 1),
            ("kernel-ls", 0.05, 1),
            # a lambda cell: the base keeps its ridge, so it needs its own factor
            ("kernel-ls", 0.2, 2),
        ],
    )
    def test_factors_once_per_ridge(self, monkeypatch, base, partner_ridge, factors):
        calls = count_calls(monkeypatch, kernel, "cho_factor")
        config = EngineConfig(
            base=BaseClassifierKind(kind=base),
            partner=PartnerConfig(kernel=KernelSpec(ridge=partner_ridge)),
            max_iter=3,
            stop_change_frac=0.0,
            predict_from_base=True,
        )
        ds = generate_synthetic(SyntheticSpec(n=60, d=3, l=3, flip_q=0.3, seed=21))
        report = run_plcp(ds, ds.features[:5], config)
        assert report.iterations_run == 3
        assert len(calls) == factors

    def test_binarized_supervision_path(self):
        kind = BaseClassifierKind(kind="pl-knn", binarize=True)
        _, test, report = blob_run(seed=15, base=kind)
        assert report.test_predictions.shape == (test.n_samples,)

    def test_empty_test_set(self):
        ds = generate_synthetic(SyntheticSpec(n=40, d=2, l=3, flip_q=0.2, seed=1))
        report = run_plcp(ds, np.zeros((0, 2)), EngineConfig(max_iter=1))
        assert report.test_predictions.shape == (0,)

    def test_mismatched_test_features_rejected(self):
        ds = generate_synthetic(SyntheticSpec(n=40, d=3, l=3, flip_q=0.2, seed=1))
        with pytest.raises(ValueError, match="columns"):
            run_plcp(ds, np.zeros((5, 2)), EngineConfig(max_iter=1))


class TestConfigValidation:
    def test_alpha_range(self):
        with pytest.raises(ValueError, match="alpha"):
            EngineConfig(alpha=1.5)

    def test_max_iter(self):
        with pytest.raises(ValueError, match="max_iter"):
            EngineConfig(max_iter=0)

    def test_blur_temperature_guard(self):
        with pytest.raises(ValueError, match="ln 2"):
            EngineConfig(k=1.0)
        with pytest.warns(UserWarning):
            EngineConfig(k=0.5)

    def test_nan_temperature_rejected(self):
        with pytest.raises(ValueError, match="k is NaN"):
            EngineConfig(k=float("nan"))

    def test_minus_infinity_temperature_blurs_to_uniform(self):
        ds = generate_synthetic(SyntheticSpec(n=40, d=2, l=3, flip_q=0.5, seed=3))
        train, test = split(ds, 0.5, seed=4)
        report = run_plcp(train, test.features, EngineConfig(k=-np.inf, max_iter=2))
        y = train.candidates
        uniform = y / y.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(report.final_state.o, uniform, rtol=0, atol=1e-15)
        np.testing.assert_allclose(report.final_state.ohat, uniform, rtol=0, atol=1e-15)

    def test_gamma_guard(self):
        with pytest.raises(ValueError, match="gamma"):
            EngineConfig(partner=PartnerConfig(gamma=-1.0))


def test_run_base_alone_uses_candidate_mask():
    features = np.array([[0.0], [0.1], [5.0], [5.1]])
    candidates = np.array([[1, 1], [1, 0], [0, 1], [1, 1]], dtype=float)
    ds = PartialLabelDataset(features, candidates)
    kind = BaseClassifierKind(kind="pl-knn", k_neighbors=1)
    train_labels, test_labels = run_base_alone(ds, np.array([[0.05], [5.05]]), kind)
    assert train_labels.shape == (4,)
    # sample 1 only has label 0 as candidate
    assert train_labels[1] == 0
    assert test_labels.shape == (2,)


@pytest.mark.parametrize("n_test", [0, 7])
def test_run_base_alone_kernel_ls_builds_one_gram_and_factor(monkeypatch, n_test):
    grams = count_calls(monkeypatch, kernel, "gram_matrix")
    factors = count_calls(monkeypatch, kernel, "cho_factor")
    ds = generate_synthetic(SyntheticSpec(n=40, d=3, l=3, flip_q=0.3, seed=5))
    train_labels, test_labels = run_base_alone(
        ds, ds.features[:n_test], BaseClassifierKind(kind="kernel-ls")
    )
    assert (len(grams), len(factors)) == (1, 1)
    assert train_labels.shape == (40,) and test_labels.shape == (n_test,)


@pytest.mark.parametrize("base", ["pl-knn", "kernel-ls"])
def test_one_n_by_n_array_per_run(base):
    # the gram's buffer becomes the factor, and the test rows meet the
    # train rows one block at a time: a gram beside its factor, or the
    # whole test-by-train matrix beside it, would each reach 2x
    ds = generate_synthetic(SyntheticSpec(n=4000, d=8, l=5, flip_q=0.5, seed=3))
    train, test = split(ds, 0.5, seed=4)
    config = EngineConfig(base=BaseClassifierKind(kind=base), max_iter=2)
    tracemalloc.start()
    try:
        run_plcp(train, test.features, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.35 * train.n_samples**2 * 8


def test_blocked_test_prediction_equals_one_cross_matrix():
    # l=30 at 600 train rows splits the 600 test rows into several blocks
    ds = generate_synthetic(SyntheticSpec(n=1200, d=4, l=30, flip_q=0.3, seed=9))
    train, test = split(ds, 0.5, seed=10)
    assert len(kernel.query_blocks(test.n_samples, train.n_samples, 30)) > 1
    report = run_plcp(train, test.features, EngineConfig(max_iter=1))
    spec = KernelSpec(sigma=kernel.resolve_sigma(train.features, KernelSpec()))
    k_cross = kernel.cross_matrix(test.features, train.features, spec)
    np.testing.assert_array_equal(
        report.test_predictions,
        partner.labels_from_output(kernel.predict(report.final_partner.solve, k_cross)),
    )


class TestMemoryCheck:
    @pytest.mark.parametrize("base", ["pl-knn", "kernel-ls"])
    def test_run_too_large_for_memory_fails_before_any_work(self, monkeypatch, base):
        monkeypatch.setattr(engine, "_physical_memory", lambda: 1 << 20)
        grams = count_calls(monkeypatch, kernel, "gram_matrix")
        sigmas = count_calls(monkeypatch, kernel, "resolve_sigma")
        ds = generate_synthetic(SyntheticSpec(n=800, d=3, l=3, flip_q=0.3, seed=5))
        kind = BaseClassifierKind(kind=base)
        with pytest.raises(MemoryError, match=r"800 train and 7 test samples.*1 MiB"):
            run_plcp(ds, ds.features[:7], EngineConfig(base=kind))
        if base == "kernel-ls":
            with pytest.raises(MemoryError, match="800x800"):
                run_base_alone(ds, ds.features[:7], kind)
        assert grams == [] and sigmas == []

    def test_estimate_counts_one_factor_per_ridge_system(self, monkeypatch):
        # 800^2 * 8 bytes is 4.9 MiB: one factor fits in 8 MiB, two do not
        monkeypatch.setattr(engine, "_physical_memory", lambda: 8 << 20)
        ds = generate_synthetic(SyntheticSpec(n=800, d=3, l=3, flip_q=0.3, seed=5))
        kind = BaseClassifierKind(kind="kernel-ls")
        run_plcp(ds, ds.features[:7], EngineConfig(base=kind, max_iter=1))
        lambda_cell = EngineConfig(
            base=kind, partner=PartnerConfig(kernel=KernelSpec(ridge=0.2)), max_iter=1
        )
        with pytest.raises(MemoryError, match="2 ridge system"):
            run_plcp(ds, ds.features[:7], lambda_cell)
