import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from plcp import base as base_mod
from plcp import cli, engine, kernel, partner, qp
from plcp.base import BaseClassifierKind
from plcp.core import InvariantViolation, PartialLabelDataset, TrainSetup, init_confidence
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
        assert not should_stop([0.0], 0.05)
        assert should_stop([0.0, 0.0], 0.05)

    def test_persistent_change_keeps_going(self):
        fracs = [0.1, 0.1, 0.1]  # 10% change each round
        assert not any(should_stop(fracs[:n], 0.05) for n in range(4))

    def test_below_then_above_does_not_stop(self):
        assert not should_stop([0.04], 0.05)
        assert not should_stop([0.04, 0.06], 0.05)
        # only the last two rounds count
        assert not should_stop([0.01, 0.01, 0.06], 0.05)
        assert should_stop([0.06, 0.01, 0.01], 0.05)


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

    def test_derived_fields_read_the_rounds(self):
        train, _, report = blob_run(seed=5, max_iter=4, stop_change_frac=0.0)
        assert report.iterations_run == len(report.trajectories) == 4
        assert report.train_predictions is report.trajectories[-1].labels
        # each round's change fraction is against the round before, the
        # first against the argmax of the initial confidences
        labels = [engine._masked_argmax(init_confidence(train).p, train.candidates)]
        labels += [snap.labels for snap in report.trajectories]
        for prev, snap in zip(labels, report.trajectories):
            assert snap.change_frac == np.mean(snap.labels != prev)

    def test_confidence_state_invariants(self, monkeypatch):
        calls = count_calls(monkeypatch, engine, "_check_state")
        train, _, report = blob_run(seed=5)
        assert len(calls) == report.iterations_run
        state, y, yhat = calls[-1]
        assert y is train.candidates and yhat is train.noncandidates
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

    def test_kernel_ls_base_builds_one_gram_per_ridge(self, monkeypatch):
        # a lambda sweep cell: the partner's ridge differs from the base's,
        # and each ridge system is factored in the buffer of its own gram
        calls = []
        original = kernel.packed_gram

        def counting(x, spec):
            calls.append(spec)
            return original(x, spec)

        monkeypatch.setattr(kernel, "packed_gram", counting)
        config = EngineConfig(
            base=BaseClassifierKind(kind="kernel-ls"),
            partner=PartnerConfig(kernel=KernelSpec(ridge=0.2)),
            max_iter=2,
        )
        ds = generate_synthetic(SyntheticSpec(n=60, d=3, l=3, flip_q=0.3, seed=21))
        run_plcp(ds, ds.features[:5], config)
        assert len(calls) == 2

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
        calls = count_calls(monkeypatch, kernel, "dpftrf")
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("base", ["pl-knn", "kernel-ls"])
@pytest.mark.parametrize("runner", ["run_plcp", "run_base_alone"])
def test_non_finite_test_features_fail_before_any_work(monkeypatch, runner, base, bad):
    checks = count_calls(monkeypatch, engine, "_check_memory")
    grams = count_calls(monkeypatch, kernel, "packed_gram")
    sigmas = count_calls(monkeypatch, kernel, "resolve_sigma")
    ds = generate_synthetic(SyntheticSpec(n=40, d=3, l=3, flip_q=0.3, seed=5))
    test = ds.features[:3].copy()
    test[1, 2] = bad
    kind = BaseClassifierKind(kind=base)
    with pytest.raises(ValueError, match="test features contain NaN or Inf"):
        if runner == "run_plcp":
            run_plcp(ds, test, EngineConfig(base=kind))
        else:
            run_base_alone(ds, test, kind)
    assert checks == grams == sigmas == []
    assert ds.setup == TrainSetup()
    assert not vars(ds).keys() & {"noncandidates", "candidate_layout"}


class TestInvariantChecks:
    """Each typed check of a round's state raises on a state that breaks it."""

    @pytest.fixture
    def ds(self):
        # every row has a non-candidate label, so every check can be broken
        features = np.arange(8.0).reshape(4, 2)
        candidates = np.array([[1, 1, 0], [1, 0, 0], [0, 1, 1], [0, 0, 1]], dtype=float)
        return PartialLabelDataset(features, candidates)

    def test_initial_state_passes(self, ds):
        engine._check_state(init_confidence(ds), ds.candidates, ds.noncandidates)

    @pytest.mark.parametrize("name", ["o", "ohat"])
    def test_rows_must_sum_to_one(self, ds, name):
        state = init_confidence(ds)
        state = replace(state, **{name: 2.0 * getattr(state, name)})
        with pytest.raises(InvariantViolation, match=f"{name} rows must sum to 1"):
            engine._check_state(state, ds.candidates, ds.noncandidates)

    @pytest.mark.parametrize("name", ["o", "ohat"])
    def test_mass_must_vanish_off_candidates(self, ds, name):
        # row 1 puts all its mass on label 2, which is not a candidate
        moved = np.array(getattr(init_confidence(ds), name))
        moved[1] = [0.0, 0.0, 1.0]
        state = replace(init_confidence(ds), **{name: moved})
        with pytest.raises(InvariantViolation, match=f"{name} must vanish off-candidates"):
            engine._check_state(state, ds.candidates, ds.noncandidates)

    def test_p_must_stay_in_its_box(self, ds):
        p = np.array(init_confidence(ds).p)
        p[0, 2] = 0.1  # above y = 0 on a non-candidate
        state = replace(init_confidence(ds), p=p)
        with pytest.raises(InvariantViolation, match=r"p left the \[0, y\] box"):
            engine._check_state(state, ds.candidates, ds.noncandidates)

    def test_phat_must_stay_in_its_box(self, ds):
        phat = np.array(init_confidence(ds).phat)
        phat[0, 2] = 0.9  # below yhat = 1 on a non-candidate
        state = replace(init_confidence(ds), phat=phat)
        with pytest.raises(InvariantViolation, match=r"phat left the \[yhat, 1\] box"):
            engine._check_state(state, ds.candidates, ds.noncandidates)

    @pytest.mark.parametrize("name, message", [
        ("o", "o rows must sum to 1"),
        ("ohat", "ohat rows must sum to 1"),
        ("p", r"p left the \[0, y\] box"),
        ("phat", r"phat left the \[yhat, 1\] box"),
    ], ids=["o", "ohat", "p", "phat"])
    def test_nan_fails_its_check(self, ds, name, message):
        values = np.array(getattr(init_confidence(ds), name))
        values[0, 0] = np.nan  # label 0 is a candidate of row 0
        state = replace(init_confidence(ds), **{name: values})
        with pytest.raises(InvariantViolation, match=message):
            engine._check_state(state, ds.candidates, ds.noncandidates)


class TestConfigValidation:
    def test_alpha_range(self):
        with pytest.raises(ValueError, match="alpha"):
            EngineConfig(alpha=1.5)

    def test_max_iter(self):
        with pytest.raises(ValueError, match="max_iter"):
            EngineConfig(max_iter=0)

    @pytest.mark.parametrize("frac", [-0.1, 1.5])
    def test_stop_change_frac_range(self, frac):
        with pytest.raises(ValueError, match=r"stop_change_frac must be in \[0, 1\]"):
            EngineConfig(stop_change_frac=frac)

    def test_blur_temperature_guard(self):
        with pytest.raises(ValueError, match="ln 2"):
            EngineConfig(k=1.0)
        with pytest.warns(UserWarning):
            EngineConfig(k=0.5)

    def test_nan_temperature_rejected(self):
        with pytest.raises(ValueError, match="k is NaN"):
            EngineConfig(k=float("nan"))

    def test_minus_infinity_temperature_blurs_to_uniform(self, monkeypatch):
        fits = count_calls(monkeypatch, engine, "_fit_partner")
        bases = count_calls(monkeypatch, base_mod, "fit_predict_base")
        ds = generate_synthetic(SyntheticSpec(n=40, d=2, l=3, flip_q=0.5, seed=3))
        train, test = split(ds, 0.5, seed=4)
        report = run_plcp(train, test.features, EngineConfig(k=-np.inf, max_iter=2))
        assert report.iterations_run == len(fits) == len(bases) == 2
        y = train.candidates
        uniform = y / y.sum(axis=1, keepdims=True)
        # the o each partner fit reads and the ohat each base fit reads
        for o in [args[1] for args in fits] + [args[2] for args in bases]:
            np.testing.assert_allclose(o, uniform, rtol=0, atol=1e-15)

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


@pytest.mark.parametrize("labels, inverse", [(30, True), (2, False)])
def test_systems_built_for_reuse_follow_the_rule(monkeypatch, labels, inverse):
    # 60 train rows: at 30 labels a system holds B^{-1}, at 2 the factor,
    # whether a run's setup, the base or a partner fit alone builds it
    built, original = [], kernel.ridge_system

    def recording(*args):
        built.append(original(*args))
        return built[-1]

    monkeypatch.setattr(kernel, "ridge_system", recording)
    ds = generate_synthetic(SyntheticSpec(n=120, d=3, l=labels, flip_q=0.3, seed=5))
    train, test = split(ds, 0.5, seed=1)
    kind = BaseClassifierKind(kind="kernel-ls")
    run_plcp(train, test.features, EngineConfig(base=kind, max_iter=1))
    base_mod.prepare(kind, train)
    partner.fit_partner(train, init_confidence(train, -1.0).o, PartnerConfig())
    assert [s.inverse is not None for s in built] == [inverse] * 3


@pytest.mark.parametrize("n_test", [0, 7])
def test_run_base_alone_kernel_ls_builds_one_gram_and_factor(monkeypatch, n_test):
    grams = count_calls(monkeypatch, kernel, "packed_gram")
    factors = count_calls(monkeypatch, kernel, "dpftrf")
    solves = count_calls(monkeypatch, kernel, "kkt_solve")
    ds = generate_synthetic(SyntheticSpec(n=40, d=3, l=3, flip_q=0.3, seed=5))
    train_labels, test_labels = run_base_alone(
        ds, ds.features[:n_test], BaseClassifierKind(kind="kernel-ls")
    )
    assert (len(grams), len(factors), len(solves)) == (1, 1, 1)
    assert train_labels.shape == (40,) and test_labels.shape == (n_test,)


@pytest.mark.parametrize("base", ["pl-knn", "kernel-ls"])
def test_one_n_by_n_array_per_run(base):
    # the packed gram's buffer becomes the factor, half an n x n array, and
    # the test rows meet the train rows one block at a time: a square factor
    # alone would reach 1x, a gram beside it or the whole test-by-train
    # matrix beside it 1.5x
    ds = generate_synthetic(SyntheticSpec(n=4000, d=8, l=5, flip_q=0.5, seed=3))
    train, test = split(ds, 0.5, seed=4)
    config = EngineConfig(base=BaseClassifierKind(kind=base), max_iter=2)
    tracemalloc.start()
    try:
        run_plcp(train, test.features, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.8 * train.n_samples**2 * 8


@pytest.mark.parametrize("base", ["pl-knn", "kernel-ls"])
def test_a_warm_run_holds_few_label_arrays(base):
    # at 171 labels a round's n x l arrays outweigh the factor; a warm run,
    # whose memo holds the mask, the layout and the factor, peaks at about
    # 9.2 arrays of n_train x l (with as many test rows); a round that kept
    # its last state or partner past their last read would exceed 12
    ds = generate_synthetic(SyntheticSpec(n=1200, d=8, l=171, flip_q=1.1 / 170, seed=3))
    train, test = split(ds, 0.5, seed=3)
    config = EngineConfig(base=BaseClassifierKind(kind=base))
    run_plcp(train, test.features, config)
    tracemalloc.start()
    try:
        run_plcp(train, test.features, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * train.n_samples * train.label_count * 8


def test_blocked_test_prediction_equals_one_cross_matrix():
    # 600 test rows at 600 train rows make three blocks; the blocked output
    # repeats to the bit, matches one whole product to its last bits and
    # gives its labels
    ds = generate_synthetic(SyntheticSpec(n=1200, d=4, l=30, flip_q=0.3, seed=9))
    train, test = split(ds, 0.5, seed=10)
    assert test.n_samples > 2 * kernel.block_rows(train.n_samples)
    report = run_plcp(train, test.features, EngineConfig(max_iter=1))
    spec = KernelSpec(sigma=kernel.resolve_sigma(train.features, KernelSpec()))
    solve = report.final_partner.solve
    blocked = kernel.predict_query(solve, test.features, train.features, spec)
    again = kernel.predict_query(solve, test.features, train.features, spec)
    assert blocked.tobytes() == again.tobytes()
    whole = kernel.predict(solve, kernel.cross_matrix(test.features, train.features, spec))
    np.testing.assert_allclose(blocked, whole, rtol=0.0, atol=1e-12 * np.abs(whole).max())
    np.testing.assert_array_equal(report.test_predictions, partner.labels_from_output(whole))


SWEEP_INI = """
[dataset]
source = synthetic
n = 60
d = 2
l = 3
flip_q = 0.3

[engine]
max_iter = 3
stop_change_frac = 0

[partner]
gamma = {gamma}

[run]
seeds = 1,2
train_frac = 0.5
outputs = {out_dir}
emit_trajectories = false

[sweep]
{axes}
"""


def run_sweep_ini(tmp_path, gamma, axes):
    ini = tmp_path / "sweep.ini"
    ini.write_text(SWEEP_INI.format(gamma=gamma, out_dir=tmp_path / "out", axes=axes))
    assert cli.main(["sweep", str(ini)]) == 0
    return cli.read_results_csv(tmp_path / "out" / "sweep.csv")


def fresh_copy(dataset):
    return PartialLabelDataset(dataset.features, dataset.candidates, dataset.ground_truth)


class TestGammaZeroPartner:
    """At gamma 0 the partner never reads its supervision, so a train set
    fits it once per partner config and every round and run reuses it."""

    @pytest.mark.parametrize("gamma, fits", [(0.0, 1), (2.0, 3)])
    def test_partner_fits_per_run(self, monkeypatch, gamma, fits):
        calls = count_calls(monkeypatch, partner, "fit_partner")
        _, _, report = blob_run(
            max_iter=3, stop_change_frac=0.0, partner=PartnerConfig(gamma=gamma)
        )
        assert report.iterations_run == 3
        assert len(calls) == fits

    def test_alpha_sweep_fits_once_per_split(self, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, partner, "fit_partner")
        rows = run_sweep_ini(tmp_path, 0, "alpha = 0.3,0.5,0.7")
        rounds = [r["iterations_run"] for r in rows if r["method"] == "pl-knn-plcp"]
        # six runs of three rounds each, on two splits
        assert rounds == [3] * 3 * 2
        assert len(calls) == 2

    def test_lambda_alpha_sweep_holds_one_cached_partner(self, tmp_path, monkeypatch):
        refs, alive_at_fit = [], []
        original = partner.fit_partner

        def tracked(*args):
            alive_at_fit.append(sum(ref() is not None for ref in refs))
            model = original(*args)
            refs.append(weakref.ref(model))
            return model

        monkeypatch.setattr(partner, "fit_partner", tracked)
        run_sweep_ini(tmp_path, 0, "lambda = 0.05,0.2,0.5\nalpha = 0.3,0.7")
        # one fit per (seed, lambda), and none of another config alive at it
        assert alive_at_fit == [0] * 2 * 3

    @pytest.mark.parametrize("base", ["pl-knn", "kernel-ls"])
    def test_shared_train_set_reports_equal_fresh_ones(self, base):
        ds = generate_synthetic(SyntheticSpec(n=120, d=3, l=4, flip_q=0.4, seed=31))
        train, test = split(ds, 0.5, seed=32)
        configs = [
            EngineConfig(
                base=BaseClassifierKind(kind=base), alpha=alpha, max_iter=3,
                partner=PartnerConfig(gamma=0.0, kernel=KernelSpec(ridge=ridge)),
            )
            for ridge in (0.05, 0.2) for alpha in (0.3, 0.7)
        ]
        for config in configs:
            shared = run_plcp(train, test.features, config)
            fresh = run_plcp(fresh_copy(train), test.features, config)
            np.testing.assert_array_equal(shared.train_predictions, fresh.train_predictions)
            np.testing.assert_array_equal(shared.test_predictions, fresh.test_predictions)
            assert shared.final_partner.c.tobytes() == fresh.final_partner.c.tobytes()
            assert len(shared.trajectories) == len(fresh.trajectories)
            for a, b in zip(shared.trajectories, fresh.trajectories):
                np.testing.assert_array_equal(a.labels, b.labels)
                assert a.change_frac == b.change_frac
                assert a.truth_confidence.tobytes() == b.truth_confidence.tobytes()
                assert a.max_false_confidence.tobytes() == b.max_false_confidence.tobytes()

    def test_candidate_layout_built_once_per_train_set(self, monkeypatch):
        builds = count_calls(monkeypatch, qp, "candidate_layout")
        ds = generate_synthetic(SyntheticSpec(n=120, d=3, l=9, flip_q=0.4, seed=31))
        train, test = split(ds, 0.5, seed=32)
        run_base_alone(train, test.features, BaseClassifierKind())
        assert builds == []
        for gamma in (0.0, 2.0):
            config = EngineConfig(max_iter=2, partner=PartnerConfig(gamma=gamma))
            run_plcp(train, test.features, config)
        assert len(builds) == 1
        assert len(train.candidate_layout.index) < 9

    def test_cached_partner_c_survives_later_fits(self):
        # the row QP returns a fresh array a fit, so no later fit on the
        # train set can write into the c that the memo keeps
        ds = generate_synthetic(SyntheticSpec(n=120, d=3, l=4, flip_q=0.4, seed=31))
        train, test = split(ds, 0.5, seed=32)
        config = EngineConfig(max_iter=2, partner=PartnerConfig(gamma=0.0))
        cached = run_plcp(train, test.features, config).final_partner
        kept = cached.c.tobytes()
        coupled = run_plcp(
            train, test.features, replace(config, partner=PartnerConfig(gamma=2.0))
        ).final_partner
        assert not np.shares_memory(coupled.c, cached.c)
        assert run_plcp(train, test.features, config).final_partner is cached
        assert cached.c.tobytes() == kept


class TestMemoryCheck:
    @pytest.mark.parametrize("base", ["pl-knn", "kernel-ls"])
    def test_run_too_large_for_memory_fails_before_any_work(self, monkeypatch, base):
        monkeypatch.setattr(engine, "_physical_memory", lambda: 1 << 20)
        grams = count_calls(monkeypatch, kernel, "packed_gram")
        sigmas = count_calls(monkeypatch, kernel, "resolve_sigma")
        searches = count_calls(monkeypatch, base_mod, "neighbour_table")
        ds = generate_synthetic(SyntheticSpec(n=800, d=3, l=3, flip_q=0.3, seed=5))
        kind = BaseClassifierKind(kind=base)
        with pytest.raises(MemoryError, match=r"800 train and 7 test samples.*1 MiB"):
            run_plcp(ds, ds.features[:7], EngineConfig(base=kind))
        if base == "kernel-ls":
            with pytest.raises(MemoryError, match="800x800"):
                run_base_alone(ds, ds.features[:7], kind)
        assert grams == [] and sigmas == [] and searches == []

    def test_estimate_counts_one_factor_per_ridge_system(self, monkeypatch):
        # 800 * 801 / 2 * 8 bytes is 2.4 MiB: one factor fits in 4 MiB, two
        # do not
        monkeypatch.setattr(engine, "_physical_memory", lambda: 4 << 20)
        ds = generate_synthetic(SyntheticSpec(n=800, d=3, l=3, flip_q=0.3, seed=5))
        kind = BaseClassifierKind(kind="kernel-ls")
        run_plcp(ds, ds.features[:7], EngineConfig(base=kind, max_iter=1))
        lambda_cell = EngineConfig(
            base=kind, partner=PartnerConfig(kernel=KernelSpec(ridge=0.2)), max_iter=1
        )
        with pytest.raises(MemoryError, match="2 ridge system"):
            run_plcp(ds, ds.features[:7], lambda_cell)

    def test_unused_factors_drop_before_the_bandwidth_distances(self, monkeypatch):
        # a linear run leaves its 2.4 MiB factor in the setup; the next run's
        # Gaussian bandwidth builds 2.4 MiB of pairwise distances only after
        # that factor is gone, so 4 MiB holds the run
        ds = generate_synthetic(SyntheticSpec(n=800, d=3, l=3, flip_q=0.3, seed=5))
        linear = EngineConfig(partner=PartnerConfig(kernel=KernelSpec(kind="linear")), max_iter=1)
        run_plcp(ds, ds.features[:7], linear)
        held, resolve = [], kernel.resolve_sigma

        def resolving(x, spec):
            if spec.sigma is None:
                held.append(list(ds.setup.systems))
            return resolve(x, spec)

        monkeypatch.setattr(kernel, "resolve_sigma", resolving)
        monkeypatch.setattr(engine, "_physical_memory", lambda: 4 << 20)
        run_plcp(ds, ds.features[:7], EngineConfig(max_iter=1))
        assert held == [[]]
        assert list(ds.setup.systems) == [KernelSpec(sigma=ds.setup.sigma)]

    def test_a_run_that_builds_no_factor_drops_none(self, monkeypatch):
        # a kernel-ls run at partner ridge 0.2 keeps two factors on one
        # bandwidth; runs whose factors and bandwidth are all in the setup
        # drop neither
        ds = generate_synthetic(SyntheticSpec(n=120, d=3, l=3, flip_q=0.3, seed=5))
        kind = BaseClassifierKind(kind="kernel-ls")
        partner_cfg = PartnerConfig(kernel=KernelSpec(ridge=0.2))
        sigmas = count_calls(monkeypatch, kernel, "resolve_sigma")
        run_plcp(ds, ds.features[:7], EngineConfig(base=kind, partner=partner_cfg, max_iter=1))
        both = list(ds.setup.systems)
        unpinned = [spec for _, spec in sigmas if spec.sigma is None]
        assert len(both) == 2 and len(unpinned) == 1
        grams = count_calls(monkeypatch, kernel, "packed_gram")
        run_base_alone(ds, ds.features[:7], BaseClassifierKind(kind="pl-knn"))
        run_plcp(ds, ds.features[:7], EngineConfig(partner=partner_cfg, max_iter=1))
        run_base_alone(ds, ds.features[:7], kind)
        assert list(ds.setup.systems) == both and grams == []

    def test_label_arrays_count_beside_the_factor(self, monkeypatch):
        # 400 train rows at 171 labels: the inverse, the triangle it is
        # unpacked from and a block of test rows take 1.8 MiB, but 11 train
        # and 2 test label arrays take 5.8 MiB more
        monkeypatch.setattr(engine, "_physical_memory", lambda: 4 << 20)
        ds = generate_synthetic(SyntheticSpec(n=400, d=3, l=171, flip_q=1.1 / 170, seed=5))
        grams = count_calls(monkeypatch, kernel, "packed_gram")
        message = (
            r"400 train and 7 test samples with 171 labels need about 8 MiB"
            r".*each a square inverse.*11 train"
        )
        with pytest.raises(MemoryError, match=message):
            run_plcp(ds, ds.features[:7], EngineConfig())
        assert grams == []
        engine._check_memory(400, 7, 5, (KernelSpec(),))

    @staticmethod
    def charged(monkeypatch, n_train, n_labels, specs):
        """The bytes the check charges: the least physical memory it accepts."""
        low, high = 0, 1 << 40
        while low < high:
            memory = (low + high) // 2
            monkeypatch.setattr(engine, "_physical_memory", lambda: memory)
            try:
                engine._check_memory(n_train, 0, n_labels, specs)
                high = memory
            except MemoryError:
                low = memory + 1
        return low

    @pytest.mark.parametrize(
        "n_train, n_labels, held, build",
        [(600, 30, 600 * 600, 600 * 601 // 2), (601, 30, 601 * 602 // 2, 0),
         (1500, 171, 1500 * 1500, 1500 * 1501 // 2), (2000, 5, 2000 * 2001 // 2, 0)],
    )
    def test_estimate_charges_what_each_system_holds(
        self, monkeypatch, n_train, n_labels, held, build
    ):
        # an inverse-held system charges n_train^2 and, once, the packed
        # triangle it is unpacked from; a factor its n_train(n_train+1)/2
        specs = (KernelSpec(), KernelSpec(ridge=0.2))
        none, one, two = (
            self.charged(monkeypatch, n_train, n_labels, specs[:k]) for k in range(3)
        )
        assert (two - one, one - none) == (8 * held, 8 * (held + build))

    def test_inverse_builds_in_its_charge(self, monkeypatch):
        # the build of an inverse peaks at what the check charges for it and
        # a row block's temporaries, about 1.2 MiB
        n, labels = 1500, 171
        charge = self.charged(monkeypatch, n, labels, (KernelSpec(),))
        charge -= self.charged(monkeypatch, n, labels, ())
        x = np.random.default_rng(4).normal(size=(n, 8))
        tracemalloc.start()
        try:
            system = kernel.ridge_system(x, KernelSpec(sigma=3.0), labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert system.inverse is not None
        assert charge <= peak <= charge + (2 << 20)

    def test_linear_system_builds_in_the_memory_of_a_gaussian_one(self, monkeypatch):
        # a linear gram is packed from row blocks, as a Gaussian one is, so
        # its build peaks near the 16.0 MB factor it keeps, and the check
        # charges it that factor only: one of 800 rows, 2.4 MiB, fits in 4
        x = np.random.default_rng(4).normal(size=(2000, 8))
        peaks = {}
        for spec in (KernelSpec(sigma=3.0), KernelSpec(kind="linear")):
            tracemalloc.start()
            try:
                kernel.ridge_system(x, spec)
                peaks[spec.kind] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["linear"] <= 1.1 * peaks["gaussian"]
        monkeypatch.setattr(engine, "_physical_memory", lambda: 4 << 20)
        ds = generate_synthetic(SyntheticSpec(n=800, d=3, l=3, flip_q=0.3, seed=5))
        linear = EngineConfig(partner=PartnerConfig(kernel=KernelSpec(kind="linear")), max_iter=1)
        run_plcp(ds, ds.features[:7], linear)


# one small run per base, at an odd and an even n_train (301 and 302 rows),
# printing a digest of the train and test labels of each
LABEL_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from plcp.base import BaseClassifierKind
from plcp.data import SyntheticSpec, generate_synthetic, split
from plcp.engine import EngineConfig, run_plcp

for base, n in (("pl-knn", 602), ("kernel-ls", 604)):
    ds = generate_synthetic(SyntheticSpec(n=n, d=8, l=5, flip_q=0.5, seed=41))
    train, test = split(ds, 0.5, seed=42)
    config = EngineConfig(base=BaseClassifierKind(kind=base), max_iter=2)
    report = run_plcp(train, test.features, config)
    labels = np.concatenate([report.train_predictions, report.test_predictions])
    print(base, train.n_samples, hashlib.sha256(labels.astype(np.int64).tobytes()).hexdigest())
"""


def test_labels_identical_across_blas_thread_counts():
    # floats may differ in their last bits between thread counts; labels may not
    src = str(Path(engine.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        runs.append(subprocess.Popen(
            [sys.executable, "-c", LABEL_DIGEST_SCRIPT],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ))
    try:
        results = [run.communicate(timeout=120) for run in runs]
    finally:
        for run in runs:
            run.kill()
    for run, (_, err) in zip(runs, results):
        assert run.returncode == 0, err
    outputs = [out.split("\n") for out, _ in results]
    assert outputs[0] == outputs[1]
    sizes = [line.split()[:2] for line in outputs[0][:2]]
    assert sizes == [["pl-knn", "301"], ["kernel-ls", "302"]]
