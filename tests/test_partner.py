import operator

import numpy as np
import pytest

from plcp import qp
from plcp.core import InvariantViolation, PartialLabelDataset
from plcp.kernel import (
    KernelSolve,
    KernelSpec,
    cross_matrix,
    gram_matrix,
    kkt_solve,
    predict,
    ridge_system,
    training_output,
)
from plcp.partner import PartnerConfig, PartnerModel, fit_partner, labels_from_output
from plcp.qp import solve_matrix


def random_dataset(rng, n=20, d=3, l=4):
    features = rng.normal(size=(n, d))
    candidates = (rng.random((n, l)) < 0.5).astype(float)
    candidates[np.arange(n), rng.integers(l, size=n)] = 1.0
    return PartialLabelDataset(features, candidates)


def uniform_supervision(dataset):
    y = dataset.candidates
    return y / y.sum(axis=1, keepdims=True)


def feasible_complement_start(dataset):
    # non-candidates pinned at 1, candidates sharing the remaining mass
    y = dataset.candidates
    sizes = y.sum(axis=1, keepdims=True)
    return (1.0 - y) + y * (sizes - 1.0) / sizes


def objective(j, c, o, solve, gram, config):
    fit = float(((j - c) ** 2).sum())
    coupling = config.gamma * float((o * c).sum())
    a = solve.dual_coeffs
    norm = float(np.einsum("ij,ik,kj->", a, gram, a)) / (4.0 * config.kernel.ridge)
    return fit + coupling + norm


class TestFitPartner:
    @pytest.mark.parametrize("seed", range(8))
    def test_objective_trace_non_increasing(self, seed):
        rng = np.random.default_rng(seed)
        dataset = random_dataset(rng)
        model = fit_partner(dataset, uniform_supervision(dataset), PartnerConfig())
        trace = model.objective_trace
        assert (np.diff(trace) <= 1e-8).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_objective_trace_matches_einsum_oracle(self, seed):
        # the traced norm term reads sum(A * (J - bias)) / 2, not K A
        rng = np.random.default_rng(seed)
        dataset = random_dataset(rng)
        o = uniform_supervision(dataset)
        config = PartnerConfig()
        model = fit_partner(dataset, o, config)
        gram = gram_matrix(dataset.features, config.kernel)
        expected = objective(
            training_output(model.solve), model.c, o, model.solve, gram, config
        )
        assert model.objective_trace[-1] == pytest.approx(expected, rel=1e-10)

    def test_gamma_zero_first_solve_matches_plain_ridge(self):
        # with no coupling and zero initial output, the opening C step lands
        # on the feasible spread point, so the first ridge solve must match
        # a direct solve onto that same matrix
        rng = np.random.default_rng(3)
        dataset = random_dataset(rng)
        config = PartnerConfig(gamma=0.0, inner_iters=1, kernel=KernelSpec(sigma=1.0))
        model = fit_partner(dataset, uniform_supervision(dataset), config)
        c_start = feasible_complement_start(dataset)
        np.testing.assert_allclose(model.c, c_start, atol=1e-9)
        gram = gram_matrix(dataset.features, config.kernel)
        expected = training_output(kkt_solve(gram, c_start, config.kernel.ridge))
        np.testing.assert_allclose(
            training_output(model.solve), expected, atol=1e-10
        )

    def test_constraints_hold(self):
        rng = np.random.default_rng(11)
        dataset = random_dataset(rng, n=30, l=5)
        model = fit_partner(dataset, uniform_supervision(dataset), PartnerConfig())
        yhat = dataset.noncandidates
        assert (model.c >= yhat - 1e-9).all()
        assert (model.c <= 1.0 + 1e-9).all()
        np.testing.assert_allclose(model.c.sum(axis=1), 4.0, atol=1e-9)

    def test_coupling_stays_soft_at_default_gamma(self):
        rng = np.random.default_rng(17)
        dataset = random_dataset(rng, n=25, l=4)
        model = fit_partner(dataset, uniform_supervision(dataset), PartnerConfig(gamma=2.0))
        candidates = dataset.candidates > 0
        strict = (model.c > 0.01) & (model.c < 0.99) & candidates
        assert strict.any()

    def test_single_candidate_rows_forced_zero_hot(self):
        features = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        candidates = np.eye(3)
        dataset = PartialLabelDataset(features, candidates)
        model = fit_partner(dataset, candidates, PartnerConfig())
        np.testing.assert_allclose(model.c, 1.0 - candidates, atol=1e-9)

    def test_beats_random_feasible_restarts(self):
        rng = np.random.default_rng(5)
        dataset = random_dataset(rng, n=20, l=3)
        o = uniform_supervision(dataset)
        config = PartnerConfig(inner_iters=30, inner_tol=0.0)
        model = fit_partner(dataset, o, config)
        gram = gram_matrix(dataset.features, config.kernel)
        fitted = objective(
            training_output(model.solve), model.c, o, model.solve, gram, config
        )
        yhat = dataset.noncandidates
        for _ in range(100):
            c_rand = solve_matrix(
                rng.normal(size=o.shape), np.zeros_like(o), yhat, gamma=0.0
            )
            solve = kkt_solve(gram, c_rand, config.kernel.ridge)
            candidate_obj = objective(
                training_output(solve), c_rand, o, solve, gram, config
            )
            assert fitted <= candidate_obj + 1e-8

    def test_aggressive_coupling_pulls_toward_complement(self):
        rng = np.random.default_rng(23)
        dataset = random_dataset(rng, n=15, l=3)
        o = uniform_supervision(dataset)
        soft = fit_partner(dataset, o, PartnerConfig(gamma=2.0))
        hard = fit_partner(dataset, o, PartnerConfig(gamma=2.0, aggressive=True))
        gap_soft = float(np.abs(soft.c + o - 1.0)[dataset.candidates > 0].mean())
        gap_hard = float(np.abs(hard.c + o - 1.0)[dataset.candidates > 0].mean())
        assert gap_hard < gap_soft

    @pytest.mark.parametrize("aggressive", [False, True])
    def test_gamma_zero_fit_does_not_read_the_supervision(self, aggressive):
        # the engine's memo serves one gamma-0 fit to every later round and run
        rng = np.random.default_rng(3)
        dataset = random_dataset(rng)
        skewed = dataset.candidates * rng.random(dataset.candidates.shape)
        skewed /= skewed.sum(axis=1, keepdims=True)
        config = PartnerConfig(gamma=0.0, aggressive=aggressive)
        a, b = (fit_partner(dataset, o, config) for o in (uniform_supervision(dataset), skewed))
        for name in ("c", "solve.dual_coeffs", "solve.bias", "solve.fitted", "objective_trace"):
            first, second = (operator.attrgetter(name)(model) for model in (a, b))
            assert first.tobytes() == second.tobytes(), name

    def test_model_arrays_are_read_only(self):
        dataset = random_dataset(np.random.default_rng(4))
        model = fit_partner(dataset, uniform_supervision(dataset), PartnerConfig())
        for array in (
            model.c, model.objective_trace,
            model.solve.dual_coeffs, model.solve.bias, model.solve.fitted,
        ):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    @pytest.mark.parametrize("aggressive", [False, True])
    def test_fits_on_one_train_set_share_its_layout(self, monkeypatch, aggressive):
        builds, layouts = [], []
        build, solve = qp.candidate_layout, qp.solve_matrix
        monkeypatch.setattr(qp, "candidate_layout", lambda yhat: builds.append(yhat) or build(yhat))
        monkeypatch.setattr(
            qp, "solve_matrix", lambda *args: layouts.append(args[4]) or solve(*args)
        )
        dataset = random_dataset(np.random.default_rng(6), l=9)
        config = PartnerConfig(aggressive=aggressive)
        o = uniform_supervision(dataset)
        first, second = (fit_partner(dataset, o, config) for _ in range(2))
        assert len(builds) == 1 and len(layouts) >= 2
        assert all(layout is dataset.candidate_layout for layout in layouts)
        assert len(layouts[0].index) < 9  # the candidate-only path runs
        assert first.c.tobytes() == second.c.tobytes()

    def test_system_ridge_must_match_config(self):
        rng = np.random.default_rng(1)
        dataset = random_dataset(rng)
        system = ridge_system(dataset.features, KernelSpec(ridge=0.2))
        with pytest.raises(ValueError, match="ridge"):
            fit_partner(dataset, uniform_supervision(dataset), PartnerConfig(), system)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma must be non-negative and finite"):
            PartnerConfig(gamma=gamma)

    def test_no_inner_iteration_rejected(self):
        with pytest.raises(ValueError, match="inner_iters must be at least 1"):
            PartnerConfig(inner_iters=0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
    def test_bad_inner_tol_rejected(self, tol):
        # the stop test abs(prev - curr) <= tol * max(1, |prev|) would never hold
        with pytest.raises(ValueError, match="inner_tol must be non-negative and finite"):
            PartnerConfig(inner_tol=tol)

    def test_supervision_shape_rejected(self):
        rng = np.random.default_rng(1)
        dataset = random_dataset(rng)
        with pytest.raises(ValueError, match="supervision"):
            fit_partner(dataset, np.zeros((2, 2)), PartnerConfig())

    @pytest.mark.parametrize(
        "c_value, message",
        [
            # 0 lies below yhat = 1 on every non-candidate label
            (0.0, r"partner c left the \[yhat, 1\] box"),
            # 1 everywhere stays in the box, but its rows sum to l, not l - 1
            (1.0, "partner c rows must sum to l - 1"),
        ],
    )
    def test_broken_c_step_raises(self, monkeypatch, c_value, message):
        monkeypatch.setattr(qp, "solve_matrix", lambda j, *_: np.full_like(j, c_value))
        dataset = random_dataset(np.random.default_rng(1))
        assert (dataset.noncandidates > 0).any()
        with pytest.raises(InvariantViolation, match=message):
            fit_partner(dataset, uniform_supervision(dataset), PartnerConfig())


def bias_only_model(bias):
    solve = kkt_solve(np.array([[1.0]]), np.array([bias], dtype=float), 0.05)
    return PartnerModel(solve=solve, c=np.zeros((1, len(bias))), objective_trace=np.zeros(1))


class TestPrediction:
    def test_argmin_of_complement_confidence(self):
        model = bias_only_model([0.9, 0.1, 0.8])
        labels = labels_from_output(predict(model.solve, np.array([[1.0], [0.3]])))
        np.testing.assert_array_equal(labels, [1, 1])

    def test_tie_breaks_to_lowest_index(self):
        model = bias_only_model([0.4, 0.4, 0.4])
        assert labels_from_output(predict(model.solve, np.array([[1.0]])))[0] == 0

    def test_separable_clusters_perfect_accuracy(self):
        rng = np.random.default_rng(9)
        n_per = 15
        x0 = rng.normal(size=(n_per, 2)) * 0.2
        x1 = rng.normal(size=(n_per, 2)) * 0.2 + 8.0
        features = np.vstack([x0, x1])
        truth = np.array([0] * n_per + [1] * n_per)
        candidates = np.eye(2)[truth]
        dataset = PartialLabelDataset(features, candidates, truth)
        spec = KernelSpec(sigma=2.0)
        model = fit_partner(dataset, candidates, PartnerConfig(kernel=spec))
        test_x = np.vstack([rng.normal(size=(5, 2)) * 0.2, rng.normal(size=(5, 2)) * 0.2 + 8.0])
        labels = labels_from_output(predict(model.solve, cross_matrix(test_x, features, spec)))
        np.testing.assert_array_equal(labels, [0] * 5 + [1] * 5)
