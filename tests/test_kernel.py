from dataclasses import fields

import numpy as np
import pytest
from scipy.linalg import LinAlgError
from scipy.spatial.distance import pdist, squareform

from plcp import kernel
from plcp.kernel import (
    KernelSolve,
    KernelSpec,
    RidgeSystem,
    cross_matrix,
    factor_in_place,
    gram_matrix,
    kkt_solve,
    predict,
    predict_query,
    query_blocks,
    resolve_sigma,
    ridge_system,
    training_output,
)
from plcp.partner import PartnerModel


def primal_ridge_oracle(x, c, ridge):
    """Direct least-squares solve of the bias-unpenalized ridge problem.

    Stacks a constant column and penalizes only the weight block, then
    returns the fitted outputs. Independent of the dual-path code.
    """
    n, d = x.shape
    design = np.hstack([x, np.ones((n, 1))])
    penalty = np.diag(np.concatenate([np.full(d, ridge), [0.0]]))
    theta = np.linalg.solve(design.T @ design + penalty, design.T @ c)
    return design @ theta


class TestGramMatrix:
    def test_identical_points_gaussian(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
        k = gram_matrix(x, KernelSpec(kind="gaussian", sigma=1.0))
        np.testing.assert_allclose(k[0, 1], 1.0)
        np.testing.assert_allclose(np.diag(k), 1.0)

    def test_linear_is_xxt(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 3))
        np.testing.assert_allclose(gram_matrix(x, KernelSpec(kind="linear")), x @ x.T)

    def test_gaussian_matches_brute_force(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 4))
        spec = KernelSpec(kind="gaussian")
        sigma = resolve_sigma(x, spec)
        k = gram_matrix(x, spec)
        for i in range(3):
            for j in range(3):
                expected = np.exp(-np.sum((x[i] - x[j]) ** 2) / (2 * sigma**2))
                assert abs(k[i, j] - expected) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(20, 6))
        k = gram_matrix(x, KernelSpec())
        assert np.abs(k - k.T).max() < 1e-12

    def test_sigma_excludes_self_pairs(self):
        x = np.array([[0.0], [2.0]])
        # one distinct pair at distance 2; self-pairs would drag the mean down
        assert resolve_sigma(x, KernelSpec()) == pytest.approx(2.0)

    def test_all_identical_points_rejected(self):
        x = np.zeros((3, 2))
        with pytest.raises(ValueError, match="identical"):
            gram_matrix(x, KernelSpec(kind="gaussian"))

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 301, 1000])
    @pytest.mark.parametrize("kind", ["gaussian", "linear"])
    def test_bit_equal_to_condensed_oracle(self, n, kind):
        # the single-buffer build keeps the bits of the condensed-distance
        # build it replaced, and is laid out for factoring in place
        x = np.random.default_rng(n).normal(size=(n, 5)) * 3.0
        spec = KernelSpec(kind=kind, sigma=None if n > 1 else 1.0)
        if kind == "linear":
            oracle = x @ x.T
        else:
            sigma = resolve_sigma(x, spec)
            oracle = np.exp(-squareform(pdist(x, "sqeuclidean")) / (2.0 * sigma**2))
        gram = gram_matrix(x, spec)
        np.testing.assert_array_equal(gram, oracle)
        assert gram.flags.f_contiguous and gram.flags.writeable


class TestKktSolve:
    def test_zero_target_gives_zero_model(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 2))
        k = gram_matrix(x, KernelSpec())
        solve = kkt_solve(k, np.zeros((6, 3)), ridge=0.05)
        np.testing.assert_allclose(solve.dual_coeffs, 0.0, atol=1e-12)
        np.testing.assert_allclose(solve.bias, 0.0, atol=1e-12)
        np.testing.assert_allclose(training_output(solve), 0.0, atol=1e-12)

    def test_single_sample_output_equals_target(self):
        # closed form at n=1: s = 1/(1/(2*ridge) + 1/2), bias = target,
        # dual coefficient 0, output = target for every ridge value
        for ridge in (0.05, 1e-6, 3.0):
            solve = kkt_solve(np.array([[1.0]]), np.array([[0.7, 0.2]]), ridge)
            np.testing.assert_allclose(solve.bias, [0.7, 0.2], atol=1e-12)
            np.testing.assert_allclose(solve.dual_coeffs, 0.0, atol=1e-12)
            np.testing.assert_allclose(
                training_output(solve), [[0.7, 0.2]], atol=1e-12
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_primal_dual_equivalence_linear_kernel(self, seed):
        rng = np.random.default_rng(seed)
        n, d, l = rng.integers(5, 50), rng.integers(2, 10), rng.integers(2, 5)
        x = rng.normal(size=(n, d))
        c = rng.normal(size=(n, l))
        ridge = 0.05
        solve = kkt_solve(gram_matrix(x, KernelSpec(kind="linear")), c, ridge)
        np.testing.assert_allclose(
            training_output(solve), primal_ridge_oracle(x, c, ridge), atol=1e-6
        )

    def test_kkt_residuals(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(15, 3))
        c = rng.normal(size=(15, 4))
        solve = kkt_solve(gram_matrix(x, KernelSpec()), c, ridge=0.05)
        h = training_output(solve)
        # stationarity in the slack block: 2(h - c) + a = 0
        assert np.abs(2.0 * (h - c) + solve.dual_coeffs).max() < 1e-6
        # stationarity in the bias: columns of a sum to zero
        assert np.abs(solve.dual_coeffs.sum(axis=0)).max() < 1e-6

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="square"):
            kkt_solve(np.zeros((2, 3)), np.zeros((2, 2)), 0.05)
        with pytest.raises(ValueError, match="rows"):
            kkt_solve(np.eye(3), np.zeros((2, 2)), 0.05)

    def test_singular_system_diagnostic(self):
        bad = np.full((3, 3), np.nan)
        with pytest.raises((RuntimeError, ValueError)):
            kkt_solve(bad, np.zeros((3, 2)), 0.05)

    def test_non_psd_gram_names_the_failing_minor(self):
        # finite, but B = K/(2*ridge) + I/2 has a negative second pivot
        bad = np.array([[1.0, 0.0, 0.0], [0.0, -5.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(RuntimeError, match="2-th leading minor") as info:
            kkt_solve(bad, np.zeros((3, 2)), 0.05)
        assert isinstance(info.value.__cause__, LinAlgError)


class TestPredict:
    def test_training_rows_consistent(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(10, 2))
        k = gram_matrix(x, KernelSpec())
        solve = kkt_solve(k, rng.normal(size=(10, 3)), 0.05)
        np.testing.assert_allclose(predict(solve, k[:4]), training_output(solve)[:4])

    @pytest.mark.parametrize("kind", ["gaussian", "linear"])
    @pytest.mark.parametrize("ridge", [0.05, 1e-3])
    def test_training_output_matches_gram_prediction(self, kind, ridge):
        # C - A/2 from the solve's own equation equals K A/(2*ridge) + bias
        rng = np.random.default_rng(19)
        x = rng.normal(size=(30, 4))
        k = gram_matrix(x, KernelSpec(kind=kind))
        solve = kkt_solve(k, rng.random((30, 5)), ridge)
        np.testing.assert_allclose(training_output(solve), predict(solve, k), atol=1e-9)

    def test_zero_dual_coeffs_gives_bias(self):
        solve = kkt_solve(np.array([[1.0]]), np.array([[0.3, 0.9]]), 0.05)
        out = predict(solve, np.array([[0.5]]))
        np.testing.assert_allclose(out, [[0.3, 0.9]], atol=1e-12)

    def test_linear_kernel_matches_primal_prediction(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(12, 3))
        c = rng.normal(size=(12, 2))
        x_test = rng.normal(size=(4, 3))
        ridge = 0.05
        spec = KernelSpec(kind="linear")
        solve = kkt_solve(gram_matrix(x, spec), c, ridge)
        got = predict(solve, cross_matrix(x_test, x, spec))
        # primal oracle extended to new points
        n, d = x.shape
        design = np.hstack([x, np.ones((n, 1))])
        penalty = np.diag(np.concatenate([np.full(d, ridge), [0.0]]))
        theta = np.linalg.solve(design.T @ design + penalty, design.T @ c)
        expected = np.hstack([x_test, np.ones((4, 1))]) @ theta
        np.testing.assert_allclose(got, expected, atol=1e-6)

    def test_column_mismatch(self):
        solve = kkt_solve(np.eye(3), np.zeros((3, 2)), 0.05)
        with pytest.raises(ValueError, match="columns"):
            predict(solve, np.zeros((2, 4)))


def min_block_rows(n_train, l):
    return -(-kernel._MIN_BLOCK_PRODUCT // (n_train * l))


class TestQueryBlocks:
    @pytest.mark.parametrize(
        "n_train, n_test, l",
        [
            (2000, 2003, 5),
            (300, 300, 30),
            # one block plus one row stays one block; two blocks plus one
            # row give the smallest blocks there are
            (2000, min_block_rows(2000, 5) + 1, 5),
            (2000, 2 * min_block_rows(2000, 5) + 1, 5),
            (2000, 2 * min_block_rows(2000, 2) + 1, 2),
            (600, 2003, 30),
            (2000, 700, 1),
        ],
    )
    def test_blocked_prediction_bit_equal_to_one_product(self, n_train, n_test, l):
        rng = np.random.default_rng(n_train + n_test + l)
        x, x_test = rng.normal(size=(n_train, 8)), rng.normal(size=(n_test, 8))
        solve = KernelSolve(
            dual_coeffs=50.0 * rng.normal(size=(n_train, l)),
            bias=rng.random(l),
            ridge=0.05,
            fitted=np.zeros((n_train, l)),
        )
        spec = KernelSpec(sigma=float(pdist(x[:200]).mean()))
        got = predict_query(solve, x_test, x, spec)
        np.testing.assert_array_equal(got, predict(solve, cross_matrix(x_test, x, spec)))

    def test_unpinned_sigma_resolved_from_the_train_rows(self):
        rng = np.random.default_rng(5)
        x, x_test = rng.normal(size=(40, 3)), rng.normal(size=(9, 3))
        solve = kkt_solve(gram_matrix(x, KernelSpec()), rng.random((40, 3)), 0.05)
        np.testing.assert_array_equal(
            predict_query(solve, x_test, x, KernelSpec()),
            predict(solve, cross_matrix(x_test, x, KernelSpec())),
        )

    @pytest.mark.parametrize("n_query", [0, 1, 209, 210, 419, 420, 421, 2003, 10**5])
    @pytest.mark.parametrize("n_train, l", [(2000, 5), (60, 3), (2000, 1)])
    def test_blocks_tile_the_rows_and_stay_large(self, n_query, n_train, l):
        blocks = query_blocks(n_query, n_train, l)
        assert blocks[0].start == 0 and blocks[-1].stop == n_query
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        sizes = [rows.stop - rows.start for rows in blocks]
        assert max(sizes) - min(sizes) <= 1
        if len(blocks) > 1:
            assert min(sizes) * n_train * l >= kernel._MIN_BLOCK_PRODUCT
            assert l >= 2


class TestKernelSpec:
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_sigma_rejected(self, value):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            KernelSpec(sigma=value)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_ridge_rejected(self, value):
        with pytest.raises(ValueError, match="ridge must be positive and finite"):
            KernelSpec(ridge=value)
        with pytest.raises(ValueError, match="ridge must be positive and finite"):
            kkt_solve(np.eye(2), np.eye(2), value)


class TestRidgeSystem:
    def test_shared_system_matches_one_off_solves(self):
        rng = np.random.default_rng(17)
        k = gram_matrix(rng.normal(size=(12, 3)), KernelSpec())
        system = ridge_system(k, 0.05)
        for _ in range(3):
            c = rng.normal(size=(12, 4))
            shared, one_off = kkt_solve(system, c), kkt_solve(k, c, 0.05)
            np.testing.assert_array_equal(shared.dual_coeffs, one_off.dual_coeffs)
            np.testing.assert_array_equal(shared.bias, one_off.bias)

    def test_gram_left_untouched(self):
        k = gram_matrix(np.random.default_rng(2).normal(size=(6, 2)), KernelSpec())
        before = k.copy()
        ridge_system(k, 0.05)
        np.testing.assert_array_equal(k, before)

    def test_ridge_given_once(self):
        system = ridge_system(np.eye(3), 0.05)
        with pytest.raises(ValueError, match="own ridge"):
            kkt_solve(system, np.zeros((3, 2)), 0.05)
        with pytest.raises(ValueError, match="needs its ridge"):
            kkt_solve(np.eye(3), np.zeros((3, 2)))

    @pytest.mark.parametrize("result", [RidgeSystem, KernelSolve, PartnerModel])
    def test_results_keep_no_gram(self, result):
        # the gram is an input to the factorization only
        assert "gram" not in {f.name for f in fields(result)}

    def test_non_finite_gram_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            ridge_system(np.full((3, 3), np.nan), 0.05)

    @pytest.mark.parametrize("kind", ["gaussian", "linear"])
    def test_factor_in_place_matches_the_copying_build(self, kind):
        x = np.random.default_rng(8).normal(size=(50, 3))
        gram = gram_matrix(x, KernelSpec(kind=kind))
        copied = ridge_system(gram, 0.05)
        in_place = factor_in_place(gram, 0.05)
        # the gram's buffer became the factor
        assert np.shares_memory(in_place.factor[0], gram)
        np.testing.assert_array_equal(in_place.factor[0], copied.factor[0])
        np.testing.assert_array_equal(in_place.s_row, copied.s_row)

    def test_factor_in_place_needs_a_fortran_buffer(self):
        with pytest.raises(ValueError, match="Fortran"):
            factor_in_place(np.eye(3), 0.05)
        frozen = np.asfortranarray(np.eye(3))
        frozen.flags.writeable = False
        with pytest.raises(ValueError, match="Fortran"):
            factor_in_place(frozen, 0.05)
