import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dtfttr, dtrttf
from scipy.spatial.distance import pdist, squareform

from plcp import kernel
from plcp.kernel import (
    KernelSolve,
    KernelSpec,
    RidgeSystem,
    cross_matrix,
    gram_matrix,
    holds_inverse,
    kkt_solve,
    packed_gram,
    predict,
    predict_query,
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


    @pytest.mark.parametrize("n", [1, 2, 50, 301])
    @pytest.mark.parametrize("kind", ["gaussian", "linear"])
    def test_gram_is_the_transposed_cross_matrix(self, n, kind):
        # one pairwise path: the gram is cross_matrix(x, x) transposed, which
        # is the same matrix to the bit, as each pair's two entries are equal
        x = np.random.default_rng(50 + n).normal(size=(n, 7)) * 2.0
        spec = KernelSpec(kind=kind, sigma=None if n > 1 else 0.7)
        gram = gram_matrix(x, spec)
        assert gram.flags.f_contiguous
        assert gram.tobytes(order="C") == gram.T.tobytes(order="C")
        assert gram.tobytes(order="C") == cross_matrix(x, x, spec).T.tobytes(order="C")


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

    @pytest.mark.parametrize("n, minor", [(4, 3), (5, 5), (6, 1)])
    def test_non_psd_gram_of_either_packed_layout_names_the_failing_minor(self, n, minor):
        # even and odd orders keep their diagonals in different RFP slots
        bad = np.eye(n)
        bad[minor - 1, minor - 1] = -5.0
        with pytest.raises(RuntimeError, match=f"{n}x{n} ridge system.* {minor}-th leading"):
            kkt_solve(bad, np.zeros((n, 2)), 0.05)


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


class TestQueryBlocks:
    @pytest.mark.parametrize(
        "n_train, n_test, l",
        [
            (2000, 2003, 5),
            (300, 300, 30),
            # one block, one block plus one row, two blocks plus one row
            (2000, kernel.block_rows(2000), 5),
            (2000, kernel.block_rows(2000) + 1, 5),
            (2000, 2 * kernel.block_rows(2000) + 1, 2),
            (600, 2003, 30),
            (2000, 700, 1),
        ],
    )
    def test_blocked_prediction_repeats_and_matches_one_product(self, n_train, n_test, l):
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
        assert got.tobytes() == predict_query(solve, x_test, x, spec).tobytes()
        whole = predict(solve, cross_matrix(x_test, x, spec))
        np.testing.assert_allclose(got, whole, rtol=0.0, atol=1e-12 * np.abs(whole).max())

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
    def test_blocks_tile_the_rows_and_stay_large(self, monkeypatch, n_query, n_train, l):
        # every block but the last holds block_rows(n_train) query rows, so
        # one block of the cross matrix is about 1 MiB however many rows come
        sizes = []

        def cross(x_query, x_train, spec):
            sizes.append(len(x_query))
            return np.zeros((len(x_query), len(x_train)))

        monkeypatch.setattr(kernel, "cross_matrix", cross)
        bias = np.arange(l, dtype=float)
        solve = KernelSolve(np.zeros((n_train, l)), bias, 0.05, np.zeros((n_train, l)))
        x_query, x_train = np.zeros((n_query, 2)), np.zeros((n_train, 2))
        out = predict_query(solve, x_query, x_train, KernelSpec(sigma=1.0))
        assert out.shape == (n_query, l) and (out == bias).all()
        step = kernel.block_rows(n_train)
        assert sizes == [step] * (n_query // step) + [n_query % step] * (n_query % step > 0)


class TestKernelSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel kind 'poly'"):
            KernelSpec(kind="poly")

    def test_sigma_from_one_sample_rejected(self):
        with pytest.raises(ValueError, match="fewer than two samples"):
            resolve_sigma(np.zeros((1, 2)), KernelSpec())

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_features_rejected(self, value):
        x = np.zeros((3, 2))
        x[1, 0] = value
        for build in (gram_matrix, packed_gram):
            with pytest.raises(ValueError, match="features contain NaN or Inf"):
                build(x, KernelSpec(kind="linear"))

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


class TestPackedGram:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 50, 51, 301])
    @pytest.mark.parametrize("kind", ["gaussian", "linear"])
    def test_bit_equal_to_packed_full_gram(self, n, kind):
        # a Gaussian block keeps every bit of the whole gram; a linear block
        # product may differ from NumPy's symmetric x @ x.T in the last bits
        # (at n = 2 and 301 here), so it is held to a few ulps of the largest
        # entry, which bounds every term of a row's dot product
        x = np.random.default_rng(n).normal(size=(n, 3)) * 3.0
        spec = KernelSpec(kind=kind, sigma=None if n > 1 else 1.0)
        expected, info = dtrttf(gram_matrix(x, spec), transr="N", uplo="L")
        assert info == 0
        ulps = 4.0 * np.spacing(np.abs(expected).max()) if kind == "linear" else 0.0
        np.testing.assert_allclose(packed_gram(x, spec), expected, rtol=0.0, atol=ulps)

    @pytest.mark.parametrize("rows", [1, 2, 7])
    @pytest.mark.parametrize("n", [50, 51])
    def test_row_blocks_keep_the_bits(self, monkeypatch, n, rows):
        # both loops of the gaussian build run over several blocks, some short
        x = np.random.default_rng(n).normal(size=(n, 3)) * 3.0
        whole = packed_gram(x, KernelSpec())
        monkeypatch.setattr(kernel, "_BLOCK_ENTRIES", n * rows)
        assert kernel.block_rows(n) == rows
        np.testing.assert_array_equal(packed_gram(x, KernelSpec()), whole)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 51])
    def test_factor_is_the_cholesky_factor_of_b(self, n):
        # a system built for no label count, as a one-off solve's is, keeps
        # the factor
        x = np.random.default_rng(n).normal(size=(n, 3))
        spec = KernelSpec(sigma=1.5, ridge=0.1)
        system = ridge_system(x, spec)
        assert system.inverse is None
        lower, info = dtfttr(n, system.factor, transr="N", uplo="L")
        assert info == 0
        b = gram_matrix(x, spec) / (2.0 * spec.ridge) + 0.5 * np.eye(n)
        np.testing.assert_allclose(np.tril(lower), np.linalg.cholesky(b), rtol=0, atol=1e-12)
        np.testing.assert_allclose(system.s_row, np.linalg.solve(b, np.ones(n)), atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 51, 300, 301])
    def test_inverse_is_the_symmetric_inverse_of_b(self, n, monkeypatch):
        # blocks of 7 columns mirror the lower triangle in several pieces
        monkeypatch.setattr(kernel, "_BLOCK_ENTRIES", 7 * n)
        x = np.random.default_rng(n).normal(size=(n, 3))
        spec = KernelSpec(sigma=1.5, ridge=0.1)
        system = ridge_system(x, spec, labels=30)
        assert system.factor is None and system.inverse.shape == (n, n)
        np.testing.assert_array_equal(system.inverse, system.inverse.T)
        b = gram_matrix(x, spec) / (2.0 * spec.ridge) + 0.5 * np.eye(n)
        np.testing.assert_allclose(system.inverse @ b, np.eye(n), rtol=0, atol=1e-10)
        np.testing.assert_allclose(system.s_row, np.linalg.solve(b, np.ones(n)), atol=1e-10)

    def test_system_keeps_half_of_an_n_by_n_array(self):
        # one packed triangle of 2000 * 2001 / 2 doubles is 16.0 MB; a square
        # gram or factor alone would be 32.0 MB
        x = np.random.default_rng(4).normal(size=(2000, 8))
        spec = KernelSpec(sigma=3.0)
        tracemalloc.start()
        try:
            system = ridge_system(x, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert system.factor.nbytes == 8 * 2000 * 2001 // 2
        assert peak < 20e6


class TestRidgeSystem:
    def test_shared_system_matches_one_off_solves(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(50, 3))
        for spec in (KernelSpec(), KernelSpec(kind="linear", ridge=0.2)):
            # a linear system's block products may move the gram's last bits
            atol = 0.0 if spec.kind == "gaussian" else 1e-9
            system = ridge_system(x, spec)
            gram = gram_matrix(x, spec)
            for _ in range(3):
                c = rng.normal(size=(50, 4))
                shared, one_off = kkt_solve(system, c), kkt_solve(gram, c, spec.ridge)
                for name in ("dual_coeffs", "bias", "fitted"):
                    np.testing.assert_allclose(
                        getattr(shared, name), getattr(one_off, name), rtol=0.0, atol=atol
                    )

    @pytest.mark.parametrize(
        "n, labels",
        [
            (100, 5), (99, 5), (600, 30), (599, 30), (1500, 171), (1499, 171),  # inverse
            (101, 5), (102, 5), (601, 30), (602, 30), (1501, 171), (1502, 171),  # factor
        ],
    )
    def test_inverse_and_factor_solves_agree(self, monkeypatch, n, labels):
        # shapes on both sides of the rule, odd and even; the other path is
        # forced; dual, bias and fitted agree to 1e-12 of their largest entry
        x = np.random.default_rng(n).normal(size=(n, 8))
        target = np.random.default_rng(labels).random((n, labels))
        spec = KernelSpec()
        system = ridge_system(x, spec, labels)
        monkeypatch.setattr(kernel, "holds_inverse", lambda n, labels: system.factor is not None)
        other = ridge_system(x, spec, labels)
        assert (system.inverse is None) != (other.inverse is None)
        one, two = kkt_solve(system, target), kkt_solve(other, target)
        for name in ("dual_coeffs", "bias", "fitted"):
            want = getattr(one, name)
            np.testing.assert_allclose(
                getattr(two, name), want, rtol=0.0, atol=1e-12 * np.abs(want).max()
            )

    @pytest.mark.parametrize(
        "n, labels, inverse",
        [
            # the last inverse shape and the first factor shape of each label
            # count: n_train <= 20 l, up to 1500 rows
            (40, 2, True), (41, 2, False), (100, 5, True), (101, 5, False),
            (600, 30, True), (601, 30, False), (1500, 171, True), (1501, 171, False),
            (1, 0, False), (2000, 5, False),
        ],
    )
    def test_rule_boundary(self, n, labels, inverse):
        assert holds_inverse(n, labels) is inverse

    def test_gram_left_untouched(self):
        # the one-off solve factors a copy of the caller's gram
        k = gram_matrix(np.random.default_rng(2).normal(size=(6, 2)), KernelSpec())
        before = k.copy()
        kkt_solve(k, np.zeros((6, 2)), 0.05)
        np.testing.assert_array_equal(k, before)

    def test_ridge_given_once(self):
        system = ridge_system(np.random.default_rng(3).normal(size=(3, 2)), KernelSpec())
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
            kkt_solve(np.full((3, 3), np.nan), np.zeros((3, 2)), 0.05)

    @pytest.mark.parametrize("shape", [(3,), (3, 3, 3)])
    def test_non_square_gram_rejected(self, shape):
        with pytest.raises(ValueError, match="square"):
            kkt_solve(np.ones(shape), np.zeros((3, 2)), 0.05)
