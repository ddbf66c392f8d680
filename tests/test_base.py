import numpy as np
import pytest
from scipy.spatial.distance import cdist

from plcp import base, kernel
from plcp.base import (
    BaseClassifierKind,
    binarize_supervision,
    fit_predict_base,
    neighbour_mean,
    neighbour_table,
    prepare,
)
from plcp.core import PartialLabelDataset
from plcp.kernel import KernelSpec


def dataset_from(features, candidates):
    return PartialLabelDataset(np.asarray(features, float), np.asarray(candidates, float))


class TestPlKnn:
    def test_nearest_neighbor_swap(self):
        ds = dataset_from([[0.0, 0.0], [0.0, 0.0]], [[1, 1], [1, 1]])
        supervision = np.array([[0.9, 0.1], [0.2, 0.8]])
        kind = BaseClassifierKind(kind="pl-knn", k_neighbors=1)
        m, query_output = fit_predict_base(kind, ds, supervision)
        assert query_output is None
        np.testing.assert_allclose(m[0], supervision[1])
        np.testing.assert_allclose(m[1], supervision[0])

    def test_uniform_supervision_masked_uniform(self):
        ds = dataset_from([[0.0], [1.0], [2.0]], [[1, 1, 0], [1, 0, 1], [0, 1, 1]])
        supervision = np.full((3, 3), 1.0 / 3.0)
        m, _ = fit_predict_base(BaseClassifierKind(k_neighbors=2), ds, supervision)
        np.testing.assert_allclose(m, ds.candidates / 3.0)

    def test_distance_tie_prefers_lower_index(self):
        ds = dataset_from([[0.0], [1.0], [2.0]], [[1, 1], [1, 1], [1, 1]])
        supervision = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        m, _ = fit_predict_base(BaseClassifierKind(k_neighbors=1), ds, supervision)
        # sample 1 is equidistant from 0 and 2; index 0 wins
        np.testing.assert_allclose(m[1], supervision[0])

    def test_rows_are_convex_combinations(self):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(20, 3))
        candidates = (rng.random((20, 4)) < 0.6).astype(float)
        candidates[np.arange(20), rng.integers(4, size=20)] = 1.0
        ds = PartialLabelDataset(features, candidates)
        supervision = candidates / candidates.sum(axis=1, keepdims=True)
        _, out = fit_predict_base(
            BaseClassifierKind(k_neighbors=5), ds, supervision, query=rng.normal(size=(7, 3))
        )
        assert (out >= 0.0).all() and (out <= 1.0).all()
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_too_many_neighbors_rejected(self):
        ds = dataset_from([[0.0], [1.0]], [[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="k_neighbors"):
            fit_predict_base(BaseClassifierKind(k_neighbors=2), ds, ds.candidates)
        # the train rows, each without itself, bound k for the query rows too
        query = np.array([[0.2], [0.9], [5.0]])
        for k in (2, 3):
            with pytest.raises(ValueError, match=f"k_neighbors={k} .* count 2"):
                fit_predict_base(BaseClassifierKind(k_neighbors=k), ds, ds.candidates, query=query)

    def test_query_rows_equal_the_query_neighbour_mean(self):
        rng = np.random.default_rng(6)
        ds = PartialLabelDataset(grid_points(rng, 60), np.ones((60, 4)))
        supervision = rng.random((60, 4))
        kind = BaseClassifierKind(k_neighbors=7)
        query = grid_points(rng, 25)
        m, out = fit_predict_base(kind, ds, supervision, prepare(kind, ds), query)
        np.testing.assert_array_equal(m, fit_predict_base(kind, ds, supervision)[0])
        table = stable_argsort_table(query, ds.features, 7)
        np.testing.assert_array_equal(out, supervision[table].mean(axis=1))

    @pytest.mark.parametrize("n, k, l", [(2000, 10, 5), (300, 10, 30), (2000, 10, 171), (50, 7, 3)])
    def test_neighbour_mean_keeps_the_bytes_of_the_gathered_mean(self, n, k, l):
        rng = np.random.default_rng(n + k + l)
        supervision, table = rng.random((n, l)), rng.integers(n, size=(n, k))
        expected = supervision[table].mean(axis=1)
        assert neighbour_mean(supervision, table).tobytes() == expected.tobytes()


def grid_points(rng, rows):
    # integer grid features: most distances tie with many others
    return rng.integers(0, 4, size=(rows, 2)).astype(float)


def stable_argsort_table(query, train, k, exclude_self=False):
    distances = cdist(query, train)
    if exclude_self:
        np.fill_diagonal(distances, np.inf)
    return np.argsort(distances, axis=1, kind="stable")[:, :k]


class TestNeighbourTable:
    # a train set of 600 rows splits the re-ranked query rows into blocks of 218
    N_TRAIN = 600

    # 600 rows are not a multiple of their block size; 512 rows fill two blocks
    @pytest.mark.parametrize("n", [N_TRAIN, 512])
    @pytest.mark.parametrize("k", [1, 7, "n-1"])
    def test_fit_path_matches_stable_argsort(self, n, k):
        k = n - 1 if k == "n-1" else k
        x = grid_points(np.random.default_rng(n), n)
        np.testing.assert_array_equal(
            neighbour_table(x, x, k, exclude_self=True),
            stable_argsort_table(x, x, k, exclude_self=True),
        )

    @pytest.mark.parametrize("rows", [100, kernel.block_rows(N_TRAIN), 1000])
    @pytest.mark.parametrize("k", [1, 7, N_TRAIN])
    def test_query_path_matches_stable_argsort(self, rows, k):
        rng = np.random.default_rng(rows)
        train, query = grid_points(rng, self.N_TRAIN), grid_points(rng, rows)
        np.testing.assert_array_equal(
            neighbour_table(query, train, k), stable_argsort_table(query, train, k)
        )

    def test_block_sizes_cover_the_cases(self):
        step = kernel.block_rows(self.N_TRAIN)
        assert 100 < step < self.N_TRAIN and self.N_TRAIN % step and 1000 % step
        assert kernel.block_rows(512) == 256

    def test_non_finite_query_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            neighbour_table(np.array([[np.nan]]), np.zeros((3, 1)), 1)

    def test_k_above_the_train_rows_rejected(self):
        with pytest.raises(ValueError, match="k=4 exceeds the 3 train rows"):
            neighbour_table(np.zeros((2, 1)), np.arange(3.0)[:, None], 4)

    @pytest.mark.parametrize("d", [1, 2, 8, 16, 33])
    def test_recheck_distances_are_cdist_bytes(self, d):
        rng = np.random.default_rng(d)
        query, train = rng.normal(size=(30, d)), rng.normal(size=(40, d)) * 3.0
        # one candidate a row: the k-th distance is that pair's distance
        pairs = np.repeat(query, 40, axis=0)
        candidates = np.tile(np.arange(40), 30)[:, None]
        _, distances = base._rank(pairs, train.T.copy(), candidates, None, 1)
        assert distances.tobytes() == cdist(query, train).ravel().tobytes()

    def test_duplicate_rows_are_ranked_again(self, monkeypatch):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(200, 3))
        x = rng.permutation(np.concatenate([x, np.repeat(x[:4], 20, axis=0)]))
        ranked, rank = [], base._rank

        def spy(query, *args):
            ranked.append(len(query))
            return rank(query, *args)

        monkeypatch.setattr(base, "_rank", spy)
        np.testing.assert_array_equal(
            neighbour_table(x, x, 10, exclude_self=True),
            stable_argsort_table(x, x, 10, exclude_self=True),
        )
        # the tree's candidates of all 280 rows, then all train rows for at
        # least the 84 rows with 20 copies at distance 0, in one block
        assert len(ranked) == 2 and ranked[0] == 280 and 84 <= ranked[1] < 280

    def test_certification_keeps_a_rounding_margin(self, monkeypatch):
        # a tree that leaves out train row 0, which ties the k-th exact
        # distance (5) and has a lower index than the k-th neighbour (row 2),
        # and reports its last distance 4 ulps above 5: with no margin for
        # the tree's rounding, that last distance would certify the row
        train = np.array([[3.0, 4.0], [1.0, 0.0], [4.0, 3.0], [10.0, 0.0], [0.0, 7.0]])
        query = np.zeros((1, 2))

        class LeavesOutRowZero:
            def __init__(self, data, leafsize):
                pass

            def query(self, rows, want):
                assert want == 3
                last = 5.0 + 4 * np.spacing(5.0)
                return np.array([[1.0, 5.0, last]]), np.array([[1, 2, 4]])

        monkeypatch.setattr(base, "cKDTree", LeavesOutRowZero)
        table = neighbour_table(query, train, 2)
        np.testing.assert_array_equal(table, stable_argsort_table(query, train, 2))
        assert table.tolist() == [[1, 0]]

    def test_large_offset_features(self):
        rng = np.random.default_rng(8)
        train, query = rng.normal(size=(400, 4)) + 1e8, rng.normal(size=(150, 4)) + 1e8
        np.testing.assert_array_equal(
            neighbour_table(train, train, 10, exclude_self=True),
            stable_argsort_table(train, train, 10, exclude_self=True),
        )
        np.testing.assert_array_equal(
            neighbour_table(query, train, 10), stable_argsort_table(query, train, 10)
        )

    def test_k_at_the_train_row_count(self):
        rng = np.random.default_rng(9)
        train, query = rng.normal(size=(30, 3)), rng.normal(size=(12, 3))
        np.testing.assert_array_equal(
            neighbour_table(train, train, 29, exclude_self=True),
            stable_argsort_table(train, train, 29, exclude_self=True),
        )
        np.testing.assert_array_equal(
            neighbour_table(query, train, 30), stable_argsort_table(query, train, 30)
        )

    def test_zero_query_rows(self):
        table = neighbour_table(np.zeros((0, 2)), np.eye(5, 2), 3)
        assert table.shape == (0, 3) and table.dtype == np.intp

    def test_column_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            neighbour_table(np.zeros((4, 3)), np.zeros((6, 2)), 2)


class TestKernelLs:
    def test_interpolates_one_hot_supervision_at_tiny_ridge(self):
        rng = np.random.default_rng(8)
        features = rng.normal(size=(10, 2)) * 3.0
        truth = rng.integers(3, size=10)
        candidates = np.eye(3)[truth]
        ds = PartialLabelDataset(features, candidates)
        kind = BaseClassifierKind(
            kind="kernel-ls", kernel=KernelSpec(kind="gaussian", ridge=1e-8)
        )
        m, _ = fit_predict_base(kind, ds, candidates)
        np.testing.assert_allclose(m, candidates, atol=1e-4)

    def test_matches_shared_solver(self):
        from plcp.kernel import gram_matrix, kkt_solve, training_output

        rng = np.random.default_rng(10)
        features = rng.normal(size=(12, 3))
        candidates = np.ones((12, 3))
        ds = PartialLabelDataset(features, candidates)
        supervision = rng.random((12, 3))
        spec = KernelSpec(sigma=1.5, ridge=0.05)
        kind = BaseClassifierKind(kind="kernel-ls", kernel=spec)
        m, _ = fit_predict_base(kind, ds, supervision)
        expected = training_output(
            kkt_solve(gram_matrix(features, spec), supervision, 0.05)
        )
        np.testing.assert_allclose(m, expected)

    def test_query_outputs_shape(self):
        rng = np.random.default_rng(12)
        ds = PartialLabelDataset(rng.normal(size=(8, 2)), np.ones((8, 3)))
        kind = BaseClassifierKind(kind="kernel-ls", kernel=KernelSpec(sigma=1.0))
        m, out = fit_predict_base(
            kind, ds, np.ones((8, 3)) / 3.0, query=rng.normal(size=(5, 2))
        )
        assert m.shape == (8, 3) and out.shape == (5, 3)

    def test_query_rows_equal_the_unblocked_product(self):
        # 1000 query rows at 200 train rows make two blocks; the blocked rows
        # repeat to the bit and match one whole product to its last bits
        rng = np.random.default_rng(14)
        ds = PartialLabelDataset(rng.normal(size=(200, 3)), np.ones((200, 30)))
        query = rng.normal(size=(1000, 3))
        assert 1000 > kernel.block_rows(200)
        supervision = rng.random((200, 30))
        kind = BaseClassifierKind(kind="kernel-ls")
        m, out = fit_predict_base(kind, ds, supervision, query=query)
        assert out.tobytes() == fit_predict_base(kind, ds, supervision, query=query)[1].tobytes()
        # the base builds its system for the dataset's 30 labels
        system = kernel.ridge_system(ds.features, kind.kernel, ds.label_count)
        solve = kernel.kkt_solve(system, supervision)
        np.testing.assert_array_equal(m, solve.fitted)
        whole = kernel.predict(solve, kernel.cross_matrix(query, ds.features, kind.kernel))
        np.testing.assert_allclose(out, whole, rtol=0.0, atol=1e-12 * np.abs(whole).max())


class TestBinarize:
    def test_indicator(self):
        out = binarize_supervision(np.array([[0.6, 0.4]]), np.array([[0.5, 0.5]]))
        np.testing.assert_array_equal(out, [[1.0, 0.0]])

    def test_equal_maps_to_one(self):
        p = np.array([[0.3, 0.7]])
        np.testing.assert_array_equal(binarize_supervision(p, p), [[1.0, 1.0]])

    def test_strictly_below_maps_to_zero(self):
        out = binarize_supervision(np.array([[0.1, 0.2]]), np.array([[0.5, 0.4]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0]])

    def test_candidate_mask_applied(self):
        out = binarize_supervision(
            np.array([[0.6, 0.6]]), np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]])
        )
        np.testing.assert_array_equal(out, [[1.0, 0.0]])


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown base"):
        BaseClassifierKind(kind="pl-svm")


def test_non_positive_neighbour_count_rejected():
    with pytest.raises(ValueError, match="k_neighbors must be positive"):
        BaseClassifierKind(k_neighbors=0)


@pytest.mark.parametrize("kind", ["pl-knn", "kernel-ls"])
def test_supervision_shape_rejected(kind):
    ds = dataset_from([[0.0], [1.0], [3.0]], [[1, 0], [0, 1], [1, 1]])
    with pytest.raises(ValueError, match="supervision shape must match"):
        fit_predict_base(BaseClassifierKind(kind=kind, k_neighbors=1), ds, np.ones((3, 3)))


def test_binarize_shape_mismatch_rejected():
    with pytest.raises(ValueError, match=r"shape mismatch: \(1, 2\) vs \(1, 3\)"):
        binarize_supervision(np.zeros((1, 2)), np.zeros((1, 3)))
