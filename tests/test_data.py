import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plcp.core import PartialLabelDataset
from plcp.data import (
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split,
)


class TestGenerateSynthetic:
    def test_no_flips_gives_singletons(self):
        ds = generate_synthetic(SyntheticSpec(n=50, d=2, l=4, flip_q=0.0, seed=1))
        np.testing.assert_array_equal(ds.candidates.sum(axis=1), 1.0)
        assert (ds.candidates[np.arange(50), ds.ground_truth] == 1.0).all()

    def test_mean_candidate_count(self):
        ds = generate_synthetic(SyntheticSpec(n=10000, d=2, l=5, flip_q=0.5, seed=2))
        mean_size = ds.candidates.sum(axis=1).mean()
        assert abs(mean_size - 3.0) < 0.1

    def test_seed_determinism(self):
        spec = SyntheticSpec(n=100, d=3, l=4, flip_q=0.3, seed=9)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.candidates, b.candidates)
        np.testing.assert_array_equal(a.ground_truth, b.ground_truth)

    def test_flip_indicators_roughly_independent(self):
        ds = generate_synthetic(SyntheticSpec(n=10000, d=2, l=4, flip_q=0.4, seed=5))
        flips = ds.candidates.copy()
        flips[np.arange(10000), ds.ground_truth] = np.nan
        corr = []
        for i in range(4):
            for j in range(i + 1, 4):
                mask = ~np.isnan(flips[:, i]) & ~np.isnan(flips[:, j])
                corr.append(np.corrcoef(flips[mask, i], flips[mask, j])[0, 1])
        assert max(abs(c) for c in corr) < 0.05

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=10, d=2, l=1, flip_q=0.3)
        with pytest.raises(ValueError):
            SyntheticSpec(n=10, d=2, l=3, flip_q=1.0)

    @pytest.mark.parametrize("n, d", [(0, 2), (10, 0)])
    def test_empty_spec_rejected(self, n, d):
        with pytest.raises(ValueError, match="n and d must be positive"):
            SyntheticSpec(n=n, d=d, l=3, flip_q=0.3)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SyntheticSpec(n=10, d=2, l=3, flip_q=0.3, seed=-1)

    @pytest.mark.parametrize("spread", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_cluster_spread_rejected(self, spread):
        with pytest.raises(ValueError, match="cluster_spread must be positive and finite"):
            SyntheticSpec(n=10, d=2, l=3, flip_q=0.3, cluster_spread=spread)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 40),
    st.integers(1, 5),
    st.integers(2, 6),
    st.floats(0.0, 0.9),
    st.integers(0, 2**31),
)
def test_generated_datasets_are_valid(n, d, l, flip_q, seed):
    ds = generate_synthetic(SyntheticSpec(n=n, d=d, l=l, flip_q=flip_q, seed=seed))
    # constructor re-validates; spot-check the core invariants anyway
    assert (ds.candidates.sum(axis=1) >= 1.0).all()
    assert (ds.candidates[np.arange(n), ds.ground_truth] == 1.0).all()
    assert np.isfinite(ds.features).all()


class TestSplit:
    def test_half_split(self):
        ds = generate_synthetic(SyntheticSpec(n=100, d=2, l=3, flip_q=0.2, seed=0))
        train, test = split(ds, 0.5, seed=1)
        assert train.n_samples == 50 and test.n_samples == 50

    def test_seed_determinism(self):
        ds = generate_synthetic(SyntheticSpec(n=60, d=2, l=3, flip_q=0.2, seed=0))
        a_train, a_test = split(ds, 0.7, seed=4)
        b_train, b_test = split(ds, 0.7, seed=4)
        np.testing.assert_array_equal(a_train.features, b_train.features)
        np.testing.assert_array_equal(a_test.features, b_test.features)

    def test_rounding(self):
        ds = generate_synthetic(SyntheticSpec(n=10, d=2, l=3, flip_q=0.2, seed=0))
        train, test = split(ds, 0.99, seed=1)
        assert train.n_samples == 9 and test.n_samples == 1

    def test_exhaustive_and_disjoint(self):
        ds = generate_synthetic(SyntheticSpec(n=30, d=2, l=3, flip_q=0.2, seed=0))
        train, test = split(ds, 0.6, seed=2)
        combined = np.vstack([train.features, test.features])
        assert combined.shape[0] == 30
        assert len({tuple(row) for row in combined}) == 30

    def test_degenerate_rejected(self):
        ds = generate_synthetic(SyntheticSpec(n=3, d=2, l=3, flip_q=0.2, seed=0))
        with pytest.raises(ValueError, match="degenerate"):
            split(ds, 0.1, seed=1)  # floor(0.3) leaves no training samples
        with pytest.raises(ValueError, match="train_frac"):
            split(ds, 1.0, seed=1)


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(n=20, d=3, l=4, flip_q=0.4, seed=7))
        paths = save_dataset(ds, tmp_path)
        loaded = load_dataset(paths["features"], paths["candidates"], paths["truth"])
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.candidates, ds.candidates)
        np.testing.assert_array_equal(loaded.ground_truth, ds.ground_truth)

    def test_save_is_byte_deterministic(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(n=20, d=3, l=4, flip_q=0.4, seed=7))
        p1 = save_dataset(ds, tmp_path / "a")
        p2 = save_dataset(ds, tmp_path / "b")
        assert p1["features"].read_bytes() == p2["features"].read_bytes()
        assert p1["candidates"].read_bytes() == p2["candidates"].read_bytes()

    def test_empty_candidate_row_reported(self, tmp_path):
        np.savetxt(tmp_path / "x.csv", np.zeros((2, 2)), delimiter=",")
        np.savetxt(tmp_path / "y.csv", np.array([[1, 0], [0, 0]]), delimiter=",")
        with pytest.raises(ValueError, match="row 1"):
            load_dataset(tmp_path / "x.csv", tmp_path / "y.csv")

    def test_truth_outside_candidates_reported(self, tmp_path):
        np.savetxt(tmp_path / "x.csv", np.zeros((2, 2)), delimiter=",")
        np.savetxt(tmp_path / "y.csv", np.array([[1, 0], [0, 1]]), delimiter=",")
        np.savetxt(tmp_path / "t.csv", np.array([0, 0]), delimiter=",")
        with pytest.raises(ValueError, match="outside candidate"):
            load_dataset(tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "t.csv")

    def test_truth_with_two_columns_rejected(self, tmp_path):
        # four labels for four rows, but two a row: flattened they would load
        np.savetxt(tmp_path / "x.csv", np.zeros((4, 2)), delimiter=",")
        np.savetxt(tmp_path / "y.csv", np.ones((4, 3)), delimiter=",")
        (tmp_path / "t.csv").write_text("0,1\n2,0\n")
        with pytest.raises(ValueError, match=r"truth CSV \S*t\.csv has 2 columns, not 1"):
            load_dataset(tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "t.csv")

    @pytest.mark.parametrize("label", ["nan", "1.5"])
    def test_non_integer_truth_names_its_row(self, tmp_path, label):
        np.savetxt(tmp_path / "x.csv", np.zeros((3, 2)), delimiter=",")
        np.savetxt(tmp_path / "y.csv", np.ones((3, 2)), delimiter=",")
        (tmp_path / "t.csv").write_text(f"0\n1\n{label}\n")
        with pytest.raises(ValueError, match=f"label {label} at row 2 is not an integer"):
            load_dataset(tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "t.csv")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope.csv", tmp_path / "nope2.csv")

    @pytest.mark.parametrize("text", ["", "\n \n"])
    @pytest.mark.parametrize("what", ["features", "candidates"])
    def test_empty_csv_named_before_loadtxt_warns(self, tmp_path, what, text):
        np.savetxt(tmp_path / "features.csv", np.zeros((3, 2)), delimiter=",")
        np.savetxt(tmp_path / "candidates.csv", np.ones((3, 2)), delimiter=",")
        (tmp_path / f"{what}.csv").write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"empty {what} CSV .*{what}.csv"):
                load_dataset(tmp_path / "features.csv", tmp_path / "candidates.csv")

    def test_malformed_csv(self, tmp_path):
        (tmp_path / "x.csv").write_text("1.0,banana\n")
        (tmp_path / "y.csv").write_text("1,0\n")
        with pytest.raises(ValueError, match="malformed features"):
            load_dataset(tmp_path / "x.csv", tmp_path / "y.csv")


def test_dataset_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="rows"):
        PartialLabelDataset(np.zeros((3, 2)), np.ones((2, 2)))
