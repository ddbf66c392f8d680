import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plcp.core import (
    PartialLabelDataset,
    init_confidence,
    update_labeling_confidence,
    update_noncandidate_confidence,
)
from plcp.data import SyntheticSpec, generate_synthetic, split


def make_dataset(candidates, truth=None):
    candidates = np.asarray(candidates, float)
    features = np.arange(candidates.shape[0] * 2, dtype=float).reshape(-1, 2)
    return PartialLabelDataset(features, candidates, truth)


class TestDatasetValidation:
    def test_empty_candidate_row_rejected(self):
        with pytest.raises(ValueError, match="row 1"):
            make_dataset([[1, 0], [0, 0]])

    def test_zero_rows_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            PartialLabelDataset(np.zeros((0, 2)), np.zeros((0, 3)))

    def test_non_matrix_rejected(self):
        with pytest.raises(ValueError, match="2-D matrices"):
            PartialLabelDataset(np.zeros(3), np.ones((3, 2)))

    @pytest.mark.parametrize(
        "truth, message",
        [
            ([0], "length must match"),
            ([0, 2], "labels out of range"),
            ([-1, 0], "labels out of range"),
        ],
        ids=["short", "above", "negative"],
    )
    def test_bad_truth_rejected(self, truth, message):
        with pytest.raises(ValueError, match=f"ground_truth {message}"):
            make_dataset(np.ones((2, 2)), truth=truth)

    def test_truth_outside_candidates_rejected(self):
        with pytest.raises(ValueError, match="outside candidate"):
            make_dataset([[1, 0], [0, 1]], truth=[1, 1])

    @pytest.mark.parametrize(
        "truth, message",
        [
            ([0.7, 1.5, 1.0], "label 0.7 at row 0"),
            ([0, 1, 1.5], "label 1.5 at row 2"),
            ([0, np.nan, 1], "label nan at row 1"),
            ([0, 1, np.inf], "label inf at row 2"),
        ],
        ids=["fractional", "fractional-later-row", "nan", "inf"],
    )
    def test_non_integer_truth_rejected(self, truth, message):
        with pytest.raises(ValueError, match=f"{message} is not an integer"):
            make_dataset(np.ones((3, 2)), truth=truth)

    def test_integer_valued_float_truth_kept(self):
        ds = make_dataset(np.ones((3, 2)), truth=np.array([0.0, 1.0, 1.0]))
        assert ds.ground_truth.dtype.kind == "i"
        np.testing.assert_array_equal(ds.ground_truth, [0, 1, 1])

    def test_nan_features_rejected(self):
        x = np.array([[np.nan, 0.0]])
        with pytest.raises(ValueError, match="NaN"):
            PartialLabelDataset(x, np.array([[1.0, 0.0]]))

    def test_non_binary_candidates_rejected(self):
        with pytest.raises(ValueError, match="0/1"):
            make_dataset([[0.5, 1.0]])

    def test_noncandidates_is_complement(self):
        ds = make_dataset([[1, 1, 0], [0, 1, 1]])
        np.testing.assert_array_equal(ds.noncandidates, 1.0 - ds.candidates)
        # one read-only mask per dataset, shared by every reader
        assert ds.noncandidates is ds.noncandidates
        assert not ds.noncandidates.flags.writeable


class TestDatasetArraysAndMemo:
    def test_arrays_are_read_only_copies(self):
        features = np.zeros((2, 2))
        candidates = np.ones((2, 2))
        truth = np.array([0, 1])
        ds = PartialLabelDataset(features, candidates, truth)
        for name in ("features", "candidates", "ground_truth"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(ds, name)[0] = 1
        # the caller's arrays are not the dataset's and stay writeable
        features[0, 0] = 5.0
        candidates[0, 0] = 0.0
        truth[0] = 1
        assert ds.features[0, 0] == 0.0 and ds.candidates[0, 0] == 1.0
        assert ds.ground_truth[0] == 0

    def test_derived_builds_once_per_key(self):
        ds = make_dataset([[1, 1], [1, 0]])
        calls = []

        def build():
            calls.append(1)
            return object()

        first = ds.derived("a", build)
        assert ds.derived("a", build) is first
        assert ds.derived("b", build) is not first
        assert len(calls) == 2

    def test_split_datasets_never_share_a_memo(self):
        ds = generate_synthetic(SyntheticSpec(n=20, d=2, l=3, flip_q=0.3, seed=1))
        train, test = split(ds, 0.5, seed=2)
        again = PartialLabelDataset(train.features, train.candidates, train.ground_truth)
        built = [d.derived("key", object) for d in (ds, train, test, again)]
        assert len({id(value) for value in built}) == 4
        # the memo takes no part in comparison or repr
        assert "memo" not in repr(train)


class TestInitConfidence:
    def test_uniform_over_candidates(self):
        ds = make_dataset([[1, 1, 0, 0]])
        state = init_confidence(ds)
        np.testing.assert_allclose(state.p[0], [0.5, 0.5, 0.0, 0.0])

    def test_singleton_candidate_one_hot(self):
        ds = make_dataset([[0, 0, 1, 0]])
        state = init_confidence(ds)
        np.testing.assert_allclose(state.p[0], [0.0, 0.0, 1.0, 0.0])

    def test_all_candidates(self):
        ds = make_dataset([[1, 1, 1, 1]])
        state = init_confidence(ds)
        np.testing.assert_allclose(state.p[0], [0.25] * 4)
        np.testing.assert_allclose(state.phat[0], [0.0] * 4)

    def test_first_supervision_is_initial_p(self):
        ds = make_dataset([[1, 1, 0], [1, 0, 1]])
        state = init_confidence(ds)
        np.testing.assert_array_equal(state.ohat, state.p)

    def test_blurred_o_matches_uniform_p(self):
        # uniform rows are fixed points of the blur, so o equals p here
        ds = make_dataset([[1, 1, 0], [1, 1, 1]])
        state = init_confidence(ds, k=-1.0)
        np.testing.assert_allclose(state.o, state.p, atol=1e-12)


class TestLabelingUpdate:
    def test_blend_then_clamp(self):
        out = update_labeling_confidence(
            np.array([[0.5, 0.5, 0.0]]),
            np.array([[0.9, 0.3, 0.4]]),
            np.array([[1.0, 1.0, 0.0]]),
            alpha=0.5,
        )
        np.testing.assert_allclose(out[0], [0.7, 0.4, 0.0])

    def test_alpha_one_keeps_previous(self):
        p = np.array([[0.3, 0.6, 0.0]])
        y = np.array([[1.0, 1.0, 0.0]])
        out = update_labeling_confidence(p, np.array([[9.0, -9.0, 9.0]]), y, alpha=1.0)
        np.testing.assert_allclose(out, p)

    def test_alpha_zero_clamps_model_output(self):
        out = update_labeling_confidence(
            np.array([[1.0, 0.0]]),
            np.array([[-0.2, 1.5]]),
            np.array([[1.0, 1.0]]),
            alpha=0.0,
        )
        np.testing.assert_allclose(out[0], [0.0, 1.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            update_labeling_confidence(
                np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((2, 3)), 0.5
            )

    @pytest.mark.parametrize("alpha", [-0.5, 1.5])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must be in \[0, 1\]"):
            update_labeling_confidence(np.zeros((1, 2)), np.zeros((1, 2)), np.ones((1, 2)), alpha)


class TestNoncandidateUpdate:
    def test_blend_then_clamp(self):
        out = update_noncandidate_confidence(
            np.array([[0.0, 1.0]]),
            np.array([[0.4, 0.2]]),
            np.array([[0.0, 1.0]]),
            alpha=0.5,
        )
        np.testing.assert_allclose(out[0], [0.2, 1.0])

    def test_saturates_at_one(self):
        out = update_noncandidate_confidence(
            np.array([[0.5, 0.5]]),
            np.array([[3.0, 2.0]]),
            np.array([[0.0, 0.0]]),
            alpha=0.0,
        )
        np.testing.assert_allclose(out, 1.0)


matrix_shapes = st.tuples(st.integers(1, 6), st.integers(2, 5))


@st.composite
def update_inputs(draw):
    n, l = draw(matrix_shapes)
    y = np.array(
        draw(
            st.lists(
                st.lists(st.integers(0, 1), min_size=l, max_size=l).filter(
                    lambda row: sum(row) > 0
                ),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=float,
    )
    elems = st.floats(-3.0, 3.0, allow_nan=False)
    p = np.array(draw(st.lists(st.lists(elems, min_size=l, max_size=l), min_size=n, max_size=n)))
    m = np.array(draw(st.lists(st.lists(elems, min_size=l, max_size=l), min_size=n, max_size=n)))
    alpha = draw(st.floats(0.0, 1.0))
    return p, m, y, alpha


@settings(max_examples=100, deadline=None)
@given(update_inputs())
def test_labeling_update_stays_in_box(inputs):
    p, m, y, alpha = inputs
    out = update_labeling_confidence(p, m, y, alpha)
    assert (out >= 0.0).all()
    assert (out <= y).all()


@settings(max_examples=100, deadline=None)
@given(update_inputs())
def test_noncandidate_update_stays_in_box(inputs):
    p, m, y, alpha = inputs
    yhat = 1.0 - y
    out = update_noncandidate_confidence(p, m, yhat, alpha)
    assert (out >= yhat).all()
    assert (out <= 1.0).all()


@settings(max_examples=100, deadline=None)
@given(update_inputs())
def test_updates_idempotent_at_fixed_points(inputs):
    p, m, y, alpha = inputs
    p_in = np.clip(p, 0.0, y)
    out = update_labeling_confidence(p_in, p_in, y, alpha)
    np.testing.assert_allclose(out, p_in, atol=1e-12)
    yhat = 1.0 - y
    phat_in = np.clip(m, yhat, 1.0)
    out = update_noncandidate_confidence(phat_in, phat_in, yhat, alpha)
    np.testing.assert_allclose(out, phat_in, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(update_inputs(), st.floats(0.0, 1.0))
def test_blend_monotone_in_alpha(inputs, alpha2):
    # before clamping the blend is a convex combination, so the output is
    # always between the clamped endpoints
    p, m, y, alpha = inputs
    out = update_labeling_confidence(p, m, y, alpha)
    lo = np.minimum(np.clip(p, 0, y), np.clip(m, 0, y))
    hi = np.maximum(np.clip(p, 0, y), np.clip(m, 0, y))
    assert (out >= lo - 1e-12).all()
    assert (out <= hi + 1e-12).all()
