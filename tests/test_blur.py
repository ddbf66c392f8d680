import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plcp.blur import blur_labeling, blur_noncandidate, validate_temperature

# frozen from a high-precision scalar evaluation of exp(exp(k) * p) with
# k = -1 followed by row normalization
BLUR_08_02 = (0.5549589605604994, 0.4450410394395006)
BLUR_NC_02_06 = (0.5367217047879180, 0.4632782952120820)


class TestBlurLabeling:
    def test_two_entry_value(self):
        out = blur_labeling(
            np.array([[0.8, 0.2, 0.0]]), np.array([[1.0, 1.0, 0.0]]), k=-1.0
        )
        np.testing.assert_allclose(out[0, :2], BLUR_08_02, atol=1e-4)
        assert out[0, 2] == 0.0

    def test_uniform_is_fixed_point(self):
        y = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 1.0, 0.0]])
        p = y / y.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(blur_labeling(p, y, k=-1.0), p, atol=1e-12)

    def test_strong_blur_approaches_uniform(self):
        y = np.array([[1.0, 1.0, 1.0]])
        p = np.array([[0.9, 0.1, 0.0]])
        out = blur_labeling(p, y, k=-20.0)
        assert np.abs(out - 1.0 / 3.0).max() < 1e-6

    def test_empty_candidate_row_rejected(self):
        with pytest.raises(ValueError, match="empty candidate"):
            blur_labeling(np.array([[0.5, 0.5]]), np.array([[0.0, 0.0]]), k=-1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            blur_labeling(np.zeros((1, 3)), np.zeros((1, 2)), k=-1.0)


class TestBlurNoncandidate:
    def test_two_entry_value(self):
        out = blur_noncandidate(
            np.array([[0.2, 0.6, 1.0]]), np.array([[1.0, 1.0, 0.0]]), k=-1.0
        )
        np.testing.assert_allclose(out[0, :2], BLUR_NC_02_06, atol=1e-4)
        assert out[0, 2] == 0.0

    def test_untouched_complement_gives_uniform(self):
        y = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        phat = 1.0 - y
        out = blur_noncandidate(phat, y, k=-1.0)
        np.testing.assert_allclose(out, y / y.sum(axis=1, keepdims=True), atol=1e-12)

    def test_singleton_candidate_one_hot(self):
        out = blur_noncandidate(
            np.array([[1.0, 0.3, 1.0]]), np.array([[0.0, 1.0, 0.0]]), k=-1.0
        )
        np.testing.assert_allclose(out[0], [0.0, 1.0, 0.0])


class TestTemperatureValidation:
    def test_above_ln2_rejected(self):
        with pytest.raises(ValueError, match="ln 2"):
            validate_temperature(0.8)

    def test_nonnegative_warns(self):
        with pytest.warns(UserWarning, match="contraction"):
            validate_temperature(0.5)

    def test_negative_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            validate_temperature(-1.0)


def two_entry_blur_gap(a: float, b: float, k: float) -> float:
    ea, eb = math.exp(math.exp(k) * a), math.exp(math.exp(k) * b)
    return (ea - eb) / (ea + eb)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(-10.0, -1e-3, exclude_max=True),
)
def test_contraction_of_two_entry_gaps(u, v, k):
    a, b = max(u, v), min(u, v)
    if a == b:
        return
    assert two_entry_blur_gap(a, b, k) < a - b


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 6),
    st.floats(-5.0, -0.01),
    st.randoms(use_true_random=False),
)
def test_order_preserved_and_rows_stochastic(l, k, rnd):
    y = np.zeros((1, l))
    support = rnd.sample(range(l), rnd.randint(1, l))
    y[0, support] = 1.0
    p = np.array([[rnd.random() for _ in range(l)]]) * y
    out = blur_labeling(p, y, k)
    assert abs(out.sum() - 1.0) < 1e-9
    assert (out[0, y[0] == 0] == 0.0).all()
    for i in support:
        for j in support:
            # strict order is preserved for gaps above float rounding scale
            if p[0, i] - p[0, j] > 1e-9:
                assert out[0, i] > out[0, j]
