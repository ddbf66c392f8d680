import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plcp import qp
from plcp.partner import labels_from_output
from plcp.qp import (
    MAX_BISECT,
    NU_TOL,
    RowQpProblem,
    kkt_residual,
    solve_matrix,
    solve_row_with_multiplier,
)

TOL = 1e-8


def enumeration_oracle(g, lo, hi, target):
    """Exhaustive reference solver: try every lower/interior/upper pattern.

    For each pattern the interior multiplier follows from the sum
    constraint; a pattern is admitted if its coordinates respect the box
    and the sign conditions. The best admitted candidate by objective
    value is returned.
    """
    l = len(g)
    best, best_obj = None, np.inf
    for pattern in itertools.product((0, 1, 2), repeat=l):
        pattern = np.array(pattern)
        c = np.where(pattern == 0, lo, np.where(pattern == 2, hi, 0.0))
        interior = pattern == 1
        fixed_sum = c[~interior].sum()
        if interior.any():
            m = interior.sum()
            nu = (-(g[interior].sum()) - 2.0 * (target - fixed_sum)) / m
            c_int = (-g[interior] - nu) / 2.0
            if (c_int < lo[interior] - 1e-9).any() or (c_int > hi[interior] + 1e-9).any():
                continue
            c = c.astype(float)
            c[interior] = c_int
        else:
            if abs(fixed_sum - target) > 1e-9:
                continue
            nu_min = (-g - 2.0 * lo)[pattern == 0].max() if (pattern == 0).any() else -np.inf
            nu_max = (-g - 2.0 * hi)[pattern == 2].min() if (pattern == 2).any() else np.inf
            if nu_min > nu_max + 1e-9:
                continue
            nu = np.clip(0.0, nu_min, nu_max)
        grad = 2.0 * c + g + nu
        if (grad[pattern == 0] < -1e-7).any() or (grad[pattern == 2] > 1e-7).any():
            continue
        obj = float(c @ c + g @ c)
        if obj < best_obj - 1e-12 or best is None:
            best, best_obj = c, obj
    assert best is not None, "oracle found no KKT point"
    return best


def row_major_bisection(g, lo, hi, target):
    """Reference bisection on ``(n, l)`` rows, each row reduced on its own.

    Same bracket, tolerance, midpoint and clip as the solver, with every
    per-row reduction taken over a row's l labels in memory order.
    """
    def clip(nu):
        return np.clip((-g - nu[:, None]) / 2.0, lo, hi)

    nu_lo = (-g - 2.0 * hi).min(axis=1)
    nu_hi = (-g - 2.0 * lo).max(axis=1)
    for _ in range(MAX_BISECT):
        if (nu_hi - nu_lo).max() <= NU_TOL:
            break
        mid = 0.5 * (nu_lo + nu_hi)
        too_low = clip(mid).sum(axis=1) >= target
        nu_lo = np.where(too_low, mid, nu_lo)
        nu_hi = np.where(too_low, nu_hi, mid)
    return clip(0.5 * (nu_lo + nu_hi))


def _clip_map(nu, g, lo, hi):
    return np.clip((-g - nu) / 2.0, lo, hi)


def allocating_layout_bisection(g: np.ndarray, yhat: np.ndarray) -> np.ndarray:
    """The solver's label-major bisection on each row's candidate coordinates
    only, with every op allocating a new array and the clip taken by
    ``np.clip``: the byte oracle of ``solve_matrix``.

    Row ``i``'s candidates, in label order, fill column ``i`` of a
    label-major ``(w, n)`` array padded with zeros that stay out of the
    bracket and the clip; its target is its candidate count less one, and
    its non-candidates come back as 1.
    """
    n, l = g.shape
    columns = [np.flatnonzero(row == 0) for row in yhat]
    width = max(len(cols) for cols in columns)
    real, cand_g = np.zeros((width, n), bool), np.zeros((width, n))
    for i, cols in enumerate(columns):
        real[: len(cols), i] = True
        cand_g[: len(cols), i] = g[i, cols]
    target = real.sum(axis=0) - 1.0
    nu_lo = np.where(real, -cand_g - 2.0, np.inf).min(axis=0)
    nu_hi = np.where(real, -cand_g, -np.inf).max(axis=0)
    for _ in range(MAX_BISECT):
        if (nu_hi - nu_lo).max() <= NU_TOL:
            break
        mid = 0.5 * (nu_lo + nu_hi)
        too_low = np.where(real, _clip_map(mid, cand_g, 0.0, 1.0), 0.0).sum(axis=0) >= target
        nu_lo = np.where(too_low, mid, nu_lo)
        nu_hi = np.where(too_low, nu_hi, mid)
    c = _clip_map(0.5 * (nu_lo + nu_hi), cand_g, 0.0, 1.0)
    out = np.ones((n, l))
    for i, cols in enumerate(columns):
        out[i, cols] = c[: len(cols), i]
    return out


# three rows at l = 5 (inputs of solve_matrix at gamma 2) on which a
# reverse-order label sum changes c; found among 200,000 random_rows rows
NEAR_TIE_J = (
    ("0x1.6e96adb8de302p-5", "0x1.773fce32107fep-2", "-0x1.f3464961e5025p-4",
     "-0x1.58419245680bbp-2", "0x1.ff0b8655a9abep-1"),
    ("0x1.3981423ea5b2fp-1", "0x1.e01169c86e212p-5", "0x1.3d81a583402edp-2",
     "-0x1.68339a6afe2f5p-1", "0x1.0b72958622039p+0"),
    ("-0x1.8a9be434e89efp-3", "-0x1.4545581216e24p-2", "-0x1.d3f59ba61c4b8p-2",
     "-0x1.703be563f08efp-6", "0x1.e2efd03308d1cp-3"),
)
NEAR_TIE_O = (
    ("0x1.20a302f25e4a9p-1", "0x1.04201c3a9337bp-1", "0x1.511f230de0dcdp-1",
     "0x1.35a1d14331f54p-2", "0x1.49d28e9f9a63ap-1"),
    ("0x1.900df3fbfd3c3p-1", "0x1.34c8222f274fcp-2", "0x1.ea62e593d637cp-3",
     "0x1.c4d9f67cfc526p-2", "0x1.a4c53236c65e0p-2"),
    ("0x1.d7150ca1270a1p-1", "0x1.67e2392e8e7c4p-1", "0x1.0a2ecb8cddb20p-6",
     "0x1.7dc522928be20p-3", "0x1.75d7c180fc558p-1"),
)
NEAR_TIE_YHAT = ((1, 1, 0, 0, 1), (1, 0, 1, 0, 1), (0, 1, 1, 1, 0))


def random_rows(rng, n, l):
    """Inputs of ``solve_matrix``: every row keeps a candidate, and about a
    quarter of the rows keep exactly one."""
    j, o = rng.normal(size=(n, l)), rng.random((n, l))
    yhat = (rng.random((n, l)) < 0.4).astype(float)
    keep = rng.integers(l, size=n)
    yhat[rng.random(n) < 0.25] = 1.0
    yhat[np.arange(n), keep] = 0.0
    return j, o, yhat


def random_problem(rng, l):
    lo = np.zeros(l)
    lo[rng.random(l) < 0.4] = 1.0
    if (lo == 1.0).all():
        lo[rng.integers(l)] = 0.0
    g = rng.normal(scale=2.0, size=l)
    return RowQpProblem(linear=g, lower=lo, upper=np.ones(l), sum_target=float(l - 1))


class TestSolveRow:
    def test_fully_constrained_two_labels(self):
        problem = RowQpProblem(
            linear=np.array([5.0, -3.0]),
            lower=np.array([0.0, 1.0]),
            upper=np.array([1.0, 1.0]),
            sum_target=1.0,
        )
        c, _ = solve_row_with_multiplier(problem)
        np.testing.assert_allclose(c, [0.0, 1.0], atol=1e-9)

    def test_interior_hand_solution(self):
        # g = gamma * o with gamma=2, o=[0.5,0.3,0.2]; the stationarity
        # system gives nu=-2 with every coordinate interior
        problem = RowQpProblem(
            linear=2.0 * np.array([0.5, 0.3, 0.2]),
            lower=np.zeros(3),
            upper=np.ones(3),
            sum_target=2.0,
        )
        c, nu = solve_row_with_multiplier(problem)
        np.testing.assert_allclose(c, [0.5, 0.7, 0.8], atol=1e-8)
        assert nu == pytest.approx(-2.0, abs=1e-8)

    def test_zero_linear_term_uniform(self):
        problem = RowQpProblem(
            linear=np.zeros(3), lower=np.zeros(3), upper=np.ones(3), sum_target=2.0
        )
        c, _ = solve_row_with_multiplier(problem)
        np.testing.assert_allclose(c, [2 / 3] * 3, atol=1e-9)

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError, match="partner's box"):
            RowQpProblem(
                linear=np.zeros(2),
                lower=np.zeros(2),
                upper=np.ones(2),
                sum_target=3.0,
            )

    @pytest.mark.parametrize(
        "name, value",
        itertools.product(["linear", "lower", "upper"], [np.nan, np.inf, -np.inf]),
    )
    def test_non_finite_problem_rejected(self, name, value):
        arrays = {"linear": np.array([0.0, 0.0, 1.0]), "lower": np.zeros(3), "upper": np.ones(3)}
        arrays[name][0] = value
        with pytest.raises(ValueError, match="finite"):
            RowQpProblem(**arrays, sum_target=2.0)

    @pytest.mark.parametrize(
        "lower, upper, sum_target",
        [
            ([0.0, 0.5, 1.0], [1.0, 1.0, 1.0], 2.0),
            ([0.0, 1.0, 1.0], [1.0, 2.0, 1.0], 2.0),
            ([0.0, 1.0, 1.0], [1.0, 1.0, 1.0], 1.0),
            ([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 2.0),
        ],
        ids=["half-lower", "upper-2", "target-not-l-1", "no-free-coordinate"],
    )
    def test_other_boxes_rejected(self, lower, upper, sum_target):
        with pytest.raises(ValueError, match="partner's box"):
            RowQpProblem(np.zeros(3), np.array(lower), np.array(upper), sum_target)

    @pytest.mark.parametrize(
        "linear, lower", [((3,), (2,)), ((1, 3), (1, 3))], ids=["unequal", "matrix"]
    )
    def test_non_vectors_rejected(self, linear, lower):
        with pytest.raises(ValueError, match="vectors of one shape"):
            RowQpProblem(np.zeros(linear), np.zeros(lower), np.ones(lower), 2.0)

    @pytest.mark.parametrize(
        "lower",
        [[1.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0], [0.0]],
        ids=["one-candidate", "all-candidates", "one-label"],
    )
    def test_one_row_is_a_row_of_the_matrix_solver(self, lower):
        # the one-row call keeps the bytes of the candidate-only oracle, and so
        # of solve_matrix on that one row
        lower = np.array(lower)
        g = np.array([0.7, -1.3, 0.2, 2.5])[: len(lower)]
        problem = RowQpProblem(g, lower, np.ones_like(lower), len(lower) - 1.0)
        c, nu = solve_row_with_multiplier(problem)
        expected = allocating_layout_bisection(g[None], lower[None])[0]
        assert c.tobytes() == expected.tobytes()
        row = solve_matrix(-g[None] / 2, np.zeros((1, len(g))), lower[None], gamma=0.0)
        assert c.tobytes() == row[0].tobytes()
        assert (c[lower == 1] == 1.0).all() and isinstance(nu, float)
        oracle = enumeration_oracle(g, lower, np.ones_like(g), len(g) - 1.0)
        np.testing.assert_allclose(c, oracle, atol=TOL)
        assert kkt_residual(problem, c, nu) < TOL

    @pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
    def test_matches_enumeration_oracle(self, l):
        rng = np.random.default_rng(l)
        for _ in range(40):
            problem = random_problem(rng, l)
            c, nu = solve_row_with_multiplier(problem)
            expected = enumeration_oracle(
                problem.linear, problem.lower, problem.upper, problem.sum_target
            )
            np.testing.assert_allclose(c, expected, atol=TOL)
            assert kkt_residual(problem, c, nu) < TOL


class TestSolveMatrix:
    def test_single_row_reduces_to_solve_row(self):
        rng = np.random.default_rng(5)
        j = rng.normal(size=(1, 4))
        o = rng.random((1, 4))
        yhat = np.zeros((1, 4))
        out = solve_matrix(j, o, yhat, gamma=2.0)
        problem = RowQpProblem(
            linear=2.0 * o[0] - 2.0 * j[0],
            lower=yhat[0],
            upper=np.ones(4),
            sum_target=3.0,
        )
        np.testing.assert_allclose(out[0], solve_row_with_multiplier(problem)[0], atol=1e-10)

    def test_random_matrix_against_oracle(self):
        rng = np.random.default_rng(9)
        n, l = 5, 4
        j = rng.normal(size=(n, l))
        o = rng.random((n, l))
        yhat = (rng.random((n, l)) < 0.3).astype(float)
        yhat[np.arange(n), rng.integers(l, size=n)] = 0.0
        out = solve_matrix(j, o, yhat, gamma=2.0)
        for i in range(n):
            g = 2.0 * o[i] - 2.0 * j[i]
            expected = enumeration_oracle(g, yhat[i], np.ones(l), float(l - 1))
            np.testing.assert_allclose(out[i], expected, atol=TOL)

    def test_constraints_hold_exactly(self):
        rng = np.random.default_rng(21)
        j = rng.normal(size=(50, 5))
        o = rng.random((50, 5))
        yhat = np.zeros((50, 5))
        out = solve_matrix(j, o, yhat, gamma=2.0)
        np.testing.assert_allclose(out.sum(axis=1), 4.0, atol=1e-9)
        assert (out >= -1e-12).all() and (out <= 1.0 + 1e-12).all()

    def test_zero_gamma_feasible_point_is_fixed(self):
        # projection of an already-feasible interior point returns the point
        j = np.array([[0.4, 0.8, 0.8], [0.2, 0.9, 0.9]])
        out = solve_matrix(j, np.zeros_like(j), np.zeros_like(j), gamma=0.0)
        np.testing.assert_allclose(out, j, atol=1e-9)

    @pytest.mark.parametrize("l", [*range(1, 8), 8, 30])
    def test_matches_row_major_bisection(self, l):
        # the bisection on each row's candidates ends within the tolerance of
        # the one on all l labels, so only the last bits may differ
        j, o, yhat = random_rows(np.random.default_rng(100 + l), 300, l)
        assert (yhat.sum(axis=1) == l - 1).any()
        out = solve_matrix(j, o, yhat, gamma=2.0)
        expected = row_major_bisection(2.0 * o - 2.0 * j, yhat, np.ones((300, l)), l - 1.0)
        assert out.shape == (300, l) and out.dtype == np.float64 and out.flags.c_contiguous
        np.testing.assert_allclose(out, expected, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(labels_from_output(out), labels_from_output(expected))

    def test_label_sum_order_on_near_tie_rows(self):
        # rows whose clip-map sum over all l labels comes so close to l - 1
        # during the bisection that the label order of the sum decides a
        # comparison (about 1 in 2000 random rows at l = 5); on their
        # candidates solve_matrix keeps the label-order oracle's bytes
        j = np.array([[float.fromhex(v) for v in row] for row in NEAR_TIE_J])
        o = np.array([[float.fromhex(v) for v in row] for row in NEAR_TIE_O])
        yhat = np.array(NEAR_TIE_YHAT, float)
        for rows in (slice(None), *([i] for i in range(len(j)))):
            g = 2.0 * o[rows] - 2.0 * j[rows]
            out = solve_matrix(j[rows], o[rows], yhat[rows], gamma=2.0)
            assert out.tobytes() == allocating_layout_bisection(g, yhat[rows]).tobytes()

    @pytest.mark.parametrize("l", [*range(1, 9), 30, 171])
    def test_bytes_match_allocating_bisection(self, l):
        # solve_matrix keeps the candidate-only oracle's bytes, also while
        # some row keeps every label (up to 8 labels here)
        j, o, yhat = random_rows(np.random.default_rng(400 + l), 200, l)
        assert (yhat == 0).all(axis=1).any() == (l <= 8)
        expected = allocating_layout_bisection(2.0 * o - 2.0 * j, yhat)
        assert solve_matrix(j, o, yhat, gamma=2.0).tobytes() == expected.tobytes()

    def test_fortran_order_input_keeps_the_bytes(self):
        # c is scattered into a C-order matrix of ones, whatever j's order
        j, o, yhat = random_rows(np.random.default_rng(13), 40, 6)
        expected = solve_matrix(j, o, yhat, gamma=2.0)
        out = solve_matrix(*(np.asfortranarray(a) for a in (j, o, yhat)), gamma=2.0)
        assert out.flags.c_contiguous and out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("l, candidates", [(9, 4.0), (30, 9.7), (171, 2.1)])
    def test_layout_bytes_match_candidate_oracle(self, l, candidates):
        # 9.7 and 2.1 candidates a row are the sweep-l30 bench's and the
        # paper's data shapes; a given layout and a built one agree
        rng = np.random.default_rng(700 + l)
        j, o = rng.normal(size=(300, l)), rng.random((300, l))
        yhat = (rng.random((300, l)) >= (candidates - 1.0) / (l - 1.0)).astype(float)
        yhat[np.arange(300), rng.integers(l, size=300)] = 0.0
        layout = qp.candidate_layout(yhat)
        assert len(layout.index) < l
        expected = allocating_layout_bisection(2.0 * o - 2.0 * j, yhat)
        assert solve_matrix(j, o, yhat, gamma=2.0).tobytes() == expected.tobytes()
        assert solve_matrix(j, o, yhat, 2.0, layout).tobytes() == expected.tobytes()
        dense = row_major_bisection(2.0 * o - 2.0 * j, yhat, np.ones_like(yhat), l - 1.0)
        np.testing.assert_allclose(expected, dense, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(labels_from_output(expected), labels_from_output(dense))

    def test_clip_map_is_np_clip_on_signed_zeros(self):
        # signed zeros and NaN against the scalar bounds, over 33 entries so
        # that both a vector body and a scalar tail run; np.maximum(buf, 0)
        # would return +0 where the value is -0 and np.clip keeps -0
        h = np.resize([0.0, -0.0, np.nan, 0.25, 1.5, -2.0], 33)
        expected = np.clip(h - 0.0, 0.0, 1.0)
        out = np.empty(33)
        assert qp._clip_map(h, 0.0, out) is out
        assert out.tobytes() == expected.tobytes()
        assert np.signbit(out[:2]).tolist() == [False, True]

    def test_result_is_a_fresh_array(self):
        rng = np.random.default_rng(12)
        first_inputs, second_inputs = random_rows(rng, 40, 6), random_rows(rng, 40, 6)
        first = solve_matrix(*first_inputs, gamma=2.0)
        kept = first.copy()
        assert first.shape == (40, 6) and first.flags.c_contiguous and first.flags.owndata
        assert not any(np.shares_memory(first, a) for a in first_inputs)
        second = solve_matrix(*second_inputs, gamma=2.0)
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes()
        for l in (1, 6):  # a one-label transpose is contiguous without a copy
            out = solve_matrix(*random_rows(rng, 1, l), gamma=2.0)
            assert out.flags.c_contiguous and out.flags.owndata

    @pytest.mark.parametrize(
        "where, value",
        [*itertools.product(["j", "o"], [np.nan, np.inf, -np.inf]), ("gamma", np.nan)],
    )
    def test_non_finite_input_raises_before_bisecting(self, monkeypatch, where, value):
        steps = []
        monkeypatch.setattr(qp, "_clip_map", lambda *args: steps.append(args))
        inputs = dict(zip(["j", "o", "yhat"], random_rows(np.random.default_rng(8), 6, 4)))
        inputs["gamma"] = 2.0
        if where == "gamma":
            inputs["gamma"] = value
        else:
            inputs[where][3, 2] = value
        with pytest.raises(ValueError, match="non-finite"):
            solve_matrix(**inputs)
        assert steps == []

    @pytest.mark.parametrize(
        "where, value", itertools.product(["j", "o"], [np.nan, np.inf, -np.inf])
    )
    def test_non_finite_non_candidate_raises_before_bisecting(self, monkeypatch, where, value):
        # the candidate-only bisection never reads a non-candidate entry
        steps = []
        step = qp._clip_map
        monkeypatch.setattr(qp, "_clip_map", lambda *args: steps.append(args) or step(*args))
        inputs = dict(zip(["j", "o", "yhat"], random_rows(np.random.default_rng(8), 6, 9)))
        layout = qp.candidate_layout(inputs["yhat"])
        assert len(layout.index) < 9
        solve_matrix(**inputs, gamma=2.0, layout=layout)
        assert steps  # the probe sees the steps of a finite call
        steps.clear()
        row, col = np.argwhere(inputs["yhat"] == 1)[0]
        inputs[where][row, col] = value
        with pytest.raises(ValueError, match="non-finite"):
            solve_matrix(**inputs, gamma=2.0, layout=layout)
        assert steps == []

    def test_zero_hot_limit(self):
        rng = np.random.default_rng(33)
        o = rng.random((20, 5))
        o += np.arange(5) * 1e-3  # keep row maxima unique
        out = solve_matrix(np.zeros_like(o), o, np.zeros_like(o), gamma=1e6)
        for i in range(20):
            expected = np.ones(5)
            expected[np.argmax(o[i])] = 0.0
            np.testing.assert_allclose(out[i], expected, atol=1e-3)


class TestCandidateLayout:
    def test_hand_built_rows_of_one_several_and_all_candidates(self):
        # candidates {2}, {0, 3} and all four labels: each row's candidates
        # in label order, then its first non-candidates in the pad slots
        yhat = np.array([[1, 1, 0, 1], [0, 1, 1, 0], [0, 0, 0, 0]], float)
        layout = qp.candidate_layout(yhat)
        assert layout.index.T.tolist() == [[2, 0, 1, 3], [4, 7, 5, 6], [8, 9, 10, 11]]
        assert layout.pad.T.tolist() == [
            [False, True, True, True], [False, False, True, True], [False] * 4
        ]
        assert layout.target.tolist() == [0.0, 1.0, 3.0]
        assert not any(a.flags.writeable for a in (layout.index, layout.pad, layout.target))
        narrow = qp.candidate_layout(yhat[:2])
        assert narrow.index.T.tolist() == [[2, 0], [4, 7]]
        assert narrow.pad.T.tolist() == [[False, True], [False, False]]
        assert (yhat[:2].ravel()[narrow.index[narrow.pad]] == 1).all()

    def test_scatter_fills_non_candidates_with_one(self):
        yhat = np.array([[1, 1, 0, 1], [0, 1, 1, 0]], float)
        j = np.array([[0.3, -0.2, 0.1, 0.5], [0.2, 0.4, -0.1, 0.0]])
        out = solve_matrix(j, np.zeros_like(j), yhat, gamma=0.0)
        # one candidate: it takes 0; two at j = 0.2 and 0.0: 0.6 and 0.4
        np.testing.assert_allclose(out, [[1.0, 1.0, 0.0, 1.0], [0.6, 1.0, 1.0, 0.4]], atol=1e-12)
        assert (out[yhat == 1] == 1.0).all()
        assert out.flags.c_contiguous and out.flags.owndata

    def test_unequal_shapes_rejected(self):
        with pytest.raises(ValueError, match="j, o, yhat must share one shape"):
            solve_matrix(np.zeros((2, 3)), np.zeros((2, 2)), np.ones((2, 3)), 2.0)

    @pytest.mark.parametrize(
        "yhat, match",
        [([[0, 0.5, 1]], "0/1"), ([[0, np.nan, 1]], "0/1"), ([[0, 1], [1, 1]], "infeasible")],
    )
    def test_rejected_masks(self, yhat, match):
        with pytest.raises(ValueError, match=match):
            qp.candidate_layout(np.array(yhat, float))
        with pytest.raises(ValueError, match=match):
            solve_matrix(np.zeros_like(yhat, float), np.zeros_like(yhat, float), yhat, 2.0)


@pytest.mark.parametrize("shape", [(1, 0), (7, 0), (1, 1), (1, 13), (3, 7), (5, 2001)])
def test_aligned_empty_starts_on_a_64_byte_line(shape):
    arrays = [qp._aligned_empty(shape) for _ in range(16)]
    for a in arrays:
        assert a.shape == shape and a.dtype == np.float64
        assert a.flags.c_contiguous and a.flags.writeable
        assert a.size == 0 or a.ctypes.data % 64 == 0
        a[...] = 1.5
    assert all((a == 1.5).all() for a in arrays)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_solver_kkt_property(l, seed):
    problem = random_problem(np.random.default_rng(seed), l)
    c, nu = solve_row_with_multiplier(problem)
    assert kkt_residual(problem, c, nu) < TOL


def test_clip_sum_monotone_in_nu():
    rng = np.random.default_rng(2)
    problem = random_problem(rng, 5)
    nus = np.linspace(-10, 10, 401)
    sums = [
        np.clip((-problem.linear - nu) / 2.0, problem.lower, problem.upper).sum()
        for nu in nus
    ]
    assert all(a >= b - 1e-12 for a, b in zip(sums, sums[1:]))
