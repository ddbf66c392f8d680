"""Row-wise solver for the partner's auxiliary-confidence subproblem.

Each row solves

    min  c^T c + g^T c   s.t.  lower <= c <= upper,  sum(c) = sum_target

which is a strictly convex separable QP. Its stationarity system is a
box-clipped affine map of one scalar multiplier ``nu``:

    c_j(nu) = clip((-g_j - nu) / 2, lower_j, upper_j)

The coordinate sum of ``c(nu)`` is non-increasing in ``nu``, so the
equality constraint reduces to a monotone scalar root found by bisection,
run on all rows at once. It works label-major, on ``(l, n)`` arrays, so a
row's sum is l vector additions over the n rows, in label order. Below 8
labels that is the order of a row-major sum, and ``c`` keeps its bits;
from 8 labels NumPy's row-major sum runs pairwise, and ``c`` can differ
from it by about 2e-13. A step runs four in-place ufuncs and a sum over one
``(l, n)`` buffer made once a call, bit for bit ``np.clip((-g - mid) / 2,
lo, hi)``: negation and halving are exact, and maximum-then-minimum is
``np.clip`` to the bit, signed zeros and NaN included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InvariantViolation

NU_TOL = 1e-12
MAX_BISECT = 200


@dataclass(frozen=True)
class RowQpProblem:
    """One row's linear term, box bounds, and equality target."""

    linear: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    sum_target: float

    def __post_init__(self):
        g = np.asarray(self.linear, float)
        lo = np.asarray(self.lower, float)
        hi = np.asarray(self.upper, float)
        object.__setattr__(self, "linear", g)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if not g.shape == lo.shape == hi.shape:
            raise ValueError("linear, lower, upper must share one shape")
        if not all(np.isfinite(a).all() for a in (g, lo, hi)):
            raise ValueError("linear, lower and upper must be finite")
        if (lo > hi).any():
            raise ValueError("lower bound exceeds upper bound")
        if not lo.sum() - 1e-12 <= self.sum_target <= hi.sum() + 1e-12:
            raise ValueError(
                f"infeasible: sum target {self.sum_target} outside "
                f"[{lo.sum()}, {hi.sum()}]"
            )


def _clip_map(ng, nu, lo, hi, out=None):
    """``np.clip((ng - nu) / 2, lo, hi)`` bit for bit, into ``out``; with
    ``np.maximum(lo, out)`` a zero would change its sign."""
    out = np.multiply(np.subtract(ng, nu, out=out), 0.5, out=out)
    return np.minimum(np.maximum(out, lo, out=out), hi, out=out)


def _bisect(
    g: np.ndarray, lo: np.ndarray, hi: np.ndarray, target: float
) -> tuple[np.ndarray, np.ndarray]:
    """Minimizers ``c`` and multipliers ``nu`` of ``(n, l)`` row problems.

    The bisection runs vectorized across rows, each with its own multiplier,
    on label-major copies; ``c`` comes back as a fresh C-contiguous array.
    """
    ng, lo, hi = (np.ascontiguousarray(a.T) for a in (-g, lo, hi))
    # per row, the coordinate sum is maximal at nu_lo and minimal at nu_hi
    nu_lo = (ng - 2.0 * hi).min(axis=0)
    nu_hi = (ng - 2.0 * lo).max(axis=0)
    if not (np.isfinite(nu_lo).all() and np.isfinite(nu_hi).all()):
        raise ValueError("row QP has a non-finite linear term or bound")
    buf, mid, s = np.empty_like(ng), np.empty_like(nu_lo), np.empty_like(nu_lo)
    for _ in range(MAX_BISECT):
        if (nu_hi - nu_lo).max() <= NU_TOL:
            break
        np.multiply(np.add(nu_lo, nu_hi, out=mid), 0.5, out=mid)
        too_low = np.add.reduce(_clip_map(ng, mid, lo, hi, buf), axis=0, out=s) >= target
        np.putmask(nu_lo, too_low, mid)
        np.putmask(nu_hi, ~too_low, mid)
    np.multiply(np.add(nu_lo, nu_hi, out=mid), 0.5, out=mid)
    return _clip_map(ng, mid, lo, hi, buf).T.copy(), mid


def solve_row_with_multiplier(problem: RowQpProblem) -> tuple[np.ndarray, float]:
    """Minimizer of one row problem together with its equality multiplier."""
    g, lo, hi = problem.linear, problem.lower, problem.upper
    nu_lo = float((-g - 2.0 * hi).min())
    nu_hi = float((-g - 2.0 * lo).max())
    # bracketing: sum is maximal (= sum of uppers) at nu_lo, minimal at nu_hi
    if not _clip_map(-g, nu_lo, lo, hi).sum() >= problem.sum_target - 1e-9:
        raise InvariantViolation("bracket end nu_lo gives a sum below the target")
    if not _clip_map(-g, nu_hi, lo, hi).sum() <= problem.sum_target + 1e-9:
        raise InvariantViolation("bracket end nu_hi gives a sum above the target")
    c, nu = _bisect(g[None], lo[None], hi[None], problem.sum_target)
    return c[0], float(nu[0])


def kkt_residual(problem: RowQpProblem, c: np.ndarray, nu: float) -> float:
    """Worst violation of stationarity, sign conditions, and the constraints.

    Interior coordinates require ``2c + g + nu = 0``; lower-active ones
    require ``2c + g + nu >= 0`` and upper-active ones ``<= 0``.
    """
    g, lo, hi = problem.linear, problem.lower, problem.upper
    grad = 2.0 * c + g + nu
    # coordinates pinned by lower == upper carry no sign condition
    pinned = hi - lo <= 1e-12
    at_lower = (c <= lo + 1e-9) & ~pinned
    at_upper = (c >= hi - 1e-9) & ~pinned
    interior = ~(at_lower | at_upper | pinned)
    residual = 0.0
    if interior.any():
        residual = max(residual, float(np.abs(grad[interior]).max()))
    if at_lower.any():
        residual = max(residual, float(np.maximum(-grad[at_lower], 0.0).max()))
    if at_upper.any():
        residual = max(residual, float(np.maximum(grad[at_upper], 0.0).max()))
    residual = max(residual, abs(float(c.sum()) - problem.sum_target))
    residual = max(residual, float(np.maximum(lo - c, 0.0).max()))
    residual = max(residual, float(np.maximum(c - hi, 0.0).max()))
    return residual


def solve_matrix(
    j: np.ndarray, o: np.ndarray, yhat: np.ndarray, gamma: float
) -> np.ndarray:
    """Solve every row problem of the auxiliary-confidence update at once.

    Row ``i`` minimizes ``c^T c + (gamma * o_i - 2 * j_i)^T c`` over the box
    ``[yhat_i, 1]`` with coordinate sum ``l - 1``. Non-finite input raises
    ``ValueError`` before any step; ``c`` comes back as a fresh array.
    """
    j, o, yhat = np.asarray(j, float), np.asarray(o, float), np.asarray(yhat, float)
    if not j.shape == o.shape == yhat.shape:
        raise ValueError("j, o, yhat must share one shape")
    l = j.shape[1]
    g = gamma * o - 2.0 * j
    target = float(l - 1)
    if (yhat.sum(axis=1) > target + 1e-12).any():
        raise ValueError("infeasible row: non-candidate mass exceeds l - 1")
    return _bisect(g, yhat, np.ones_like(g), target)[0]
