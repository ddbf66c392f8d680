"""Row-wise solver for the partner's auxiliary-confidence subproblem.

Each row solves

    min  c^T c + g^T c   s.t.  lower <= c <= upper,  sum(c) = sum_target

which is a strictly convex separable QP. Its stationarity system is a
box-clipped affine map of one scalar multiplier ``nu``:

    c_j(nu) = clip((-g_j - nu) / 2, lower_j, upper_j)

The coordinate sum of ``c(nu)`` is non-increasing in ``nu``, so the
equality constraint reduces to a monotone scalar root found by bisection,
run on all rows at once. It works label-major, so a row's sum is vector
additions over the rows, in label order. The partner's box is
``[yhat, 1]``: a non-candidate is pinned at 1, and only a row's |S|
candidates are free, summing to |S| - 1. So :func:`solve_matrix` bisects
on each row's candidates alone, from a :class:`CandidateLayout` padded to
the widest set, ``w`` of them; ``c`` is within about 5e-13 of a bisection
on all l labels. A step runs three in-place ufuncs and a sum over one
64-byte-aligned ``(w, n)`` buffer, bit for bit ``np.clip((-g - mid) / 2,
lo, hi)``: it steps on ``-g / 2`` and halved multipliers, as negation and
halving are exact, and maximum-then-minimum is ``np.clip`` to the bit,
signed zeros and NaN included.
"""

from __future__ import annotations

import math
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


def _clip_map(h, nu, lo, hi, out=None):
    """``np.clip(h - nu, lo, hi)`` bit for bit, into ``out``; with
    ``np.maximum(lo, out)`` a zero would change its sign."""
    out = np.subtract(h, nu, out=out)
    return np.minimum(np.maximum(out, lo, out=out), hi, out=out)


def _aligned_empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized C-contiguous float64 array starting on a 64-byte line."""
    size = math.prod(shape)
    raw = np.empty(size + 8)
    start = -raw.ctypes.data % 64 // 8
    return raw[start : start + size].reshape(shape)


def _bisect(g, lo, hi, target, pad=None) -> tuple[np.ndarray, np.ndarray]:
    """Minimizers ``c``, label-major, and multipliers ``nu`` of the row
    problems in the columns of a label-major ``(w, n)`` linear term ``g``.
    Bounds are scalars or ``(w, n)``, ``target`` a scalar or one per row,
    and ``pad`` slots clip to 0 and stay out of the bracket."""
    h = np.multiply(g, -0.5, out=_aligned_empty(g.shape))
    if pad is not None:
        np.putmask(h, pad, np.inf)
    # per row, the coordinate sum is maximal at nu_lo and minimal at nu_hi
    nu_lo = (h - hi).min(axis=0)
    if pad is not None:
        np.putmask(h, pad, -np.inf)
    nu_hi = (h - lo).max(axis=0)
    buf, mid, s = _aligned_empty(h.shape), np.empty_like(nu_lo), np.empty_like(nu_lo)
    for _ in range(MAX_BISECT):
        if (nu_hi - nu_lo).max() <= NU_TOL / 2:
            break
        np.multiply(np.add(nu_lo, nu_hi, out=mid), 0.5, out=mid)
        too_low = np.add.reduce(_clip_map(h, mid, lo, hi, buf), axis=0, out=s) >= target
        np.putmask(nu_lo, too_low, mid)
        np.putmask(nu_hi, ~too_low, mid)
    np.multiply(np.add(nu_lo, nu_hi, out=mid), 0.5, out=mid)
    return _clip_map(h, mid, lo, hi, buf), 2.0 * mid


def solve_row_with_multiplier(problem: RowQpProblem) -> tuple[np.ndarray, float]:
    """Minimizer of one row problem together with its equality multiplier."""
    g, lo, hi = problem.linear, problem.lower, problem.upper
    nu_lo = float((-g - 2.0 * hi).min())
    nu_hi = float((-g - 2.0 * lo).max())
    # bracketing: sum is maximal (= sum of uppers) at nu_lo, minimal at nu_hi
    if not _clip_map(-g / 2, nu_lo / 2, lo, hi).sum() >= problem.sum_target - 1e-9:
        raise InvariantViolation("bracket end nu_lo gives a sum below the target")
    if not _clip_map(-g / 2, nu_hi / 2, lo, hi).sum() <= problem.sum_target + 1e-9:
        raise InvariantViolation("bracket end nu_hi gives a sum above the target")
    c, nu = _bisect(g[:, None], lo[:, None], hi[:, None], problem.sum_target)
    return c[:, 0], float(nu[0])


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


@dataclass(frozen=True)
class CandidateLayout:
    """Column ``i`` of the ``(w, n)`` ``index`` holds the flat ``(n, l)``
    indices of row ``i``'s candidates in label order, then, in its ``pad``
    slots, of its first non-candidates; ``target`` is each row's |S| - 1."""

    index: np.ndarray
    pad: np.ndarray
    target: np.ndarray


def candidate_layout(yhat: np.ndarray) -> CandidateLayout:
    """The layout of the candidates (zeros) of a 0/1 non-candidate mask."""
    yhat = np.asarray(yhat, float)
    if not np.isin(yhat, (0, 1)).all():
        raise ValueError("yhat must be a 0/1 matrix")
    counts = (yhat == 0).sum(axis=1)
    if not counts.all():
        raise ValueError("infeasible row: non-candidate mass exceeds l - 1")
    # a stable sort puts each row's candidates first, both parts in label order
    order = np.argsort(yhat, axis=1, kind="stable")[:, : counts.max()]
    index = (order + yhat.shape[1] * np.arange(len(yhat))[:, None]).T.copy()
    layout = CandidateLayout(index, np.arange(len(index))[:, None] >= counts, counts - 1.0)
    for array in (layout.index, layout.pad, layout.target):
        array.flags.writeable = False
    return layout


def solve_matrix(
    j: np.ndarray, o: np.ndarray, yhat: np.ndarray, gamma: float,
    layout: CandidateLayout | None = None,
) -> np.ndarray:
    """Solve every row problem of the auxiliary-confidence update at once.

    Row ``i`` minimizes ``c^T c + (gamma * o_i - 2 * j_i)^T c`` over the box
    ``[yhat_i, 1]`` with coordinate sum ``l - 1``, for a 0/1 ``yhat`` whose
    :func:`candidate_layout` is ``layout`` (built here when None). Non-finite
    input raises ``ValueError`` before any step; ``c`` comes back as a fresh
    array.
    """
    j, o, yhat = np.asarray(j, float), np.asarray(o, float), np.asarray(yhat, float)
    if not j.shape == o.shape == yhat.shape:
        raise ValueError("j, o, yhat must share one shape")
    layout = candidate_layout(yhat) if layout is None else layout
    g = gamma * o.take(layout.index) - 2.0 * j.take(layout.index)
    if not (np.isfinite(g).all() and np.isfinite(j).all() and np.isfinite(o).all()):
        raise ValueError("row QP has a non-finite linear term")
    c = _bisect(g, 0.0, 1.0, layout.target, layout.pad)[0]
    np.putmask(c, layout.pad, 1.0)
    out = np.ones_like(j)
    out.reshape(-1)[layout.index] = c  # a fancy store is twice as fast as put
    return out
