"""Row-wise solver for the partner's auxiliary-confidence subproblem.

Each row solves

    min  c^T c + g^T c   s.t.  yhat <= c <= 1,  sum(c) = l - 1

for a 0/1 non-candidate mask ``yhat`` with at least one 0 (a candidate);
this partner's box is the only one the module poses, and
:class:`RowQpProblem` rejects any other. A non-candidate is pinned at 1,
so only a row's |S| candidates are free, on [0, 1] and summing to
|S| - 1, a target that always lies in [0, |S|]. Their stationarity system
is a clipped affine map of one scalar multiplier ``nu``:

    c_j(nu) = clip((-g_j - nu) / 2, 0, 1)

whose coordinate sum is non-increasing in ``nu``, so the equality
constraint reduces to a monotone scalar root. One solver finds it: a
bisection on every row at once, on a :class:`CandidateLayout` that lists
each row's candidates label-major, padded to the widest set, ``w`` of
them, so a row's sum is vector additions over the rows, in label order.
:func:`solve_matrix` runs it on all rows and
:func:`solve_row_with_multiplier` on one. A step runs three in-place
ufuncs and a sum over one 64-byte-aligned ``(w, n)`` buffer, bit for bit
``np.clip((-g - mid) / 2, 0, 1)``: it steps on ``-g / 2`` and halved
multipliers, as negation and halving are exact, and maximum-then-minimum
is ``np.clip`` to the bit, signed zeros and NaN included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NU_TOL = 1e-12
MAX_BISECT = 200


@dataclass(frozen=True)
class RowQpProblem:
    """One row of the partner's QP: a finite linear term, the box ``[lower,
    upper]`` of a 0/1 ``lower`` with at least one 0 and an all-1 ``upper``,
    and the sum target ``l - 1``."""

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
        if not (g.ndim == 1 and g.shape == lo.shape == hi.shape):
            raise ValueError("linear, lower, upper must be vectors of one shape")
        if not (
            np.isfinite(g).all() and np.isin(lo, (0, 1)).all() and (lo == 0).any()
            and (hi == 1).all() and self.sum_target == len(g) - 1
        ):
            raise ValueError(
                "not the partner's box: a finite linear term, a 0/1 lower with at "
                f"least one 0, an upper of all 1 and the sum target l - 1 = {len(g) - 1}"
            )


def _clip_map(h, nu, out):
    """``np.clip(h - nu, 0, 1)`` bit for bit, into ``out``: ``np.maximum``
    returns its second operand on a tie, so ``out`` goes second, or -0
    would become +0 where ``np.clip`` keeps it."""
    np.subtract(h, nu, out=out)
    return np.minimum(np.maximum(0.0, out, out=out), 1.0, out=out)


def _aligned_empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized C-contiguous float64 array starting on a 64-byte line."""
    size = math.prod(shape)
    raw = np.empty(size + 8)
    start = -raw.ctypes.data % 64 // 8
    return raw[start : start + size].reshape(shape)


def _bisect(g, target, pad) -> tuple[np.ndarray, np.ndarray]:
    """Minimizers ``c``, label-major, and multipliers ``nu`` of the row
    problems in the columns of a label-major ``(w, n)`` linear term ``g``,
    on the box [0, 1] with one ``target`` a row; ``pad`` slots clip to 0
    and stay out of the bracket."""
    h = np.multiply(g, -0.5, out=_aligned_empty(g.shape))
    np.putmask(h, pad, np.inf)
    # per row, the coordinate sum is maximal at nu_lo and minimal at nu_hi
    nu_lo = (h - 1.0).min(axis=0)
    np.putmask(h, pad, -np.inf)
    nu_hi = h.max(axis=0)
    buf, mid, s = _aligned_empty(h.shape), np.empty_like(nu_lo), np.empty_like(nu_lo)
    for _ in range(MAX_BISECT):
        if (nu_hi - nu_lo).max() <= NU_TOL / 2:
            break
        np.multiply(np.add(nu_lo, nu_hi, out=mid), 0.5, out=mid)
        too_low = np.add.reduce(_clip_map(h, mid, buf), axis=0, out=s) >= target
        np.putmask(nu_lo, too_low, mid)
        np.putmask(nu_hi, ~too_low, mid)
    np.multiply(np.add(nu_lo, nu_hi, out=mid), 0.5, out=mid)
    return _clip_map(h, mid, buf), 2.0 * mid


def _solve_on(layout, g, shape) -> tuple[np.ndarray, np.ndarray]:
    """Bisect on ``layout`` with ``g`` gathered at its entries; ``c``
    scattered into ones of ``shape``, and the multipliers."""
    c, nu = _bisect(g, layout.target, layout.pad)
    np.putmask(c, layout.pad, 1.0)
    out = np.ones(shape)
    out.reshape(-1)[layout.index] = c  # a fancy store is twice as fast as put
    return out, nu


def solve_row_with_multiplier(problem: RowQpProblem) -> tuple[np.ndarray, float]:
    """Minimizer of one row problem together with its equality multiplier."""
    layout = candidate_layout(problem.lower[None])
    c, nu = _solve_on(layout, problem.linear.take(layout.index), problem.lower.shape)
    return c, float(nu[0])


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
    return _solve_on(layout, g, j.shape)[0]
