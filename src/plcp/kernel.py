"""Gaussian/linear kernels and the closed-form ridge solve in dual form.

The solve handles ``min ||K_space_model - C||_F^2 + ridge * ||W||_F^2`` with
an unpenalized bias, expressed through its stationarity system: with
``B = K/(2*ridge) + I/2``,

    s      = 1^T B^{-1}
    bias^T = s C / (s 1)
    A      = B^{-1} (C - 1 bias^T)

and the modeling output is ``K A / (2*ridge) + 1 bias^T``. On the training
rows ``B A = C - 1 bias^T`` turns that into ``C - A/2`` (the dual-ridge
identity fitted = target - ridge * dual), so only the factorization reads
the gram. ``B`` is symmetric positive definite for any PSD kernel matrix,
so a Cholesky factorization is always applicable. ``B`` and ``s`` depend on
the gram and the ridge only, so a :class:`RidgeSystem` factors them once
per (gram, ridge) and every solve onto a new target ``C`` reuses that factor.

A system keeps one n x n object: its factor, in rectangular full packed
(RFP) form, LAPACK's layout of one triangle in n(n+1)/2 doubles that its
level-3 ``pftrf``/``pftrs``/``pftri`` factor, solve and invert (Gustavson,
Wasniewski, Dongarra & Langou, ACM TOMS 37(2), 2010), or ``B^{-1}``,
against which a solve is one GEMM instead of two triangular solves, where
its one-off inversion repays itself within about 20 solves: n <= 20 l and
n <= 1500 (:func:`holds_inverse`). :func:`packed_gram` fills that buffer
with the gram's lower triangle, in blocks of rows, and :func:`ridge_system`
turns it into ``B`` and then into its factor without a copy. The one-off
:func:`kkt_solve` on a given gram packs a copy and keeps the factor.
Query rows are predicted one block at a time (:func:`predict_query`), so
no query-by-train kernel matrix is alive beside the system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpftrf, dpftri, dpftrs, dtfttr, dtrttf
from scipy.spatial.distance import cdist, pdist


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and its parameters.

    ``sigma=None`` resolves the Gaussian bandwidth to the mean pairwise
    distance of the training samples (self-pairs excluded). ``ridge`` is
    the weight-norm penalty of the ridge solve.
    """

    kind: str = "gaussian"
    sigma: float | None = None
    ridge: float = 0.05

    def __post_init__(self):
        if self.kind not in ("gaussian", "linear"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.sigma is not None and not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not (math.isfinite(self.ridge) and self.ridge > 0):
            raise ValueError(f"ridge must be positive and finite, got {self.ridge}")


@dataclass(frozen=True)
class RidgeSystem:
    """The factored or inverted system ``B = K/(2*ridge) + I/2`` of one (gram, ridge).

    Built by :func:`ridge_system`, whose factor lives in the buffer
    :func:`packed_gram` filled. Every :func:`kkt_solve` on it reuses the
    factor or the inverse, and ``s_row``.
    """

    ridge: float
    factor: np.ndarray | None  # (n(n+1)/2,) lower Cholesky factor of B, RFP with TRANSR='N'
    s_row: np.ndarray  # (n,) 1^T B^{-1}
    inverse: np.ndarray | None = None  # (n, n) B^{-1}, in place of the factor


@dataclass(frozen=True)
class KernelSolve:
    """Dual solve result: coefficients, bias, ridge and the training output.

    ``fitted`` is the modeling output on the training rows, ``C - A/2``;
    query rows go through :func:`predict`.
    """

    dual_coeffs: np.ndarray  # (n, l)
    bias: np.ndarray  # (l,)
    ridge: float
    fitted: np.ndarray  # (n, l)


def resolve_sigma(x: np.ndarray, spec: KernelSpec) -> float:
    """Bandwidth for the Gaussian kernel: fixed value or mean pairwise distance.

    The mean runs over distinct pairs only; including self-pairs would bias
    the bandwidth toward zero.
    """
    if spec.sigma is not None:
        return spec.sigma
    x = np.asarray(x, float)
    if x.shape[0] < 2:
        raise ValueError("cannot resolve sigma from fewer than two samples")
    sigma = float(pdist(x).mean())
    if sigma <= 0.0:
        raise ValueError("all samples identical: mean pairwise distance is zero")
    return sigma


def _gaussian(sq: np.ndarray, sigma: float) -> np.ndarray:
    # exp(-sq / (2 sigma^2)) in place: an n x n kernel needs no temporaries
    np.negative(sq, out=sq)
    sq /= 2.0 * sigma**2
    return np.exp(sq, out=sq)


def _finite(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, float)
    if not np.isfinite(x).all():
        raise ValueError("features contain NaN or Inf")
    return x


def _pairwise(a: np.ndarray, b: np.ndarray, kind: str) -> np.ndarray:
    """The rows' inner products (linear) or squared distances (Gaussian)."""
    return a @ b.T if kind == "linear" else cdist(a, b, "sqeuclidean")


def gram_matrix(x: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Train-by-train kernel matrix, in Fortran order: the transpose of
    :func:`cross_matrix` of ``x`` with itself, the same matrix to the bit, as
    ``cdist`` and ``x @ x.T`` give each pair's two entries equal bits."""
    return cross_matrix(_finite(x), x, spec).T


def cross_matrix(x_query: np.ndarray, x_train: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Query-by-train kernel evaluations, bandwidth taken from the train side."""
    x_query, x_train = np.asarray(x_query, float), np.asarray(x_train, float)
    sigma = None if spec.kind == "linear" else resolve_sigma(x_train, spec)
    block = _pairwise(x_query, x_train, spec.kind)
    return block if sigma is None else _gaussian(block, sigma)


# Entries per block of rows of a loop over n_train-wide rows: 1 MiB of float64.
_BLOCK_ENTRIES = 1 << 17


def block_rows(width: int) -> int:
    """Rows per block of a loop over rows ``width`` entries wide: the
    distance rows of the neighbour table's rows ranked among all train rows,
    :func:`packed_gram`'s kernel rows, :func:`predict_query`'s query rows
    and the columns of an inverse that :func:`ridge_system` mirrors."""
    return max(1, _BLOCK_ENTRIES // width)


def packed_gram(x: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """The lower triangle of ``gram_matrix(x, spec)`` in RFP form
    (TRANSR='N', UPLO='L'): n(n+1)/2 doubles, the shape of ``dtrttf``'s
    output.

    Seen as a Fortran-order array with ``k = ceil(n/2)`` columns and
    ``n + 1 - n % 2`` rows, column ``c`` holds the gram's lower column
    ``K[c:, c]`` at its bottom and, above it, row ``c - n % 2`` of the
    lower triangle of the trailing square ``K[k:, k:]``. The gram is
    written in blocks of rows, so no n x n temporary exists. A Gaussian
    block comes from ``cdist``, whose entries are those of the whole
    matrix, bit for bit; a linear block product may differ from
    ``x @ x.T`` in the last bits.
    """
    x = _finite(x)
    sigma = None if spec.kind == "linear" else resolve_sigma(x, spec)
    n = x.shape[0]
    k, even = (n + 1) // 2, 1 - n % 2
    packed = np.empty(n * (n + 1) // 2)
    columns = packed.reshape(k, n + even)  # row c is the RFP array's column c
    step = block_rows(n)
    # the whole square K[k:, k:] first: its upper half lands where the
    # columns K[c:, c] go next, and those overwrite it
    for a in range(k, n, step):
        b = min(a + step, n)
        rows = slice(a - k + 1 - even, b - k + 1 - even)
        columns[rows, : n - k] = _pairwise(x[a:b], x[k:], spec.kind)
    for a in range(0, k, step):
        b = min(a + step, k)
        block = _pairwise(x[a:b], x[a:], spec.kind)  # K[a:b, a:] = K[a:, a:b].T
        target = columns[a:b, a + even :]
        target[:, b - a :] = block[:, b - a :]
        np.copyto(target[:, : b - a], block[:, : b - a], where=np.tri(b - a, dtype=bool).T)
    return packed if sigma is None else _gaussian(packed, sigma)


def _packed_diagonal(n: int) -> np.ndarray:
    """Indices of the diagonal of an n x n matrix in its RFP array: those of
    ``K[c, c]``, then those of the trailing square's diagonal."""
    k, rows = (n + 1) // 2, n + 1 - n % 2
    lead, trail = np.arange(k), np.arange(n - k)
    return np.concatenate([lead * (rows + 1) + 1 - n % 2, trail * (rows + 1) + n % 2 * rows])


def holds_inverse(n: int, labels: int) -> bool:
    """Whether a system of ``n`` rows, solved onto ``labels`` columns, keeps ``B^{-1}``."""
    # up to 1500 rows the inversion costs about n / l solves' savings, more
    # above (CHANGES.md has the measured grid), so it pays within 20 solves here
    return n <= min(20 * labels, 1500)


def ridge_system(x: np.ndarray, spec: KernelSpec, labels: int = 0) -> RidgeSystem:
    """Factor ``B = K/(2*ridge) + I/2`` of ``x``'s gram under ``spec`` once
    for every solve on it onto ``labels`` columns, in the buffer of
    :func:`packed_gram`, then invert it if :func:`holds_inverse`."""
    return _factor(packed_gram(x, spec), spec.ridge, labels)


def _factor(packed: np.ndarray, ridge: float, labels: int = 0) -> RidgeSystem:
    """Turn ``packed``, a packed gram, into ``B`` and then into its factor
    or, for ``labels`` columns where :func:`holds_inverse`, its inverse.

    Raises a ``RuntimeError`` that names the failing leading minor when the
    (theoretically SPD) system turns out not positive definite, which
    indicates a broken kernel matrix.
    """
    n = math.isqrt(2 * packed.shape[0])
    packed /= 2.0 * ridge
    packed[_packed_diagonal(n)] += 0.5
    factor, info = dpftrf(n, packed, uplo="L", overwrite_a=1)
    if info:
        exc = LinAlgError(f"{info}-th leading minor of the array is not positive definite")
        raise RuntimeError(
            f"singular {n}x{n} ridge system at ridge {ridge}: {exc}; "
            "check the kernel matrix for non-PSD structure"
        ) from exc
    s_row = _solve(factor, np.ones(n))
    if not holds_inverse(n, labels):
        return RidgeSystem(ridge=ridge, factor=factor, s_row=s_row)
    # B^{-1}'s lower triangle over an upper one f2py zeroed, mirrored by blocks
    inverse = dtfttr(n, dpftri(n, factor, uplo="L", overwrite_a=1)[0], uplo="L")[0]
    step = block_rows(n)
    for a in range(0, n, step):
        inverse[a : a + step, a:] += np.tril(inverse[a:, a : a + step], -1).T
    return RidgeSystem(ridge=ridge, factor=None, s_row=s_row, inverse=inverse)


def _solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``B^{-1} rhs`` from the RFP factor of ``B``."""
    return dpftrs(rhs.shape[0], factor, rhs, uplo="L")[0]


def kkt_solve(
    system: RidgeSystem | np.ndarray, target: np.ndarray, ridge: float | None = None
) -> KernelSolve:
    """Closed-form dual ridge solve onto ``target``.

    ``system`` is a prebuilt :class:`RidgeSystem`, or a kernel matrix whose
    lower triangle is packed and factored with ``ridge`` for this one solve.
    """
    if not isinstance(system, RidgeSystem):
        if ridge is None:
            raise ValueError("a kernel matrix needs its ridge")
        if not (math.isfinite(ridge) and ridge > 0):
            raise ValueError(f"ridge must be positive and finite, got {ridge}")
        gram = np.asarray(system, float)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise ValueError("kernel matrix must be square")
        if not np.isfinite(gram).all():
            raise ValueError("kernel matrix contains NaN or Inf")
        system = _factor(dtrttf(gram, uplo="L")[0], ridge)
    elif ridge is not None:
        raise ValueError("a prebuilt ridge system carries its own ridge")
    target = np.asarray(target, float)
    n = system.s_row.shape[0]
    if target.shape[0] != n:
        raise ValueError(
            f"target has {target.shape[0]} rows, kernel matrix is {n}x{n}"
        )
    s_row = system.s_row
    bias = (s_row @ target) / s_row.sum()
    rhs = target - bias
    dual = _solve(system.factor, rhs) if system.inverse is None else (rhs.T @ system.inverse).T
    return KernelSolve(
        dual_coeffs=dual, bias=bias, ridge=system.ridge, fitted=target - 0.5 * dual
    )


def predict(model: KernelSolve, k_cross: np.ndarray) -> np.ndarray:
    """Modeling output ``k_cross A / (2*ridge) + bias`` for query rows."""
    k_cross = np.atleast_2d(np.asarray(k_cross, float))
    if k_cross.shape[1] != model.dual_coeffs.shape[0]:
        raise ValueError(
            f"k_cross has {k_cross.shape[1]} columns, expected "
            f"{model.dual_coeffs.shape[0]} (one per training sample)"
        )
    return k_cross @ model.dual_coeffs / (2.0 * model.ridge) + model.bias


def predict_query(
    model: KernelSolve, x_query: np.ndarray, x_train: np.ndarray, spec: KernelSpec
) -> np.ndarray:
    """``predict(model, cross_matrix(x_query, x_train, spec))`` up to the last
    bits, with one block of :func:`block_rows` query rows of the cross
    matrix alive at a time."""
    x_query, x_train = np.asarray(x_query, float), np.asarray(x_train, float)
    if spec.kind == "gaussian" and spec.sigma is None:
        spec = replace(spec, sigma=resolve_sigma(x_train, spec))
    out = np.empty((x_query.shape[0], model.dual_coeffs.shape[1]))
    step = block_rows(x_train.shape[0])
    for start in range(0, x_query.shape[0], step):
        rows = slice(start, start + step)
        out[rows] = predict(model, cross_matrix(x_query[rows], x_train, spec))
    return out


def training_output(model: KernelSolve) -> np.ndarray:
    """Modeling output on the training rows themselves, ``C - A/2``."""
    return model.fitted
