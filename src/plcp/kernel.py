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

The gram is the one n x n array a run needs: :func:`gram_matrix` builds it
in a single Fortran-order buffer, and :func:`factor_in_place` turns that
buffer into ``B`` and then into its Cholesky factor without a copy. Query
rows are predicted one block at a time (:func:`predict_query`), so no
query-by-train kernel matrix is alive beside the factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
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
    """The factored system ``B = K/(2*ridge) + I/2`` of one (gram, ridge).

    Built by :func:`factor_in_place`, whose factor lives in the gram's own
    buffer, or by :func:`ridge_system` from a copy of the gram. Every
    :func:`kkt_solve` on it reuses the factor and ``s_row``.
    """

    ridge: float
    factor: tuple  # lower Cholesky factor of B, as cho_factor returns it
    s_row: np.ndarray  # (n,) 1^T B^{-1}


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


def gram_matrix(x: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Train-by-train kernel matrix, in Fortran order.

    The matrix is built in one buffer, with no second n x n temporary, and
    that buffer is the one :func:`factor_in_place` overwrites with the
    factor. It is symmetric, so writing its C-order transpose fills it.
    """
    x = np.asarray(x, float)
    if not np.isfinite(x).all():
        raise ValueError("features contain NaN or Inf")
    if spec.kind == "linear":
        return (x @ x.T).T
    sigma = resolve_sigma(x, spec)
    gram = np.empty((x.shape[0], x.shape[0]), order="F")
    cdist(x, x, "sqeuclidean", out=gram.T)
    return _gaussian(gram, sigma)


def cross_matrix(x_query: np.ndarray, x_train: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Query-by-train kernel evaluations, bandwidth taken from the train side."""
    x_query, x_train = np.asarray(x_query, float), np.asarray(x_train, float)
    if spec.kind == "linear":
        return x_query @ x_train.T
    sigma = resolve_sigma(x_train, spec)
    return _gaussian(cdist(x_query, x_train, "sqeuclidean"), sigma)


def ridge_system(k_gram: np.ndarray, ridge: float) -> RidgeSystem:
    """Factor ``B = K/(2*ridge) + I/2`` once for every solve on this gram.

    The factor is built in a copy, so ``k_gram`` is left as it is; a caller
    that owns a gram it no longer needs hands it to :func:`factor_in_place`.
    """
    k_gram = np.asarray(k_gram, float)
    if not np.isfinite(k_gram).all():
        raise ValueError("kernel matrix contains NaN or Inf")
    return factor_in_place(np.array(k_gram, order="F"), ridge)


def factor_in_place(gram: np.ndarray, ridge: float) -> RidgeSystem:
    """:func:`ridge_system` of ``gram``, factored in ``gram``'s own buffer.

    ``gram`` must be a writeable Fortran-order float64 array, as
    :func:`gram_matrix` returns it; it becomes ``B`` and then the factor,
    so the caller must not read it afterwards. Raises a ``RuntimeError``
    that names the failing leading minor when the (theoretically SPD)
    system turns out not positive definite, which indicates a broken
    kernel matrix.
    """
    n = gram.shape[0]
    if gram.shape != (n, n) or gram.dtype != np.float64:
        raise ValueError("kernel matrix must be a square float64 array")
    if not (gram.flags.f_contiguous and gram.flags.writeable):
        raise ValueError("kernel matrix must be a writeable Fortran-order buffer")
    if not (math.isfinite(ridge) and ridge > 0):
        raise ValueError(f"ridge must be positive and finite, got {ridge}")
    gram /= 2.0 * ridge
    gram[np.diag_indices(n)] += 0.5
    try:
        factor = cho_factor(gram, lower=True, overwrite_a=True, check_finite=False)
    except LinAlgError as exc:
        raise RuntimeError(
            f"singular {n}x{n} ridge system at ridge {ridge}: {exc}; "
            "check the kernel matrix for non-PSD structure"
        ) from exc
    s_row = cho_solve(factor, np.ones(n), check_finite=False)
    return RidgeSystem(ridge=ridge, factor=factor, s_row=s_row)


def kkt_solve(
    system: RidgeSystem | np.ndarray, target: np.ndarray, ridge: float | None = None
) -> KernelSolve:
    """Closed-form dual ridge solve onto ``target``.

    ``system`` is a prebuilt :class:`RidgeSystem`, or a kernel matrix that
    is factored with ``ridge`` for this one solve.
    """
    if not isinstance(system, RidgeSystem):
        if ridge is None:
            raise ValueError("a kernel matrix needs its ridge")
        system = ridge_system(system, ridge)
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
    dual = cho_solve(system.factor, target - bias, check_finite=False)
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


# Multiply-adds below which OpenBLAS may switch to a small-matrix kernel
# whose sums differ in the last bits from those of its blocked kernel.
_MIN_BLOCK_PRODUCT = 1 << 21


def query_blocks(n_query: int, n_train: int, n_outputs: int) -> list[slice]:
    """Even blocks of query rows for the product of a cross matrix and
    ``n_outputs`` dual columns, each large enough to keep its bits.

    Every block of two or more holds at least ``_MIN_BLOCK_PRODUCT``
    multiply-adds, so it goes through the same BLAS kernel as the whole
    product and gives bit-identical rows. A single output column is a
    matrix-vector product, whose sums depend on the row count, so it stays
    in one block.
    """
    count = 1
    if n_outputs >= 2 and n_train > 0:
        rows = -(-_MIN_BLOCK_PRODUCT // (n_train * n_outputs))
        count = max(1, n_query // rows)
    size, extra = divmod(n_query, count)
    bounds = [i * size + min(i, extra) for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def predict_query(
    model: KernelSolve, x_query: np.ndarray, x_train: np.ndarray, spec: KernelSpec
) -> np.ndarray:
    """``predict(model, cross_matrix(x_query, x_train, spec))``, bit for bit,
    with only one block of query rows of the cross matrix alive at a time."""
    x_query, x_train = np.asarray(x_query, float), np.asarray(x_train, float)
    if spec.kind == "gaussian" and spec.sigma is None:
        spec = replace(spec, sigma=resolve_sigma(x_train, spec))
    n_outputs = model.dual_coeffs.shape[1]
    out = np.empty((x_query.shape[0], n_outputs))
    for rows in query_blocks(x_query.shape[0], x_train.shape[0], n_outputs):
        out[rows] = predict(model, cross_matrix(x_query[rows], x_train, spec))
    return out


def training_output(model: KernelSolve) -> np.ndarray:
    """Modeling output on the training rows themselves, ``C - A/2``."""
    return model.fitted
