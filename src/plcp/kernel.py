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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.spatial.distance import cdist, pdist, squareform


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
        if self.sigma is not None and self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.ridge <= 0:
            raise ValueError("ridge must be positive")


@dataclass(frozen=True)
class RidgeSystem:
    """The factored system ``B = K/(2*ridge) + I/2`` of one (gram, ridge).

    Built by :func:`ridge_system`; every :func:`kkt_solve` on it reuses the
    factor and ``s_row``. The gram itself is not kept.
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
    """Train-by-train kernel matrix."""
    x = np.asarray(x, float)
    if not np.isfinite(x).all():
        raise ValueError("features contain NaN or Inf")
    if spec.kind == "linear":
        return x @ x.T
    sigma = resolve_sigma(x, spec)
    return _gaussian(squareform(pdist(x, "sqeuclidean")), sigma)


def cross_matrix(x_query: np.ndarray, x_train: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Query-by-train kernel evaluations, bandwidth taken from the train side."""
    x_query, x_train = np.asarray(x_query, float), np.asarray(x_train, float)
    if spec.kind == "linear":
        return x_query @ x_train.T
    sigma = resolve_sigma(x_train, spec)
    return _gaussian(cdist(x_query, x_train, "sqeuclidean"), sigma)


def ridge_system(k_gram: np.ndarray, ridge: float) -> RidgeSystem:
    """Factor ``B = K/(2*ridge) + I/2`` once for every solve on this gram.

    Raises a descriptive error when the (theoretically SPD) system turns
    out numerically singular, which indicates a broken kernel matrix.
    """
    k_gram = np.asarray(k_gram, float)
    n = k_gram.shape[0]
    if k_gram.shape != (n, n):
        raise ValueError("kernel matrix must be square")
    if ridge <= 0:
        raise ValueError("ridge must be positive")
    if not np.isfinite(k_gram).all():
        raise ValueError("kernel matrix contains NaN or Inf")

    # Fortran order lets the factorization overwrite B instead of copying it
    b_sys = np.divide(k_gram, 2.0 * ridge, order="F")
    b_sys[np.diag_indices(n)] += 0.5
    try:
        factor = cho_factor(b_sys, lower=True, overwrite_a=True, check_finite=False)
    except LinAlgError as exc:
        cond = np.linalg.cond(k_gram / (2.0 * ridge) + 0.5 * np.eye(n))
        raise RuntimeError(
            f"singular ridge system (condition number {cond:.3e}); "
            "check the kernel matrix for NaN or non-PSD structure"
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


def training_output(model: KernelSolve) -> np.ndarray:
    """Modeling output on the training rows themselves, ``C - A/2``."""
    return model.fitted
