"""Dataset ingestion, splitting, and synthetic partial-label generation.

Synthetic data follows the uniform flip protocol: Gaussian clusters per
class, the true label always a candidate, and every other label flipped
into the candidate set independently with probability ``flip_q``.

On disk a dataset is three headerless CSV files: features (floats),
candidates (0/1), and optionally ground truth (one integer per row).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import PartialLabelDataset

FLOAT_FMT = "%.17g"


@dataclass(frozen=True)
class SyntheticSpec:
    n: int
    d: int
    l: int
    flip_q: float
    cluster_spread: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be positive")
        if self.l < 2:
            raise ValueError("need at least two classes")
        if not 0.0 <= self.flip_q < 1.0:
            raise ValueError("flip_q must be in [0, 1)")
        if not (math.isfinite(self.cluster_spread) and self.cluster_spread > 0):
            raise ValueError("cluster_spread must be positive and finite")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def _class_means(l: int, d: int, spread: float) -> np.ndarray:
    # deterministic grid: class index written in base m over the d axes,
    # scaled so distinct classes sit at least 4*spread apart
    m = max(2, math.ceil(l ** (1.0 / d)))
    means = np.zeros((l, d))
    for c in range(l):
        rest = c
        for axis in range(d):
            means[c, axis] = rest % m
            rest //= m
    return means * 4.0 * spread


def generate_synthetic(spec: SyntheticSpec) -> PartialLabelDataset:
    """Gaussian-blob features with uniformly flipped candidate sets."""
    rng = np.random.default_rng(spec.seed)
    truth = rng.integers(0, spec.l, size=spec.n)
    means = _class_means(spec.l, spec.d, spec.cluster_spread)
    features = means[truth] + rng.normal(0.0, spec.cluster_spread, size=(spec.n, spec.d))
    flips = rng.random((spec.n, spec.l)) < spec.flip_q
    candidates = flips.astype(float)
    candidates[np.arange(spec.n), truth] = 1.0
    return PartialLabelDataset(
        features=features, candidates=candidates, ground_truth=truth
    )


def split(
    dataset: PartialLabelDataset, train_frac: float, seed: int
) -> tuple[PartialLabelDataset, PartialLabelDataset]:
    """Disjoint, exhaustive random split; the train side gets floor(n * frac)."""
    if not 0.0 < train_frac < 1.0:
        raise ValueError("train_frac must be strictly between 0 and 1")
    n = dataset.n_samples
    n_train = int(math.floor(n * train_frac))
    if n_train < 1 or n - n_train < 1:
        raise ValueError(f"degenerate split: {n_train}/{n - n_train} of {n} samples")
    perm = np.random.default_rng(seed).permutation(n)
    idx_train, idx_test = np.sort(perm[:n_train]), np.sort(perm[n_train:])

    def take(idx):
        truth = dataset.ground_truth
        return PartialLabelDataset(
            features=dataset.features[idx],
            candidates=dataset.candidates[idx],
            ground_truth=None if truth is None else truth[idx],
        )

    return take(idx_train), take(idx_test)


def save_dataset(dataset: PartialLabelDataset, directory: str | Path) -> dict[str, Path]:
    """Write features.csv / candidates.csv / truth.csv into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "features": directory / "features.csv",
        "candidates": directory / "candidates.csv",
    }
    np.savetxt(paths["features"], dataset.features, fmt=FLOAT_FMT, delimiter=",")
    np.savetxt(paths["candidates"], dataset.candidates.astype(int), fmt="%d", delimiter=",")
    if dataset.ground_truth is not None:
        paths["truth"] = directory / "truth.csv"
        np.savetxt(paths["truth"], dataset.ground_truth, fmt="%d", delimiter=",")
    return paths


def _load_csv(path: str | Path, what: str) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"{what} file not found: {path}")
    with open(path, "rb") as fh:
        if not any(line.strip() for line in fh):
            raise ValueError(f"empty {what} CSV {path}: no rows")
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"malformed {what} CSV {path}: {exc}") from exc


def load_dataset(
    features_path: str | Path,
    candidates_path: str | Path,
    truth_path: str | Path | None = None,
) -> PartialLabelDataset:
    """Load and validate a dataset from its CSV files.

    Invariant violations surface with the offending row index (from the
    dataset constructor), so bad files are diagnosable.
    """
    features = _load_csv(features_path, "features")
    candidates = _load_csv(candidates_path, "candidates")
    truth = None
    if truth_path is not None:
        truth = _load_csv(truth_path, "truth")
        if truth.shape[1] != 1:
            raise ValueError(f"truth CSV {truth_path} has {truth.shape[1]} columns, not 1")
        truth = truth[:, 0]
    return PartialLabelDataset(
        features=features, candidates=candidates, ground_truth=truth
    )
