"""The benchmark's workloads, one timed pass over each, and the output checks.

Every workload is a closed loop: one caller runs its fits one after the
other, each waiting for the previous. Inputs are synthetic, drawn by
``generate_synthetic`` with a 50/50 split and the default ``EngineConfig``
apart from the base; they derive only from the benchmark seed.

The caller must put the package under test first on ``sys.path`` before
importing this module.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from plcp import cli
from plcp.base import BaseClassifierKind
from plcp.data import SyntheticSpec
from plcp.engine import EngineConfig

QUALITY = ("test_accuracy", "transductive_accuracy", "correction_ratio", "miscorrection_ratio")
# same tolerance as the partner's own checks on its complement confidences
C_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``sweep`` holds the ``[sweep]`` axes of a ``plcp sweep`` run through
    ``cli.main``; without it the workload is one library-driven fit per
    seed, run as ``cli.run_seed`` runs it. ``seeds`` consecutive run seeds
    start at the benchmark seed.
    """

    name: str
    why: str
    base: str
    n: int
    d: int
    l: int
    flip_q: float
    seeds: int = 1
    sweep: tuple[tuple[str, str], ...] = ()

    @property
    def fits(self) -> int:
        cells = math.prod(len(values.split(",")) for _, values in self.sweep)
        return cells * self.seeds

    def params(self) -> dict:
        return {
            "base": self.base, "n": self.n, "n_train": self.n // 2, "d": self.d, "l": self.l,
            "flip_q": self.flip_q, "seeds": self.seeds, "sweep": dict(self.sweep),
            "fits_per_pass": self.fits,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "knn-n4000",
            "pl-knn, n=4000 (2000 train), d=8, l=5, flip_q=0.5, 1 seed: time splits over "
            "ridge solve, partner objective and kNN search; for factor-once and a kNN table",
            base="pl-knn", n=4000, d=8, l=5, flip_q=0.5,
        ),
        Workload(
            "kls-n4000",
            "kernel-ls, same data as knn-n4000: no kNN work, ridge solve from base and "
            "partner; a kNN change must not move it, a shared factor should move it most",
            base="kernel-ls", n=4000, d=8, l=5, flip_q=0.5,
        ),
        Workload(
            "sweep-l30",
            "plcp sweep via cli.main, n=600, d=16, l=30, flip_q=0.3, 2 seeds x gamma{0,.5,2,8}"
            " x alpha{.3,.5,.7} = 24 fits: row QP and objective dominate; for exact QP, cache",
            base="pl-knn", n=600, d=16, l=30, flip_q=0.3, seeds=2,
            sweep=(("gamma", "0,0.5,2,8"), ("alpha", "0.3,0.5,0.7")),
        ),
    )
}


@dataclass
class FitRecord:
    """One ``run_plcp`` call: its wall time and the arrays the checks read."""

    seconds: float
    candidates: np.ndarray
    n_test: int
    train_predictions: np.ndarray
    test_predictions: np.ndarray
    c: np.ndarray

    def digests(self) -> tuple[str, str]:
        return _digest(self.train_predictions), _digest(self.test_predictions)

    def problems(self) -> list[str]:
        y = self.candidates
        n, l = y.shape
        found = []
        train = self.train_predictions
        if train.shape != (n,) or not ((train >= 0) & (train < l)).all():
            found.append("train predictions malformed")
        elif not (y[np.arange(n), train] == 1).all():
            found.append("train prediction outside its candidate set")
        test = self.test_predictions
        if test.shape != (self.n_test,) or not ((test >= 0) & (test < l)).all():
            found.append("test predictions malformed")
        if ((self.c < 1.0 - y - C_TOL) | (self.c > 1.0 + C_TOL)).any():
            found.append("partner c outside [yhat, 1]")
        if np.abs(self.c.sum(axis=1) - (l - 1)).max() > C_TOL:
            found.append("partner c rows do not sum to l-1")
        return found


def _digest(labels: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(labels, dtype=np.int64).tobytes()).hexdigest()


class FitProbe:
    """Times every ``run_plcp`` call the CLI layer makes and keeps its outputs.

    It wraps ``cli.run_plcp``, the attribute ``cli.run_seed`` looks up, so it
    sees the fits of the library-driven workloads and of the sweep alike.
    """

    def __init__(self):
        self.fits: list[FitRecord] = []

    def __enter__(self) -> "FitProbe":
        original = self._original = cli.run_plcp

        def probed(dataset, test_features, config):
            start = time.perf_counter()
            report = original(dataset, test_features, config)
            seconds = time.perf_counter() - start
            self.fits.append(FitRecord(
                seconds, dataset.candidates, len(test_features),
                report.train_predictions, report.test_predictions, report.final_partner.c,
            ))
            return report

        cli.run_plcp = probed
        return self

    def __exit__(self, *exc_info) -> None:
        cli.run_plcp = self._original


@dataclass
class Pass:
    """One execution of a workload's timed section."""

    wall_s: float
    fits: list[FitRecord]
    rows: list[dict]
    errors: list[str] = field(default_factory=list)

    def fit_problems(self) -> list[list[str]]:
        """Failed checks of each recorded fit, read with its result row."""
        return [
            fit.problems()
            + [f"{key} is NaN" for key in QUALITY if not math.isfinite(float(row[key]))]
            for fit, row in zip(self.fits, self.rows)
        ]

    def quality(self) -> dict[str, float]:
        return {key: float(np.mean([float(r[key]) for r in self.rows])) for key in QUALITY}


def _experiment(workload: Workload, seed: int, outputs: Path):
    return cli.ExperimentConfig(
        engine=EngineConfig(base=BaseClassifierKind(kind=workload.base)),
        seeds=tuple(range(seed, seed + workload.seeds)),
        train_frac=0.5,
        outputs=outputs,
        emit_trajectories=False,
        synthetic=SyntheticSpec(n=workload.n, d=workload.d, l=workload.l, flip_q=workload.flip_q),
    )


def _sweep_ini(workload: Workload, seed: int, outputs: Path) -> str:
    seeds = ",".join(str(s) for s in range(seed, seed + workload.seeds))
    lines = [
        "[dataset]", "source = synthetic", f"n = {workload.n}", f"d = {workload.d}",
        f"l = {workload.l}", f"flip_q = {workload.flip_q}",
        "[base]", f"kind = {workload.base}",
        "[run]", f"seeds = {seeds}", "train_frac = 0.5", f"outputs = {outputs}",
        "[sweep]", *(f"{axis} = {values}" for axis, values in workload.sweep),
    ]
    return "\n".join(lines) + "\n"


def run_pass(workload: Workload, seed: int, workdir: Path, tracer=None) -> Pass:
    """Run the workload's timed section once; ``tracer`` is active only inside it.

    ``workdir`` must be an empty directory; the sweep writes its outputs there.
    """
    errors: list[str] = []
    rows: list[dict] = []
    code = None
    if workload.sweep:
        outputs = workdir / "sweep"
        config = workdir / "sweep.ini"
        config.write_text(_sweep_ini(workload, seed, outputs))
    else:
        experiment = _experiment(workload, seed, workdir)
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer)
        probe = stack.enter_context(FitProbe())
        start = time.perf_counter()
        try:
            if workload.sweep:
                code = cli.main(["sweep", str(config)])
            else:
                for run_seed in experiment.seeds:
                    rows += cli.run_seed(experiment, run_seed)[0]
        except Exception as exc:  # a raising fit is a failed fit, not a crashed benchmark
            errors.append(f"{type(exc).__name__}: {exc}")
        wall_s = time.perf_counter() - start
    if workload.sweep:
        if code is not None and code != 0:
            errors.append(f"plcp sweep exited with code {code}")
        failures = outputs / "failures.csv"
        if failures.exists():
            with open(failures, newline="") as fh:
                errors += [f"sweep failure: {row}" for row in csv.DictReader(fh)]
        if (outputs / "sweep.csv").exists():
            rows = cli.read_results_csv(outputs / "sweep.csv")
    plcp_rows = [row for row in rows if row["method"].endswith("-plcp")]
    return Pass(wall_s, probe.fits, plcp_rows, errors)
