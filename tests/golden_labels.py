"""Label digests of fixed runs, kept in ``golden_labels.json`` beside this file.

Each run splits its seed's dataset as ``plcp run`` does (the runs of a
group share one split, as a sweep's cells do), then records the
sha256 of the coupled run's train and test labels and of the base-alone
run's train and test labels, the coupled run's round count, and its
smallest decision margin: over the test rows, the least gap between the two
lowest partner outputs. A margin far above rounding says a label does not
hang on the last bits of a float. ``tests/test_golden_labels.py`` recomputes
every run and compares; after a change that is meant to move labels,
regenerate the file with::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/golden_labels.py

The committed margins were written at one BLAS thread; at another thread
count the l = 171 margins move in their last bits, so regenerating there
rewrites entries whose labels did not move.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from plcp import cli, kernel
from plcp.base import BaseClassifierKind
from plcp.data import SyntheticSpec
from plcp.engine import EngineConfig, run_base_alone, run_plcp
from plcp.partner import PartnerConfig

PATH = Path(__file__).with_name("golden_labels.json")
BASES = ("pl-knn", "kernel-ls")


def _experiment(spec: SyntheticSpec, engine: EngineConfig) -> cli.ExperimentConfig:
    return replace(cli.EXPERIMENT_DEFAULTS, engine=engine, synthetic=spec)


def _sweep(name: str, exp: cli.ExperimentConfig, seed: int, axes: dict) -> dict:
    """The cells of ``plcp sweep`` of ``exp`` over ``axes``, named by their values."""
    return {
        " ".join([name, *(f"{axis}={value}" for axis, value in cell_id.items())]): (cell, seed)
        for cell_id, cell in cli.sweep_cells(exp, axes)
    }


def runs() -> list[dict[str, tuple[cli.ExperimentConfig, int]]]:
    """Groups of name -> (experiment, seed). The runs of a group share one
    train set, as a sweep's cells of one split do, so the memo's gamma-0
    partner fit and its drop of unused ridge systems run as in a sweep.

    Alone: the acceptance experiments with both bases, a run per base at the
    paper's 171 labels, a linear-kernel run and a run per base with the
    ``aggressive``, ``binarize`` and ``predict_from_base`` switches on. In
    groups: the sweep-l30 grid of ``perfbench`` at one seed, and a
    ``lambda`` sweep per base.
    """
    alone = {}
    small = SyntheticSpec(n=500, d=8, l=5, flip_q=0.3)
    for base in BASES:
        engine = EngineConfig(base=BaseClassifierKind(kind=base))
        for flip_q in (0.3, 0.5):
            exp = _experiment(replace(small, flip_q=flip_q), engine)
            for seed in range(1, 11):
                alone[f"{base} n=500 l=5 flip_q={flip_q} seed={seed}"] = exp, seed
        wide = SyntheticSpec(n=1200, d=8, l=171, flip_q=1.1 / 170)
        alone[f"{base} n=1200 l=171 seed=3"] = _experiment(wide, engine), 3
    linear = kernel.KernelSpec(kind="linear")
    engine = EngineConfig(
        base=BaseClassifierKind(kind="kernel-ls", kernel=linear),
        partner=PartnerConfig(kernel=linear),
    )
    alone["kernel-ls linear n=500 l=5 flip_q=0.3 seed=1"] = _experiment(small, engine), 1
    for base in BASES:
        engine = EngineConfig(
            base=BaseClassifierKind(kind=base, binarize=True),
            partner=PartnerConfig(aggressive=True),
            predict_from_base=True,
        )
        name = f"{base} aggressive binarize predict_from_base n=500 l=5 flip_q=0.3 seed=1"
        alone[name] = _experiment(small, engine), 1
    groups = [{name: run} for name, run in alone.items()]
    grid = _experiment(SyntheticSpec(n=600, d=16, l=30, flip_q=0.3), EngineConfig())
    axes = {"gamma": (0.0, 0.5, 2.0, 8.0), "alpha": (0.3, 0.5, 0.7)}
    groups.append(_sweep("pl-knn n=600 d=16 l=30 flip_q=0.3 seed=1", grid, 1, axes))
    for base in BASES:
        exp = _experiment(small, EngineConfig(base=BaseClassifierKind(kind=base)))
        name = f"{base} n=500 l=5 flip_q=0.3 seed=1"
        groups.append(_sweep(name, exp, 1, {"lambda": (0.05, 0.5)}))
    return groups


def _digest(labels: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(labels, "<i8").tobytes()).hexdigest()


def record(exp: cli.ExperimentConfig, train, test) -> dict:
    """One run's digests, round count and smallest test decision margin."""
    base_train, base_test = run_base_alone(train, test.features, exp.engine.base)
    report = run_plcp(train, test.features, exp.engine)
    output = kernel.predict_query(
        report.final_partner.solve, test.features, train.features, exp.engine.partner.kernel
    )
    lowest = np.partition(output, 1, axis=1)
    return {
        "train": _digest(report.train_predictions),
        "test": _digest(report.test_predictions),
        "base_alone": _digest(np.concatenate([base_train, base_test])),
        "iterations_run": report.iterations_run,
        "min_margin": float((lowest[:, 1] - lowest[:, 0]).min()),
    }


def records(group: dict[str, tuple[cli.ExperimentConfig, int]]) -> dict[str, dict]:
    """The record of each run of a group, in order, on the group's one split."""
    (exp, seed), *_ = group.values()
    train, test = cli._split(exp, seed)
    return {name: record(exp, train, test) for name, (exp, _) in group.items()}


def main() -> None:
    golden = {name: rec for group in runs() for name, rec in records(group).items()}
    PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} runs to {PATH}")


if __name__ == "__main__":
    main()
