"""Label digests of fixed runs, kept in ``golden_labels.json`` beside this file.

Each run splits its seed's dataset as ``plcp run`` does, then records the
sha256 of the coupled run's train and test labels and of the base-alone
run's train and test labels, the coupled run's round count, and its
smallest decision margin: over the test rows, the least gap between the two
lowest partner outputs. A margin far above rounding says a label does not
hang on the last bits of a float. ``tests/test_golden_labels.py`` recomputes
every run and compares; after a change that is meant to move labels,
regenerate the file with::

    PYTHONPATH=src python tests/golden_labels.py
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


def runs() -> dict[str, tuple[cli.ExperimentConfig, int]]:
    """Name -> (experiment, seed): the acceptance experiments with both
    bases, a run per base at the paper's 171 labels, and a linear-kernel run."""
    out = {}
    for base in BASES:
        engine = EngineConfig(base=BaseClassifierKind(kind=base))
        for flip_q in (0.3, 0.5):
            exp = _experiment(SyntheticSpec(n=500, d=8, l=5, flip_q=flip_q), engine)
            for seed in range(1, 11):
                out[f"{base} n=500 l=5 flip_q={flip_q} seed={seed}"] = exp, seed
        wide = SyntheticSpec(n=1200, d=8, l=171, flip_q=1.1 / 170)
        out[f"{base} n=1200 l=171 seed=3"] = _experiment(wide, engine), 3
    linear = kernel.KernelSpec(kind="linear")
    engine = EngineConfig(
        base=BaseClassifierKind(kind="kernel-ls", kernel=linear),
        partner=PartnerConfig(kernel=linear),
    )
    spec = SyntheticSpec(n=500, d=8, l=5, flip_q=0.3)
    out["kernel-ls linear n=500 l=5 flip_q=0.3 seed=1"] = _experiment(spec, engine), 1
    return out


def _digest(labels: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(labels, "<i8").tobytes()).hexdigest()


def record(exp: cli.ExperimentConfig, seed: int) -> dict:
    """One run's digests, round count and smallest test decision margin."""
    train, test = cli._split(exp, seed)
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


def main() -> None:
    golden = {name: record(exp, seed) for name, (exp, seed) in runs().items()}
    PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} runs to {PATH}")


if __name__ == "__main__":
    main()
