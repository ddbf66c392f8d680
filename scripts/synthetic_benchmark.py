#!/usr/bin/env python3
"""Paired base vs base-plcp benchmark on synthetic blob datasets.

Prints a small table of mean +/- std accuracy per flip rate and method,
optionally writing the per-seed rows to CSV.

Usage:
    python scripts/synthetic_benchmark.py --flip-rates 0.3 0.5 --seeds 10
"""

import argparse
from pathlib import Path

from plcp.cli import RESULT_FIELDS, ExperimentConfig, run_seed, summarize, write_csv
from plcp.data import SyntheticSpec
from plcp.engine import EngineConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--dims", type=int, default=8)
    parser.add_argument("--labels", type=int, default=5)
    parser.add_argument("--flip-rates", type=float, nargs="+", default=[0.3, 0.5])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--base", choices=["pl-knn", "kernel-ls"], default="pl-knn")
    parser.add_argument("--csv", type=Path, default=None, help="optional per-seed CSV")
    args = parser.parse_args()

    engine = EngineConfig()
    if args.base != engine.base.kind:
        from dataclasses import replace

        engine = replace(engine, base=replace(engine.base, kind=args.base))

    all_rows = []
    for flip_q in args.flip_rates:
        exp = ExperimentConfig(
            engine=engine,
            seeds=tuple(range(1, args.seeds + 1)),
            train_frac=0.5,
            outputs=Path("."),
            emit_trajectories=False,
            synthetic=SyntheticSpec(
                n=args.n, d=args.dims, l=args.labels, flip_q=flip_q
            ),
        )
        rows = []
        for seed in exp.seeds:
            rows.extend(run_seed(exp, seed)[0])
        all_rows.extend({"flip_q": flip_q, **r} for r in rows)

        print(f"\nflip_q = {flip_q}  ({args.seeds} seeds, 50/50 split)")
        for entry in summarize(rows):
            method = entry["method"]
            for key in ("transductive_accuracy", "test_accuracy", "correction_ratio"):
                mean, std = entry[f"{key}_mean"], entry[f"{key}_std"]
                print(f"  {method:<14} {key:<24} {mean:.4f} +/- {std:.4f}")

    if args.csv is not None:
        write_csv(args.csv, ("flip_q",) + RESULT_FIELDS, all_rows)
        print(f"\nwrote {args.csv}")


if __name__ == "__main__":
    main()
