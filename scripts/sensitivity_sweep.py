#!/usr/bin/env python3
"""Hyper-parameter sensitivity grid on a synthetic dataset.

Writes the sweep config into a temporary directory and delegates to the
CLI, producing a long-format sweep.csv suitable for plotting accuracy
against each axis.

Usage:
    python scripts/sensitivity_sweep.py --axis gamma --values 0 0.5 2 8 32
    python scripts/sensitivity_sweep.py --axis k --values -8 -4 -2 -1 -0.5 -0.1
"""

import argparse
import tempfile
from pathlib import Path

from plcp.cli import SWEEP_AXES
from plcp.cli import main as cli_main

CONFIG_TEMPLATE = """
[dataset]
source = synthetic
n = {n}
d = 8
l = 5
flip_q = {flip_q}

[run]
seeds = {seeds}
train_frac = 0.5
outputs = {outputs}

[sweep]
{axis} = {values}
"""


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--axis",
        choices=list(SWEEP_AXES),
        default="gamma",
    )
    parser.add_argument("--values", type=float, nargs="+", default=[0.0, 0.5, 2.0, 8.0])
    parser.add_argument("--n", type=int, default=300)
    parser.add_argument("--flip-q", type=float, default=0.5)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--outputs", type=Path, default=Path("sweep_results"))
    args = parser.parse_args()

    config = CONFIG_TEMPLATE.format(
        n=args.n,
        flip_q=args.flip_q,
        seeds=",".join(str(s) for s in range(1, args.seeds + 1)),
        outputs=args.outputs,
        axis=args.axis,
        values=",".join(str(v) for v in args.values),
    )
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "sweep.ini"
        config_path.write_text(config)
        code = cli_main(["sweep", str(config_path)])
    if code == 0:
        print(f"wrote {args.outputs / 'sweep.csv'}")
    raise SystemExit(code)


if __name__ == "__main__":
    main()
