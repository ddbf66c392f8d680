"""Experiment harness: dataset generation, paired runs, sweeps, inspection.

Config files are flat INI (``key = value`` under sections). One table of
INI keys, each naming the config fields it sets and its parser, drives
parsing and the resolved config written beside the results; each sweep
axis parses its values as its field's INI key does. An unknown section
or key is a typo and raises a ``ValueError`` before any run starts.

Seeding rule: each run seed expands into per-purpose streams through
``np.random.SeedSequence(seed).spawn(2)``, consumed in the fixed order
(dataset, split). Appending new consumers never perturbs the existing
streams.

``run`` and ``sweep`` share one seed-major loop over cells and one output
path; ``run`` is the sweep of its one configured cell. For each seed the
loop builds each split once (only the ``flip_q`` axis gives a seed several
splits) and runs that split's cells back to back. What the runs on a
train set share lives in its ``setup`` (see ``core.TrainSetup``), so each
piece is built once per split, and one split's at a time are alive. The
output files list the rows cell-major, in grid order.

Results CSV schema (one row per seed per method; ``sweep.csv`` puts the
cell's sweep axis values first):
    method, seed, test_accuracy, transductive_accuracy,
    correction_ratio, miscorrection_ratio, iterations_run, wall_ms

Both write ``summary.csv``: per cell and method, the mean and std of each
results column after the cell's axis values; a sweep with an empty
``[sweep]`` section writes ``run``'s. The experiments are sweeps of the
INI files in ``examples/``.

``wall_ms`` times the row's own call, so it leaves out the derived state
an earlier call on the same train set already built: a ``-plcp`` row
whose base-alone run, or an earlier sweep cell, built the ridge factor or
kNN table it uses reads lower than one that builds them itself; a gamma-0
``-plcp`` row leaves out the partner fit an earlier round or cell built.
Cells of one split and base config repeat the base row of their one
base-alone run.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import itertools
import math
import os
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np

from .data import SyntheticSpec, generate_synthetic, load_dataset, save_dataset, split
from .engine import EngineConfig, run_base_alone, run_plcp
from .metrics import accuracy, correction_metrics

RESULT_FIELDS = (
    "method",
    "seed",
    "test_accuracy",
    "transductive_accuracy",
    "correction_ratio",
    "miscorrection_ratio",
    "iterations_run",
    "wall_ms",
)
OUTPUT_DIR_ENV = "PLCP_OUTPUT_DIR"


@dataclass(frozen=True)
class ExperimentConfig:
    engine: EngineConfig
    seeds: tuple[int, ...]
    train_frac: float
    outputs: Path
    emit_trajectories: bool
    synthetic: SyntheticSpec | None = None
    features_path: Path | None = None
    candidates_path: Path | None = None
    truth_path: Path | None = None

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if min(self.seeds) < 0 or len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"seeds must be distinct and non-negative, got {self.seeds}")
        if not 0.0 < self.train_frac < 1.0:
            raise ValueError("train_frac must be strictly between 0 and 1")
        if self.synthetic is None and (
            self.features_path is None or self.candidates_path is None
        ):
            raise ValueError("config needs a synthetic spec or dataset file paths")


def derive_streams(seed: int) -> tuple[int, int]:
    """Per-purpose child seeds, fixed order: (dataset, split)."""
    children = np.random.SeedSequence(seed).spawn(2)
    return tuple(int(c.generate_state(1)[0]) for c in children)


# ---------------------------------------------------------------------------
# config schema


def _bool(raw: str) -> bool:
    text = raw.strip().lower()
    if text not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"{raw!r} is not 1/true/yes/on or 0/false/no/off")
    return configparser.ConfigParser.BOOLEAN_STATES[text]


def _seeds(raw: str) -> tuple[int, ...]:
    return tuple(int(s) for s in raw.split(",") if s.strip())


@dataclass(frozen=True)
class IniKey:
    """One INI key and the dotted config paths its parsed value sets.

    ``none`` is the INI text standing for ``None``; a key without one is
    left out of the resolved config while its value is ``None``.
    """

    section: str
    name: str
    paths: tuple[str, ...]
    conv: Callable[[str], Any] = float
    none: str | None = None


_SYNTHETIC_FIELDS = (
    ("n", int), ("d", int), ("l", int), ("flip_q", float), ("cluster_spread", float)
)
# [dataset] keys per source
DATASET_KEYS = {
    "synthetic": tuple(
        IniKey("dataset", name, (f"synthetic.{name}",), conv)
        for name, conv in _SYNTHETIC_FIELDS
    ),
    "files": (
        IniKey("dataset", "features", ("features_path",), Path),
        IniKey("dataset", "candidates", ("candidates_path",), Path),
        IniKey("dataset", "truth", ("truth_path",), Path),
    ),
}
CONFIG_KEYS = (
    IniKey("engine", "alpha", ("engine.alpha",)),
    IniKey("engine", "k", ("engine.k",)),
    IniKey("engine", "max_iter", ("engine.max_iter",), int),
    IniKey("engine", "stop_change_frac", ("engine.stop_change_frac",)),
    IniKey("engine", "predict_from_base", ("engine.predict_from_base",), _bool),
    IniKey("base", "kind", ("engine.base.kind",), str),
    IniKey("base", "k_neighbors", ("engine.base.k_neighbors",), int),
    IniKey("base", "binarize", ("engine.base.binarize",), _bool),
    # one ridge for the partner and the kernel-ls base
    IniKey("partner", "ridge", ("engine.partner.kernel.ridge", "engine.base.kernel.ridge")),
    IniKey("partner", "gamma", ("engine.partner.gamma",)),
    IniKey("partner", "inner_iters", ("engine.partner.inner_iters",), int),
    IniKey("partner", "inner_tol", ("engine.partner.inner_tol",)),
    IniKey("partner", "aggressive", ("engine.partner.aggressive",), _bool),
    IniKey("kernel", "kind", ("engine.partner.kernel.kind", "engine.base.kernel.kind"), str),
    IniKey(
        "kernel", "sigma", ("engine.partner.kernel.sigma", "engine.base.kernel.sigma"),
        none="mean-pairwise",
    ),
    IniKey("run", "seeds", ("seeds",), _seeds),
    IniKey("run", "train_frac", ("train_frac",)),
    IniKey("run", "outputs", ("outputs",), Path),
    IniKey("run", "emit_trajectories", ("emit_trajectories",), _bool),
)
# the [synthetic] section of a ``generate`` spec, with paths into SyntheticSpec
GENERATE_KEYS = tuple(
    IniKey("synthetic", name, (name,), conv)
    for name, conv in _SYNTHETIC_FIELDS + (("seed", int),)
)

# the sections ``run`` and ``sweep`` accept (one file serves both), and ``generate``'s
EXPERIMENT_SECTIONS = ("dataset", "engine", "base", "partner", "kernel", "run", "sweep")
GENERATE_SECTIONS = ("synthetic", "output")

# sweep axis -> (the config path it varies, the parser of one value: that of
# the path's INI key). lambda moves the partner's ridge only; a kernel-ls
# base keeps the [partner] ridge of the INI file.
SWEEP_AXES = {
    "lambda": ("engine.partner.kernel.ridge", float),
    "alpha": ("engine.alpha", float),
    "gamma": ("engine.partner.gamma", float),
    "k": ("engine.k", float),
    "flip_q": ("synthetic.flip_q", float),
    "k_neighbors": ("engine.base.k_neighbors", int),
}

# Defaults of the values the dataclasses leave open; the engine, base,
# partner and kernel defaults are those of their dataclasses.
EXPERIMENT_DEFAULTS = ExperimentConfig(
    engine=EngineConfig(),
    seeds=(1,),
    train_frac=0.5,
    outputs=Path("results"),
    emit_trajectories=False,
    synthetic=SyntheticSpec(n=500, d=8, l=5, flip_q=0.3),
)
GENERATE_DEFAULTS = SyntheticSpec(n=100, d=2, l=3, flip_q=0.3)


def _get_path(obj, path: str):
    for name in path.split("."):
        obj = getattr(obj, name)
    return obj


def _with(obj, changes: dict[str, Any]):
    """Copy of a frozen dataclass tree with dotted-path ``changes`` applied.

    Each object is rebuilt once with all of its changes, so its validation
    sees the final combination of values, never a half-applied one.
    """
    direct, nested = {}, {}
    for path, value in changes.items():
        head, _, rest = path.partition(".")
        if rest:
            nested.setdefault(head, {})[rest] = value
        else:
            direct[head] = value
    for head, sub in nested.items():
        direct[head] = _with(getattr(obj, head), sub)
    return replace(obj, **direct)


def _read_keys(cfg: configparser.ConfigParser, keys, also=()) -> dict[str, Any]:
    """Config path -> parsed value, for every key the INI file sets.

    A section of ``keys`` may hold only their names and the (section, name)
    pairs of ``also``; any other key there is a typo and raises.
    """
    known = {(key.section, key.name) for key in keys} | set(also)
    for section in sorted({section for section, _ in known}):
        if cfg.has_section(section):
            for name in cfg.options(section):
                if (section, name) not in known:
                    raise ValueError(f"[{section}] {name}: unknown key")
    changes = {}
    for key in keys:
        if cfg.has_option(key.section, key.name):
            raw = cfg.get(key.section, key.name)
            try:
                value = None if raw == key.none else key.conv(raw)
            except ValueError as exc:
                raise ValueError(f"[{key.section}] {key.name}: {exc}") from exc
            changes.update(dict.fromkeys(key.paths, value))
    return changes


def _read_ini(path: str | Path, sections: tuple[str, ...]) -> configparser.ConfigParser:
    """The parsed INI file, whose sections must all be among ``sections``."""
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        found = cfg.read(path)
    except configparser.Error as exc:
        message = " ".join(str(exc).split())  # configparser's spans lines
        raise ValueError(f"malformed config file {path}: {message}") from exc
    if not found:
        raise FileNotFoundError(f"config file not found: {path}")
    for section in cfg.sections():
        if section not in sections:
            raise ValueError(f"[{section}]: unknown section; use {', '.join(sections)}")
    return cfg


def parse_experiment_config(path: str | Path) -> ExperimentConfig:
    return _experiment_config(_read_ini(path, EXPERIMENT_SECTIONS))


def _experiment_config(cfg: configparser.ConfigParser) -> ExperimentConfig:
    source = cfg.get("dataset", "source", fallback="synthetic")
    if source not in DATASET_KEYS:
        raise ValueError(f"unknown dataset source {source!r}")
    changes = _read_keys(cfg, DATASET_KEYS[source] + CONFIG_KEYS, also=[("dataset", "source")])
    if source == "files":
        changes["synthetic"] = None
    if OUTPUT_DIR_ENV in os.environ:
        changes["outputs"] = Path(os.environ[OUTPUT_DIR_ENV])
    return _with(EXPERIMENT_DEFAULTS, changes)


def _fmt(value) -> str:
    """The text of a config value or a CSV cell, as the INI keys read it."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, (float, np.floating)):
        # repr of a NumPy scalar carries its type name: np.float64(0.5)
        return repr(float(value))
    return str(value)


def _resolved_ini(exp: ExperimentConfig) -> configparser.ConfigParser:
    source = "synthetic" if exp.synthetic is not None else "files"
    out = configparser.ConfigParser()
    out["dataset"] = {"source": source}
    for key in DATASET_KEYS[source] + CONFIG_KEYS:
        value = _get_path(exp, key.paths[0])
        if value is None and key.none is None:
            continue
        if not out.has_section(key.section):
            out.add_section(key.section)
        out.set(key.section, key.name, key.none if value is None else _fmt(value))
    return out


# ---------------------------------------------------------------------------
# running


_SPLIT_FIELDS = ("synthetic", "features_path", "candidates_path", "truth_path", "train_frac")


def _split_key(exp: ExperimentConfig, seed: int) -> tuple:
    """What the seed's split depends on: equal keys give equal splits."""
    return (seed, *(getattr(exp, name) for name in _SPLIT_FIELDS))


def _split(exp: ExperimentConfig, seed: int):
    seed, synthetic, features, candidates, truth, train_frac = _split_key(exp, seed)
    dataset_seed, split_seed = derive_streams(seed)
    if synthetic is not None:
        dataset = generate_synthetic(replace(synthetic, seed=dataset_seed))
    else:
        dataset = load_dataset(features, candidates, truth)
    return split(dataset, train_frac, split_seed)


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, 1000.0 * (time.perf_counter() - t0)


def run_seed(exp: ExperimentConfig, seed: int, data: tuple | None = None):
    """One seed's paired base / base-plcp comparison.

    ``data`` is the seed's (train, test) split, built here when absent. The
    base-alone run depends on nothing but the split and the base config, so
    it is kept in ``train.setup.base_alone``. Returns (result rows,
    trajectory rows).
    """
    train, test = _split(exp, seed) if data is None else data
    base, runs = exp.engine.base, train.setup.base_alone
    key = base, hashlib.sha256(test.features).hexdigest()
    if key not in runs:
        runs[key] = _timed(run_base_alone, train, test.features, base)
    (base_train, base_test), base_ms = runs[key]
    report, plcp_ms = _timed(run_plcp, train, test.features, exp.engine)

    def row(method, train_labels, test_labels, iterations, wall_ms):
        metrics = [float("nan")] * 4
        if train.ground_truth is not None:
            metrics = [
                accuracy(test_labels, test.ground_truth),
                accuracy(train_labels, train.ground_truth),
                *correction_metrics(base_train, train_labels, train.ground_truth),
            ]
        return dict(zip(RESULT_FIELDS, (method, seed, *metrics, iterations, wall_ms)))

    rows = [
        row(base.kind, base_train, base_test, 1, base_ms),
        row(f"{base.kind}-plcp", report.train_predictions, report.test_predictions,
            report.iterations_run, plcp_ms),
    ]
    blank = [""] * train.n_samples
    trajectory_rows = [
        dict(zip(TRAJECTORY_FIELDS, (seed, it, i, int(label), truth, rival)))
        for it, snap in enumerate(report.trajectories if exp.emit_trajectories else [], 1)
        for i, (label, truth, rival) in enumerate(zip(
            snap.labels,
            blank if snap.truth_confidence is None else snap.truth_confidence,
            blank if snap.max_false_confidence is None else snap.max_false_confidence,
        ))
    ]
    return rows, trajectory_rows


def write_csv(path: Path, fields, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fields))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row[k]) for k in fields})


INT_COLUMNS = ("seed", "iterations_run", "iteration", "sample", "label")
TEXT_COLUMNS = ("method", "error")


def read_results_csv(path: str | Path) -> list[dict]:
    """Parse a results CSV back into typed rows (round-trips write_csv).

    Integer columns parse as ``int``, a sweep axis's column with that
    axis's parser, text columns stay strings, and every other non-empty cell
    must parse as a ``float``.
    """
    parsers = {axis: conv for axis, (_, conv) in SWEEP_AXES.items()}
    parsers.update(dict.fromkeys(INT_COLUMNS, int))
    out = []
    with open(path, newline="") as fh:
        for number, row in enumerate(csv.DictReader(fh), start=1):
            parsed = dict(row)
            for key, value in row.items():
                if key in TEXT_COLUMNS or (value == "" and key not in INT_COLUMNS):
                    continue
                try:
                    parsed[key] = parsers.get(key, float)(value)
                except ValueError:
                    raise ValueError(
                        f"{path}: row {number}, column {key!r}: cannot parse {value!r}"
                    ) from None
            out.append(parsed)
    return out


# every results column after method and seed
SUMMARIZED = RESULT_FIELDS[2:]
SUMMARY_FIELDS = ("method", "n_seeds") + tuple(
    f"{key}_{stat}" for key in SUMMARIZED for stat in ("mean", "std")
)


def summarize(rows) -> list[dict]:
    methods = sorted({r["method"] for r in rows})
    summary = []
    for method in methods:
        sub = [r for r in rows if r["method"] == method]
        entry = {"method": method, "n_seeds": len(sub)}
        for key in SUMMARIZED:
            vals = np.array([float(r[key]) for r in sub])
            entry[f"{key}_mean"] = float(vals.mean())
            entry[f"{key}_std"] = float(vals.std())
        summary.append(entry)
    return summary


TRAJECTORY_FIELDS = (
    "seed",
    "iteration",
    "sample",
    "label",
    "truth_confidence",
    "max_false_positive_confidence",
)


def _run_cells(
    cells: list[tuple[dict, ExperimentConfig]], seeds: tuple[int, ...]
) -> tuple[list, list, list]:
    """Result rows, trajectory rows and failures of every (cell id, config)
    pair of ``cells`` and every seed, cell-major; the cell id prefixes its
    result and failure rows. Seed-major, with a seed's cells of one split
    back to back, so a split and its derived factors are dropped before the
    next is built; a split that fails fails each of its cells."""
    out = [([], [], []) for _ in cells]
    for seed in seeds:
        by_split: dict[tuple, list[int]] = {}
        for index, (_, cell) in enumerate(cells):
            by_split.setdefault(_split_key(cell, seed), []).append(index)
        for indices in by_split.values():
            data = None
            for index in indices:
                cell_id, cell = cells[index]
                rows, trajectory_rows, failures = out[index]
                try:
                    if data is None:
                        data = _split(cell, seed)
                    seed_rows, seed_traj = run_seed(cell, seed, data)
                except Exception as exc:  # keep the remaining runs alive
                    failures.append(
                        {**cell_id, "seed": seed, "error": f"{type(exc).__name__}: {exc}"}
                    )
                    continue
                rows += [{**cell_id, **row} for row in seed_rows]
                trajectory_rows += seed_traj
    return tuple(list(itertools.chain.from_iterable(lists)) for lists in zip(*out))


def run_experiment(exp: ExperimentConfig, cells: list | None = None,
                   sweep: dict | None = None) -> int:
    """Run every seed of each (cell id, config) pair of ``cells``, by default
    ``exp``'s one cell, and write ``results.csv`` (``trajectories.csv`` when
    asked) or, given the ``sweep`` axes' INI text, ``sweep.csv``; then per
    cell ``summary.csv``, ``resolved_config.ini`` with the ``sweep`` and, for
    failed runs, ``failures.csv``. Return the exit code."""
    axes = tuple(sweep or ())
    exp.outputs.mkdir(parents=True, exist_ok=True)
    rows, trajectory_rows, failures = _run_cells(cells or [({}, exp)], exp.seeds)
    write_csv(exp.outputs / ("results.csv" if sweep is None else "sweep.csv"),
              axes + RESULT_FIELDS, rows)
    if exp.emit_trajectories and sweep is None:
        write_csv(exp.outputs / "trajectories.csv", TRAJECTORY_FIELDS, trajectory_rows)
    by_cell = itertools.groupby(rows, key=lambda row: tuple(row[axis] for axis in axes))
    summary = [{**dict(zip(axes, values)), **entry}
               for values, cell_rows in by_cell for entry in summarize(list(cell_rows))]
    write_csv(exp.outputs / "summary.csv", axes + SUMMARY_FIELDS, summary)
    resolved = _resolved_ini(exp)
    if sweep is not None:
        resolved["sweep"] = sweep
    with open(exp.outputs / "resolved_config.ini", "w") as fh:
        resolved.write(fh)
    if not failures:
        return 0
    write_csv(exp.outputs / "failures.csv", axes + ("seed", "error"), failures)
    what = f"of {len(exp.seeds)} seeds" if sweep is None else "sweep runs"
    print(f"{len(failures)} {what} failed; see failures.csv", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# sweep


def _axis_values(conv: Callable[[str], Any], raw: str) -> list:
    """An axis's comma-separated values, each parsed by ``conv``."""
    values = [conv(v) for v in raw.split(",") if v.strip()]
    if not values:
        raise ValueError(f"{raw!r} lists no values")
    if len(set(values)) < len(values):
        raise ValueError(f"{raw!r} repeats a value")
    return values


SWEEP_KEYS = (IniKey("sweep", "max_cells", ("max_cells",), int),) + tuple(
    IniKey("sweep", axis, (axis,), partial(_axis_values, conv))
    for axis, (_, conv) in SWEEP_AXES.items()
)


def sweep_cells(exp: ExperimentConfig, axes: dict[str, list]) -> list:
    """The (cell id, config) pairs of the grid of ``axes`` (axis -> values)
    over ``exp``, in grid order; the cell id maps each axis to its value."""
    if "flip_q" in axes and exp.synthetic is None:
        raise ValueError("flip_q axis requires a synthetic dataset source")
    cells = []
    for combo in itertools.product(*axes.values()):
        cell_id = dict(zip(axes, combo))
        cell = exp
        for axis, value in cell_id.items():
            try:
                cell = _with(cell, {SWEEP_AXES[axis][0]: value})
            except ValueError as exc:
                raise ValueError(f"[sweep] {axis} = {value}: {exc}") from exc
        cells.append((cell_id, cell))
    return cells


def run_sweep(config_path: str | Path) -> int:
    cfg = _read_ini(config_path, EXPERIMENT_SECTIONS)
    exp = _experiment_config(cfg)
    if not cfg.has_section("sweep"):
        raise ValueError("sweep command requires a [sweep] section")
    axes = _read_keys(cfg, SWEEP_KEYS)
    max_cells = axes.pop("max_cells", 1000)
    # with no axes the grid is the single cell of the configured values
    n_cells = math.prod(len(values) for values in axes.values())
    if n_cells > max_cells:
        raise ValueError(
            f"sweep grid has {n_cells} cells, above the cap of {max_cells}; "
            "raise max_cells or shrink the grid"
        )
    # a sweep writes no trajectories, so its cells build none
    cells = sweep_cells(replace(exp, emit_trajectories=False), axes)
    return run_experiment(exp, cells, {axis: cfg.get("sweep", axis) for axis in axes})


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args) -> int:
    cfg = _read_ini(args.spec, GENERATE_SECTIONS)
    spec = _with(GENERATE_DEFAULTS, _read_keys(cfg, GENERATE_KEYS, also=[("output", "dir")]))
    out_dir = Path(
        os.environ.get(OUTPUT_DIR_ENV, cfg.get("output", "dir", fallback="dataset"))
    )
    paths = save_dataset(generate_synthetic(spec), out_dir)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def cmd_inspect(args) -> int:
    dataset = load_dataset(args.features, args.candidates, args.truth)
    avg = dataset.candidates.sum(axis=1).mean()
    print(f"samples: {dataset.n_samples}")
    print(f"features: {dataset.n_features}")
    print(f"labels: {dataset.label_count}")
    print(f"avg candidates: {avg:.4f}")
    print(f"ground truth: {'present' if dataset.ground_truth is not None else 'absent'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="plcp",
        description="Partial-label learning experiments with a partner classifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset to CSV files")
    p.add_argument("spec", help="INI file with a [synthetic] section")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="paired base vs base-plcp runs over seeds")
    p.add_argument("config", help="experiment INI file")
    p.set_defaults(func=lambda args: run_experiment(parse_experiment_config(args.config)))

    p = sub.add_parser("sweep", help="grid sweep over hyper-parameters")
    p.add_argument("config", help="experiment INI file with a [sweep] section")
    p.set_defaults(func=lambda args: run_sweep(args.config))

    p = sub.add_parser("inspect", help="print dataset statistics")
    p.add_argument("features")
    p.add_argument("candidates")
    p.add_argument("--truth", default=None)
    p.set_defaults(func=cmd_inspect)

    args = parser.parse_args(argv)
    return args.func(args)


def console(argv=None) -> int:
    """The ``plcp`` command: :func:`main`, with bad input, a missing file or a
    run too large for memory reported as one line on stderr and exit code 2."""
    try:
        return main(argv)
    except (ValueError, FileNotFoundError, MemoryError) as exc:
        print(f"plcp: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(console())
