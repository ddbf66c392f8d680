"""Experiment harness: dataset generation, paired runs, sweeps, inspection.

Config files are flat INI (``key = value`` under sections). One table of
INI keys, each naming the config fields it sets, drives parsing, the
sweep axes and the resolved configuration that every ``run`` or
``sweep`` writes next to its results for provenance.

Seeding rule: each run seed expands into per-purpose streams through
``np.random.SeedSequence(seed).spawn(2)``, consumed in the fixed order
(dataset, split). Appending new consumers never perturbs the existing
streams.

``run`` and ``sweep`` run their seeds through one seed-major loop over
cells; ``run`` is the sweep of its one configured cell. For each seed the
loop builds each split once (only the ``flip_q`` axis gives a seed several
splits) and runs that split's cells back to back. A train set keeps the
sigma, ridge factors, kNN tables and base-alone run derived from it (see
``PartialLabelDataset.derived``), so each is built once per split, and one
split's at a time are alive. The output files list the rows cell-major, in
grid order.

Results CSV schema (one row per seed per method):
    method, seed, test_accuracy, transductive_accuracy,
    correction_ratio, miscorrection_ratio, iterations_run, wall_ms

``wall_ms`` times the row's own call, so it leaves out the derived state
an earlier call on the same train set already built: a ``-plcp`` row
whose base-alone run, or an earlier sweep cell, built the ridge factor or
kNN table it uses reads lower than one that builds them itself. Cells of
one split and base config repeat the base row of their one base-alone run.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import itertools
import math
import os
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, replace
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

# sweep axis -> the config path it varies. lambda moves the partner's ridge
# only; a kernel-ls base keeps the [partner] ridge of the INI file.
SWEEP_AXES = {
    "lambda": "engine.partner.kernel.ridge",
    "alpha": "engine.alpha",
    "gamma": "engine.partner.gamma",
    "k": "engine.k",
    "flip_q": "synthetic.flip_q",
    "k_neighbors": "engine.base.k_neighbors",
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


def _read_ini(path: str | Path) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    found = cfg.read(path)
    if not found:
        raise FileNotFoundError(f"config file not found: {path}")
    return cfg


def parse_experiment_config(path: str | Path) -> ExperimentConfig:
    cfg = _read_ini(path)
    source = cfg.get("dataset", "source", fallback="synthetic")
    if source not in DATASET_KEYS:
        raise ValueError(f"unknown dataset source {source!r}")
    changes = _read_keys(cfg, DATASET_KEYS[source] + CONFIG_KEYS, also=[("dataset", "source")])
    if source == "files":
        changes["synthetic"] = None
    if OUTPUT_DIR_ENV in os.environ:
        changes["outputs"] = Path(os.environ[OUTPUT_DIR_ENV])
    return _with(EXPERIMENT_DEFAULTS, changes)


def _ini_text(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return _fmt(value)


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
        out.set(key.section, key.name, key.none if value is None else _ini_text(value))
    return out


# ---------------------------------------------------------------------------
# running


def _split(exp: ExperimentConfig, seed: int):
    dataset_seed, split_seed = derive_streams(seed)
    if exp.synthetic is not None:
        dataset = generate_synthetic(replace(exp.synthetic, seed=dataset_seed))
    else:
        dataset = load_dataset(exp.features_path, exp.candidates_path, exp.truth_path)
    return split(dataset, exp.train_frac, split_seed)


def _split_key(exp: ExperimentConfig, seed: int) -> tuple:
    """What the seed's split depends on: equal keys give equal splits."""
    return (
        seed, exp.synthetic, exp.features_path, exp.candidates_path, exp.truth_path,
        exp.train_frac,
    )


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, 1000.0 * (time.perf_counter() - t0)


def run_seed(exp: ExperimentConfig, seed: int, data: tuple | None = None):
    """One seed's paired base / base-plcp comparison.

    ``data`` is the seed's (train, test) split, built here when absent. The
    base-alone run depends on nothing but the split and the base config, so
    it is kept on the train set (see ``PartialLabelDataset.derived``) for
    later calls with that split. Returns (result rows, trajectory rows).
    """
    train, test = _split(exp, seed) if data is None else data
    base = exp.engine.base
    (base_train, base_test), base_ms = train.derived(
        ("base-alone", base), lambda: _timed(run_base_alone, train, test.features, base)
    )
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


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        # repr of a NumPy scalar carries its type name: np.float64(0.5)
        return repr(float(value))
    return str(value)


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

    Integer columns parse as ``int``, text columns stay strings, and every
    other non-empty cell must parse as a ``float``.
    """
    out = []
    with open(path, newline="") as fh:
        for number, row in enumerate(csv.DictReader(fh), start=1):
            parsed = dict(row)
            for key, value in row.items():
                if key in TEXT_COLUMNS or (value == "" and key not in INT_COLUMNS):
                    continue
                try:
                    parsed[key] = (int if key in INT_COLUMNS else float)(value)
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


def run_experiment(exp: ExperimentConfig) -> int:
    """Run all seeds, write results/summary/trajectories, return exit code."""
    exp.outputs.mkdir(parents=True, exist_ok=True)
    rows, trajectory_rows, failures = _run_cells([({}, exp)], exp.seeds)

    write_csv(exp.outputs / "results.csv", RESULT_FIELDS, rows)
    write_csv(exp.outputs / "summary.csv", SUMMARY_FIELDS, summarize(rows))
    if exp.emit_trajectories:
        write_csv(exp.outputs / "trajectories.csv", TRAJECTORY_FIELDS, trajectory_rows)
    with open(exp.outputs / "resolved_config.ini", "w") as fh:
        _resolved_ini(exp).write(fh)
    if failures:
        write_csv(exp.outputs / "failures.csv", ("seed", "error"), failures)
        print(f"{len(failures)} of {len(exp.seeds)} seeds failed; see failures.csv",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# sweep


def _apply_axis(exp: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    """``exp`` with one sweep axis set to ``value``, cast to the field's type."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    if axis == "flip_q" and exp.synthetic is None:
        raise ValueError("flip_q axis requires a synthetic dataset source")
    path = SWEEP_AXES[axis]
    field_type = type(_get_path(exp, path))
    try:
        if field_type is int and not float(value).is_integer():
            raise ValueError("not an integer")
        return _with(exp, {path: field_type(value)})
    except ValueError as exc:
        raise ValueError(f"[sweep] {axis} = {value}: {exc}") from exc


def _axis_values(raw: str) -> list[float]:
    values = [float(v) for v in raw.split(",") if v.strip()]
    if not values:
        raise ValueError(f"{raw!r} lists no values")
    return values


SWEEP_KEYS = (IniKey("sweep", "max_cells", ("max_cells",), int),) + tuple(
    IniKey("sweep", axis, (axis,), _axis_values) for axis in SWEEP_AXES
)


def run_sweep(config_path: str | Path) -> int:
    cfg = _read_ini(config_path)
    exp = parse_experiment_config(config_path)
    if not cfg.has_section("sweep"):
        raise ValueError("sweep command requires a [sweep] section")
    axes = _read_keys(cfg, SWEEP_KEYS)
    max_cells = axes.pop("max_cells", 1000)
    # with no axes the grid is the single cell of the configured values
    n_cells = math.prod(len(values) for values in axes.values())
    if n_cells > max_cells:
        print(
            f"sweep grid has {n_cells} cells, above the cap of {max_cells}; "
            "raise max_cells or shrink the grid",
            file=sys.stderr,
        )
        return 2

    # a sweep writes no trajectories, so its cells build none
    quiet = replace(exp, emit_trajectories=False)
    cells = []
    for combo in itertools.product(*axes.values()):
        cell_id = dict(zip(axes, combo))
        cell = quiet
        for axis, value in cell_id.items():
            cell = _apply_axis(cell, axis, value)
        cells.append((cell_id, cell))

    exp.outputs.mkdir(parents=True, exist_ok=True)
    rows, _, failures = _run_cells(cells, exp.seeds)

    write_csv(exp.outputs / "sweep.csv", tuple(axes) + RESULT_FIELDS, rows)
    with open(exp.outputs / "resolved_config.ini", "w") as fh:
        out = _resolved_ini(exp)
        out["sweep"] = {axis: cfg.get("sweep", axis) for axis in axes}
        out.write(fh)
    if failures:
        write_csv(exp.outputs / "failures.csv", tuple(axes) + ("seed", "error"), failures)
        print(f"{len(failures)} sweep runs failed; see failures.csv", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args) -> int:
    cfg = _read_ini(args.spec)
    spec = _with(GENERATE_DEFAULTS, _read_keys(cfg, GENERATE_KEYS))
    out_dir = Path(
        os.environ.get(OUTPUT_DIR_ENV, cfg.get("output", "dir", fallback="dataset"))
    )
    paths = save_dataset(generate_synthetic(spec), out_dir)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def cmd_run(args) -> int:
    return run_experiment(parse_experiment_config(args.config))


def cmd_sweep(args) -> int:
    return run_sweep(args.config)


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
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="grid sweep over hyper-parameters")
    p.add_argument("config", help="experiment INI file with a [sweep] section")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("inspect", help="print dataset statistics")
    p.add_argument("features")
    p.add_argument("candidates")
    p.add_argument("--truth", default=None)
    p.set_defaults(func=cmd_inspect)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
