import csv
import io
import math
import os
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from plcp import base, cli, kernel
from plcp.base import BaseClassifierKind
from plcp.cli import (
    SWEEP_AXES,
    _resolved_ini,
    derive_streams,
    main,
    parse_experiment_config,
    read_results_csv,
    sweep_cells,
)
from plcp.core import PartialLabelDataset
from plcp.data import SyntheticSpec, load_dataset
from plcp.engine import EngineConfig, run_base_alone, run_plcp
from plcp.metrics import accuracy, correction_metrics
from plcp.partner import PartnerConfig

GEN_SPEC = """
[synthetic]
n = 100
d = 2
l = 3
flip_q = {flip_q}
seed = 1

[output]
dir = {out_dir}
"""

RUN_CONFIG = """
[dataset]
source = synthetic
n = {n}
d = 2
l = 3
flip_q = 0.3

[engine]
max_iter = {max_iter}

[run]
seeds = {seeds}
train_frac = 0.5
outputs = {out_dir}
emit_trajectories = {emit}
"""

FULL_CONFIG = """
[dataset]
source = synthetic
n = 40
d = 3
l = 4
flip_q = 0.2
cluster_spread = 1.5

[engine]
alpha = 0.4
k = -2
max_iter = 3

[base]
kind = kernel-ls

[partner]
ridge = 0.1
gamma = 3.0

[kernel]
kind = gaussian
sigma = 2.5

[run]
seeds = 3,4
train_frac = 0.6
outputs = out
"""

# resolved_config.ini of FULL_CONFIG: every key, defaults filled in
FULL_RESOLVED = """[dataset]
source = synthetic
n = 40
d = 3
l = 4
flip_q = 0.2
cluster_spread = 1.5

[engine]
alpha = 0.4
k = -2.0
max_iter = 3
stop_change_frac = 0.05
predict_from_base = false

[base]
kind = kernel-ls
k_neighbors = 10
binarize = false

[partner]
ridge = 0.1
gamma = 3.0
inner_iters = 10
inner_tol = 1e-06
aggressive = false

[kernel]
kind = gaussian
sigma = 2.5

[run]
seeds = 3,4
train_frac = 0.6
outputs = out
emit_trajectories = false

"""

FILES_CONFIG = """
[dataset]
source = files
features = data/features.csv
candidates = data/candidates.csv
truth = data/truth.csv

[engine]
predict_from_base = true

[kernel]
kind = linear

[run]
outputs = out
"""


def write(path, text):
    path.write_text(text)
    return str(path)


def record_calls(monkeypatch, module, name):
    """Record the (args, kwargs) of every call to ``module.name``."""
    calls = []
    original = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return calls


def fit_path_tables(calls):
    """The neighbour searches of the train rows among themselves."""
    return [kwargs for _, kwargs in calls if kwargs.get("exclude_self")]


def track_ridge_systems(monkeypatch):
    """Weak references to every ridge system built, and how many were alive
    when each was built. Every system is built by ``kernel.ridge_system``."""
    refs, alive_at_build = [], []
    original = kernel.ridge_system

    def tracked(*args):
        alive_at_build.append(sum(ref() is not None for ref in refs))
        system = original(*args)
        refs.append(weakref.ref(system))
        return system

    monkeypatch.setattr(kernel, "ridge_system", tracked)
    return refs, alive_at_build


def experiment(tmp_path, base_kind):
    return cli.ExperimentConfig(
        engine=EngineConfig(base=BaseClassifierKind(kind=base_kind), max_iter=2),
        seeds=(1,),
        train_frac=0.5,
        outputs=tmp_path,
        emit_trajectories=False,
        synthetic=SyntheticSpec(n=60, d=3, l=3, flip_q=0.3),
    )


class TestGenerate:
    def test_round_trip(self, tmp_path):
        spec = write(
            tmp_path / "spec.ini",
            GEN_SPEC.format(flip_q=0.3, out_dir=tmp_path / "data"),
        )
        assert main(["generate", spec]) == 0
        ds = load_dataset(
            tmp_path / "data" / "features.csv",
            tmp_path / "data" / "candidates.csv",
            tmp_path / "data" / "truth.csv",
        )
        assert ds.n_samples == 100 and ds.label_count == 3

    def test_no_flip_singletons(self, tmp_path):
        spec = write(
            tmp_path / "spec.ini", GEN_SPEC.format(flip_q=0.0, out_dir=tmp_path / "d")
        )
        main(["generate", spec])
        ds = load_dataset(tmp_path / "d" / "features.csv", tmp_path / "d" / "candidates.csv")
        np.testing.assert_array_equal(ds.candidates.sum(axis=1), 1.0)

    def test_repeat_byte_identical(self, tmp_path):
        spec_a = write(tmp_path / "a.ini", GEN_SPEC.format(flip_q=0.3, out_dir=tmp_path / "a"))
        spec_b = write(tmp_path / "b.ini", GEN_SPEC.format(flip_q=0.3, out_dir=tmp_path / "b"))
        main(["generate", spec_a])
        main(["generate", spec_b])
        for name in ("features.csv", "candidates.csv", "truth.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestRun:
    def test_smallest_run(self, tmp_path):
        cfg = write(
            tmp_path / "run.ini",
            RUN_CONFIG.format(n=60, max_iter=1, seeds="1", out_dir=tmp_path / "out", emit="false"),
        )
        assert main(["run", cfg]) == 0
        rows = read_results_csv(tmp_path / "out" / "results.csv")
        assert len(rows) == 2
        assert {r["method"] for r in rows} == {"pl-knn", "pl-knn-plcp"}
        assert (tmp_path / "out" / "resolved_config.ini").exists()

    def test_summary_means_are_arithmetic_means(self, tmp_path):
        cfg = write(
            tmp_path / "run.ini",
            RUN_CONFIG.format(n=60, max_iter=2, seeds="1,2,3", out_dir=tmp_path / "out", emit="false"),
        )
        main(["run", cfg])
        rows = read_results_csv(tmp_path / "out" / "results.csv")
        summary = read_results_csv(tmp_path / "out" / "summary.csv")
        for entry in summary:
            sub = [r for r in rows if r["method"] == entry["method"]]
            expected = np.mean([r["test_accuracy"] for r in sub])
            assert entry["test_accuracy_mean"] == pytest.approx(expected, abs=1e-12)

    def test_deterministic_metrics(self, tmp_path):
        for name in ("x", "y"):
            cfg = write(
                tmp_path / f"{name}.ini",
                RUN_CONFIG.format(n=60, max_iter=2, seeds="4,5", out_dir=tmp_path / name, emit="false"),
            )
            main(["run", cfg])
        a = (tmp_path / "x" / "results.csv").read_text()
        b = (tmp_path / "y" / "results.csv").read_text()
        # wall clock differs; every metric column must not
        for row_a, row_b in zip(
            read_results_csv(tmp_path / "x" / "results.csv"),
            read_results_csv(tmp_path / "y" / "results.csv"),
        ):
            for key in row_a:
                if key != "wall_ms":
                    assert row_a[key] == row_b[key]
        assert a != "" and b != ""

    def test_trajectory_row_count(self, tmp_path):
        cfg = write(
            tmp_path / "run.ini",
            RUN_CONFIG.format(n=6, max_iter=1, seeds="1", out_dir=tmp_path / "out", emit="true")
            + "\n[base]\nk_neighbors = 2\n",
        )
        assert main(["run", cfg]) == 0
        traj = read_results_csv(tmp_path / "out" / "trajectories.csv")
        # 1 iteration x 3 training samples
        assert len(traj) == 3

    def test_failed_seed_recorded(self, tmp_path):
        cfg = write(
            tmp_path / "run.ini",
            """
[dataset]
source = files
features = /nonexistent/features.csv
candidates = /nonexistent/candidates.csv

[run]
seeds = 1,2
outputs = {out}
""".format(out=tmp_path / "out"),
        )
        assert main(["run", cfg]) == 1
        failures = read_results_csv(tmp_path / "out" / "failures.csv")
        assert len(failures) == 2

    def test_trajectories_round_trip_as_floats(self, tmp_path):
        cfg = write(
            tmp_path / "run.ini",
            RUN_CONFIG.format(n=60, max_iter=2, seeds="1", out_dir=tmp_path / "out", emit="true"),
        )
        assert main(["run", cfg]) == 0
        assert "np." not in (tmp_path / "out" / "trajectories.csv").read_text()
        traj = read_results_csv(tmp_path / "out" / "trajectories.csv")
        assert traj
        for row in traj:
            assert type(row["truth_confidence"]) is float
            assert type(row["max_false_positive_confidence"]) is float

    def test_numpy_scalars_written_as_plain_floats(self):
        assert cli._fmt(np.float64(0.25)) == "0.25"
        assert cli._fmt(np.float32(0.5)) == "0.5"
        assert cli._fmt(0.1) == "0.1"

    def test_unparsable_numeric_cell_names_column_and_row(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text("method,seed,test_accuracy\npl-knn,1,0.5\npl-knn,2,np.float64(0.5)\n")
        with pytest.raises(ValueError, match=r"row 2, column 'test_accuracy'"):
            read_results_csv(path)

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        override = tmp_path / "override"
        monkeypatch.setenv("PLCP_OUTPUT_DIR", str(override))
        cfg = write(
            tmp_path / "run.ini",
            RUN_CONFIG.format(n=60, max_iter=1, seeds="1", out_dir=tmp_path / "ignored", emit="false"),
        )
        main(["run", cfg])
        assert (override / "results.csv").exists()
        assert not (tmp_path / "ignored").exists()


def without_wall_ms(rows):
    return [{k: v for k, v in row.items() if k != "wall_ms"} for row in rows]


def same_cells(a, b):
    """Equal, with NaN equal to NaN."""
    return a.keys() == b.keys() and all(
        a[k] == b[k] or (isinstance(a[k], float) and math.isnan(a[k]) and math.isnan(b[k]))
        for k in a
    )


class TestRunSeed:
    """A seed's rows, against rows built from the engine and metrics directly."""

    def expected(self, exp, seed, train, test):
        base_train, base_test = run_base_alone(train, test.features, exp.engine.base)
        report = run_plcp(train, test.features, exp.engine)
        truth = train.ground_truth
        rows = []
        for method, train_labels, test_labels, iterations in (
            ("pl-knn", base_train, base_test, 1),
            ("pl-knn-plcp", report.train_predictions, report.test_predictions,
             report.iterations_run),
        ):
            metrics = [float("nan")] * 4
            if truth is not None:
                metrics = [
                    accuracy(test_labels, test.ground_truth),
                    accuracy(train_labels, truth),
                    *correction_metrics(base_train, train_labels, truth),
                ]
            rows.append(dict(zip(cli.RESULT_FIELDS[:-1], [method, seed, *metrics, iterations])))
        trajectory = []
        for it, snap in enumerate(report.trajectories, start=1):
            for i in range(train.n_samples):
                trajectory.append({
                    "seed": seed, "iteration": it, "sample": i, "label": int(snap.labels[i]),
                    "truth_confidence":
                        "" if truth is None else snap.truth_confidence[i],
                    "max_false_positive_confidence":
                        "" if truth is None else snap.max_false_confidence[i],
                })
        return rows, trajectory

    @pytest.mark.parametrize("with_truth", [True, False], ids=["truth", "no-truth"])
    def test_rows_match_engine_and_metrics(self, tmp_path, with_truth):
        exp = replace(experiment(tmp_path, "pl-knn"), emit_trajectories=True)
        train, test = cli._split(exp, 1)
        if not with_truth:
            train, test = (
                PartialLabelDataset(features=d.features, candidates=d.candidates)
                for d in (train, test)
            )
        rows, trajectory = cli.run_seed(exp, 1, (train, test))
        expected_rows, expected_trajectory = self.expected(exp, 1, train, test)
        assert all(row["wall_ms"] > 0 for row in rows)
        rows = without_wall_ms(rows)
        assert len(rows) == 2 and all(map(same_cells, rows, expected_rows))
        if with_truth:
            assert rows[0]["correction_ratio"] == rows[0]["miscorrection_ratio"] == 0.0
        else:
            assert all(math.isnan(row["test_accuracy"]) for row in rows)
        assert trajectory == expected_trajectory

    def test_split_built_when_absent(self, tmp_path):
        exp = experiment(tmp_path, "kernel-ls")
        given = cli.run_seed(exp, 1, cli._split(exp, 1))[0]
        assert without_wall_ms(cli.run_seed(exp, 1)[0]) == without_wall_ms(given)

    def test_base_alone_run_kept_on_the_train_set(self, tmp_path, monkeypatch):
        calls = record_calls(monkeypatch, cli, "run_base_alone")
        exp = experiment(tmp_path, "pl-knn")
        data, base_runs = cli._split(exp, 1), {}
        first = cli.run_seed(exp, 1, data, base_runs)[0]
        alpha_cell = replace(exp, engine=replace(exp.engine, alpha=0.7))
        again = cli.run_seed(alpha_cell, 1, data, base_runs)[0]
        assert len(calls) == 1
        assert again[0] == first[0]
        cli.run_seed(exp, 1, cli._split(exp, 1), {})
        assert len(calls) == 2

    def test_base_alone_run_kept_per_test_set(self, tmp_path):
        # one 150-row train set, two 75-row test sets: each test set's base
        # row is that of its own base-alone run
        spec = SyntheticSpec(n=300, d=3, l=3, flip_q=0.3)
        exp = replace(experiment(tmp_path, "pl-knn"), synthetic=spec)
        train, test = cli._split(exp, 1)
        halves = [
            PartialLabelDataset(test.features[rows], test.candidates[rows], test.ground_truth[rows])
            for rows in (slice(0, 75), slice(75, 150))
        ]
        for half in halves:
            base_row = cli.run_seed(exp, 1, (train, half))[0][0]
            _, base_test = run_base_alone(train, half.features, exp.engine.base)
            assert base_row["test_accuracy"] == accuracy(base_test, half.ground_truth)


class TestSweep:
    def test_degenerate_grid_matches_run(self, tmp_path, monkeypatch):
        # seed 2 fails inside its run, after its split is built
        original = cli.run_seed

        def failing_seed_2(exp, seed, data=None, base_runs=None):
            if seed == 2:
                raise RuntimeError("seed 2 fails")
            return original(exp, seed, data, base_runs)

        monkeypatch.setattr(cli, "run_seed", failing_seed_2)

        def config(out_dir, sweep=""):
            text = RUN_CONFIG.format(
                n=60, max_iter=2, seeds="1,2", out_dir=tmp_path / out_dir, emit="false"
            )
            return write(tmp_path / f"{out_dir}.ini", text + sweep)

        assert main(["run", config("run_out")]) == 1
        # one axis of one value, and an empty [sweep] section: no axis at all
        assert main(["sweep", config("sweep_out", "\n[sweep]\ngamma = 2.0\n")]) == 1
        assert main(["sweep", config("empty_out", "\n[sweep]\n")]) == 1

        def read(name, axis=None):
            """The rows without their wall_ms columns or ``axis``, which must be 2."""
            rows = read_results_csv(tmp_path / name)
            if axis is not None:
                assert all(row.pop(axis) == 2.0 for row in rows)
            return [{k: v for k, v in row.items() if not k.startswith("wall_ms")} for row in rows]

        run_rows = read("run_out/results.csv")
        assert len(run_rows) == 2 and {row["seed"] for row in run_rows} == {1}
        assert read("sweep_out/sweep.csv", "gamma") == read("empty_out/sweep.csv") == run_rows
        run_failures = read("run_out/failures.csv")
        assert run_failures == [{"seed": 2, "error": "RuntimeError: seed 2 fails"}]
        assert read("sweep_out/failures.csv", "gamma") == run_failures
        assert read("empty_out/failures.csv") == run_failures
        run_summary = read("run_out/summary.csv")
        assert [row["method"] for row in run_summary] == ["pl-knn", "pl-knn-plcp"]
        assert read("sweep_out/summary.csv", "gamma") == read("empty_out/summary.csv") == run_summary

    def test_cells_build_no_trajectories(self, tmp_path, monkeypatch):
        calls = record_calls(monkeypatch, cli, "run_seed")
        cfg = write(
            tmp_path / "sweep.ini",
            RUN_CONFIG.format(n=60, max_iter=1, seeds="1,2", out_dir=tmp_path / "out", emit="true")
            + "\n[sweep]\nalpha = 0.3,0.7\n",
        )
        assert main(["sweep", cfg]) == 0
        assert len(calls) == 4
        assert not any(args[0].emit_trajectories for args, _ in calls)
        assert not (tmp_path / "out" / "trajectories.csv").exists()
        # the resolved config still records the INI file's value
        assert "emit_trajectories = true" in (tmp_path / "out" / "resolved_config.ini").read_text()

    def test_temperature_grid(self, tmp_path):
        cfg = write(
            tmp_path / "sweep.ini",
            RUN_CONFIG.format(n=60, max_iter=1, seeds="1", out_dir=tmp_path / "out", emit="false")
            + "\n[sweep]\nk = -5,-1,0.5\n",
        )
        with pytest.warns(UserWarning, match="k=0.5"):
            assert main(["sweep", cfg]) == 0
        rows = read_results_csv(tmp_path / "out" / "sweep.csv")
        assert sorted({r["k"] for r in rows}) == [-5.0, -1.0, 0.5]

    def test_huge_gamma_keeps_metrics_finite(self, tmp_path):
        cfg = write(
            tmp_path / "sweep.ini",
            RUN_CONFIG.format(n=60, max_iter=1, seeds="1", out_dir=tmp_path / "out", emit="false")
            + "\n[sweep]\ngamma = 0,2,1e6\n",
        )
        assert main(["sweep", cfg]) == 0
        rows = read_results_csv(tmp_path / "out" / "sweep.csv")
        big = [r for r in rows if r["gamma"] == 1e6]
        assert big and all(np.isfinite(r["test_accuracy"]) for r in big)

    def test_grid_cap_refused(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "sweep.ini",
            RUN_CONFIG.format(n=60, max_iter=1, seeds="1", out_dir=tmp_path / "out", emit="false")
            + "\n[sweep]\nmax_cells = 3\ngamma = 1,2\nalpha = 0.2,0.5\n",
        )
        message = "sweep grid has 4 cells, above the cap of 3; raise max_cells or shrink the grid"
        with pytest.raises(ValueError, match=message):
            main(["sweep", cfg])
        assert not (tmp_path / "out" / "sweep.csv").exists()
        assert cli.console(["sweep", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"plcp: error: {message}\n" and captured.out == ""

    def test_base_alone_runs_once_per_seed(self, tmp_path, monkeypatch):
        # the base-alone run depends on neither alpha nor gamma
        calls = []
        original = cli.run_base_alone

        def counting(train, test_features, kind):
            calls.append(kind)
            return original(train, test_features, kind)

        monkeypatch.setattr(cli, "run_base_alone", counting)
        cfg = write(
            tmp_path / "sweep.ini",
            RUN_CONFIG.format(n=60, max_iter=1, seeds="1,2", out_dir=tmp_path / "out", emit="false")
            + "\n[sweep]\nalpha = 0.3,0.7\ngamma = 0,2\n",
        )
        assert main(["sweep", cfg]) == 0
        assert len(calls) == 2
        rows = read_results_csv(tmp_path / "out" / "sweep.csv")
        assert len(rows) == 2 * 4 * 2
        base = [r for r in rows if r["method"] == "pl-knn"]
        for seed in (1, 2):
            assert len({r["test_accuracy"] for r in base if r["seed"] == seed}) == 1

    def test_base_alone_runs_once_per_base_config(self, tmp_path, monkeypatch):
        # one split, two neighbour counts: each cell's base row is the
        # base-alone run of its own k, run once for both alpha values
        bases = record_calls(monkeypatch, cli, "run_base_alone")
        cfg = write(
            tmp_path / "sweep.ini",
            RUN_CONFIG.format(n=60, max_iter=1, seeds="1", out_dir=tmp_path / "out", emit="false")
            + "\n[sweep]\nk_neighbors = 3,5\nalpha = 0.3,0.7\n",
        )
        assert main(["sweep", cfg]) == 0
        assert [args[2].k_neighbors for args, _ in bases] == [3, 5]
        exp = parse_experiment_config(cfg)
        train, test = cli._split(exp, 1)
        rows = [r for r in read_results_csv(tmp_path / "out" / "sweep.csv")
                if r["method"] == "pl-knn"]
        assert sorted(r["k_neighbors"] for r in rows) == [3, 3, 5, 5]
        for row in rows:
            kind = replace(exp.engine.base, k_neighbors=row["k_neighbors"])
            base_train, base_test = run_base_alone(train, test.features, kind)
            assert row["test_accuracy"] == accuracy(base_test, test.ground_truth)
            assert row["transductive_accuracy"] == accuracy(base_train, train.ground_truth)

    def test_split_and_base_alone_once_per_seed_and_split(self, tmp_path, monkeypatch):
        splits = record_calls(monkeypatch, cli, "_split")
        bases = record_calls(monkeypatch, cli, "run_base_alone")
        cfg = write(
            tmp_path / "sweep.ini",
            RUN_CONFIG.format(n=60, max_iter=1, seeds="1,2", out_dir=tmp_path / "out", emit="false")
            + "\n[sweep]\ngamma = 0,2\nalpha = 0.3,0.7\nflip_q = 0.2,0.4\n",
        )
        assert main(["sweep", cfg]) == 0
        split_ids = [(args[1], args[0].synthetic.flip_q) for args, _ in splits]
        assert sorted(split_ids) == [(1, 0.2), (1, 0.4), (2, 0.2), (2, 0.4)]
        assert len(bases) == 4
        assert len(read_results_csv(tmp_path / "out" / "sweep.csv")) == 8 * 2 * 2

    @pytest.mark.parametrize(
        "sweep, message",
        [
            ("k_neighbors = 5,2.5", r"\[sweep\] k_neighbors: invalid literal for int\(\) .*'2\.5'"),
            ("k_neighbors = 5.0", r"\[sweep\] k_neighbors: invalid literal for int\(\) .*'5\.0'"),
            ("gamma =", r"\[sweep\] gamma: '' lists no values"),
            ("max_cells = abc\ngamma = 1", r"\[sweep\] max_cells: .*'abc'"),
            ("alpha = 0.5,1.5", r"\[sweep\] alpha = 1\.5: alpha must be in \[0, 1\]"),
            ("gamma = 1,1", r"\[sweep\] gamma: '1,1' repeats a value"),
        ],
        ids=[
            "fractional-int", "int-written-as-float", "no-values", "bad-max-cells",
            "out-of-range", "repeated",
        ],
    )
    def test_bad_axis_value_names_key_before_any_cell(
        self, tmp_path, monkeypatch, sweep, message
    ):
        calls = record_calls(monkeypatch, cli, "run_seed")
        cfg = write(
            tmp_path / "sweep.ini",
            RUN_CONFIG.format(n=60, max_iter=1, seeds="1", out_dir=tmp_path / "out", emit="false")
            + f"\n[sweep]\n{sweep}\n",
        )
        with pytest.raises(ValueError, match=message):
            main(["sweep", cfg])
        assert not calls and not (tmp_path / "out" / "sweep.csv").exists()

    def test_nan_temperature_axis_rejected_before_any_cell(self, tmp_path, monkeypatch):
        calls = record_calls(monkeypatch, cli, "run_seed")
        cfg = write(
            tmp_path / "sweep.ini",
            RUN_CONFIG.format(n=60, max_iter=1, seeds="1", out_dir=tmp_path / "out", emit="false")
            + "\n[sweep]\nk = -1,nan\n",
        )
        with pytest.raises(ValueError, match=r"\[sweep\] k = nan: blur temperature k is NaN"):
            main(["sweep", cfg])
        assert not calls and not (tmp_path / "out" / "sweep.csv").exists()

    def test_unknown_sweep_key_rejected(self, tmp_path):
        cfg = write(
            tmp_path / "sweep.ini",
            RUN_CONFIG.format(n=60, max_iter=1, seeds="1", out_dir=tmp_path / "out", emit="false")
            + "\n[sweep]\ngama = 0,2\n",
        )
        with pytest.raises(ValueError, match=r"\[sweep\] gama"):
            main(["sweep", cfg])

    def test_sweep_without_sweep_section_rejected(self, tmp_path):
        cfg = write(
            tmp_path / "run.ini",
            RUN_CONFIG.format(n=60, max_iter=1, seeds="1", out_dir=tmp_path / "out", emit="false"),
        )
        with pytest.raises(ValueError, match=r"requires a \[sweep\] section"):
            main(["sweep", cfg])


class TestSharedDerivedState:
    """Each train set's sigma, ridge factors and kNN table are built once."""

    @pytest.mark.parametrize("ridge", [0.05, 0.2])
    def test_kernel_ls_seed_builds_one_sigma_gram_and_factor(self, tmp_path, monkeypatch, ridge):
        grams = record_calls(monkeypatch, kernel, "packed_gram")
        factors = record_calls(monkeypatch, kernel, "dpftrf")
        pdists = record_calls(monkeypatch, kernel, "pdist")
        exp = experiment(tmp_path, "kernel-ls")
        partner_cfg = PartnerConfig(kernel=kernel.KernelSpec(ridge=ridge))
        cli.run_seed(replace(exp, engine=replace(exp.engine, partner=partner_cfg)), 1)
        # one system per distinct ridge of base and partner, both Gaussian
        # with one bandwidth; the bandwidth's pdist takes the default
        # metric, the gram's sqeuclidean
        systems = len({kernel.KernelSpec().ridge, ridge})
        sigmas = [args for args, kwargs in pdists if len(args) == 1 and not kwargs]
        assert (len(grams), len(factors), len(sigmas)) == (systems, systems, 1)

    def test_pl_knn_seed_searches_one_fit_path_table(self, tmp_path, monkeypatch):
        tables = record_calls(monkeypatch, base, "neighbour_table")
        cli.run_seed(experiment(tmp_path, "pl-knn"), 1)
        # the base-alone run also searches its test rows' neighbours
        assert (len(fit_path_tables(tables)), len(tables)) == (1, 2)

    def test_sweep_builds_once_per_seed(self, tmp_path, monkeypatch):
        grams = record_calls(monkeypatch, kernel, "packed_gram")
        factors = record_calls(monkeypatch, kernel, "dpftrf")
        tables = record_calls(monkeypatch, base, "neighbour_table")
        cfg = write(
            tmp_path / "sweep.ini",
            RUN_CONFIG.format(n=60, max_iter=1, seeds="1,2", out_dir=tmp_path / "out", emit="false")
            + "\n[sweep]\nalpha = 0.3,0.7\ngamma = 0,2\n",
        )
        assert main(["sweep", cfg]) == 0
        assert (len(grams), len(factors), len(fit_path_tables(tables))) == (2, 2, 2)

    def test_lambda_sweep_builds_once_per_seed_and_ridge(self, tmp_path, monkeypatch):
        grams = record_calls(monkeypatch, kernel, "packed_gram")
        systems = record_calls(monkeypatch, kernel, "ridge_system")
        cfg = write(
            tmp_path / "sweep.ini",
            RUN_CONFIG.format(n=60, max_iter=1, seeds="1,2", out_dir=tmp_path / "out", emit="false")
            + "\n[base]\nkind = kernel-ls\n\n[sweep]\nlambda = 0.05,0.2,0.5\nalpha = 0.3,0.7\n",
        )
        assert main(["sweep", cfg]) == 0
        # the base keeps the INI ridge 0.05, which the first lambda shares
        ridges = Counter(args[1].ridge for args, _ in systems)
        assert ridges == {0.05: 2, 0.2: 2, 0.5: 2}
        assert len(grams) == 6

    def test_no_ridge_system_outlives_its_seed(self, tmp_path, monkeypatch):
        refs, alive_at_build = track_ridge_systems(monkeypatch)
        cli.run_seed(experiment(tmp_path, "kernel-ls"), 1)
        assert refs and all(ref() is None for ref in refs)

        refs.clear()
        alive_at_build.clear()
        cfg = write(
            tmp_path / "sweep.ini",
            RUN_CONFIG.format(n=60, max_iter=1, seeds="1,2,3", out_dir=tmp_path / "out", emit="false")
            + "\n[sweep]\nalpha = 0.3,0.7\n",
        )
        assert main(["sweep", cfg]) == 0
        # one system per seed, and none of an earlier seed alive when it is built
        assert alive_at_build == [0, 0, 0]
        assert all(ref() is None for ref in refs)

    def test_sweep_holds_no_more_systems_than_one_run(self, tmp_path, monkeypatch):
        # a run of a kernel-ls base whose ridge differs from the partner's
        # holds two systems; no sweep cell may keep more alive than that
        refs, alive_at_build = track_ridge_systems(monkeypatch)
        cfg = write(
            tmp_path / "sweep.ini",
            RUN_CONFIG.format(n=60, max_iter=1, seeds="1,2", out_dir=tmp_path / "out", emit="false")
            + "\n[base]\nkind = kernel-ls\n\n[sweep]\n"
            + "lambda = 0.05,0.2,0.5\nalpha = 0.3,0.7\nflip_q = 0.2,0.4\n",
        )
        assert main(["sweep", cfg]) == 0
        # per (seed, split): the shared 0.05 system, then one per other lambda
        assert len(refs) == 2 * 2 * 3
        assert max(alive_at_build) == 1
        assert all(ref() is None for ref in refs)

    def test_sweep_files_stay_cell_major(self, tmp_path):
        # k_neighbors = 40 exceeds the 30 training samples, so those cells fail
        cfg = write(
            tmp_path / "sweep.ini",
            RUN_CONFIG.format(n=60, max_iter=1, seeds="1,2", out_dir=tmp_path / "out", emit="false")
            + "\n[sweep]\nk_neighbors = 40,5\nalpha = 0.3,0.7\n",
        )
        assert main(["sweep", cfg]) == 1
        rows = read_results_csv(tmp_path / "out" / "sweep.csv")
        assert [(r["alpha"], r["k_neighbors"], r["seed"], r["method"]) for r in rows] == [
            (alpha, 5, seed, method)
            for alpha in (0.3, 0.7)
            for seed in (1, 2)
            for method in ("pl-knn", "pl-knn-plcp")
        ]
        failures = read_results_csv(tmp_path / "out" / "failures.csv")
        assert [(r["alpha"], r["k_neighbors"], r["seed"]) for r in failures] == [
            (alpha, 40, seed) for alpha in (0.3, 0.7) for seed in (1, 2)
        ]
        # summary.csv: the cells' axis values, then one summary per cell that ran
        summary = read_results_csv(tmp_path / "out" / "summary.csv")
        assert list(summary[0]) == ["alpha", "k_neighbors", *cli.SUMMARY_FIELDS]
        assert summary == [
            {"alpha": alpha, "k_neighbors": 5, **entry}
            for alpha in (0.3, 0.7)
            for entry in cli.summarize([r for r in rows if r["alpha"] == alpha])
        ]
        # the integer axis is written as its INI key writes it, 5 and not 5.0
        for name, text in (("sweep.csv", "5"), ("summary.csv", "5"), ("failures.csv", "40")):
            with open(tmp_path / "out" / name, newline="") as fh:
                assert {row["k_neighbors"] for row in csv.DictReader(fh)} == {text}

    def test_integer_axis_reads_back_as_int(self, tmp_path):
        # k_neighbors parses as its INI key does, so sweep.csv, summary.csv
        # and failures.csv read it back as the int that was written
        cfg = write(
            tmp_path / "sweep.ini",
            RUN_CONFIG.format(n=60, max_iter=1, seeds="1", out_dir=tmp_path / "out", emit="false")
            + "\n[sweep]\nk_neighbors = 40,3,5\n",
        )
        assert main(["sweep", cfg]) == 1
        read = {}
        for name in ("sweep.csv", "summary.csv", "failures.csv"):
            rows = read_results_csv(tmp_path / "out" / name)
            read[name] = [(type(r["k_neighbors"]), r["k_neighbors"]) for r in rows]
        assert read == {
            "sweep.csv": [(int, 3)] * 2 + [(int, 5)] * 2,
            "summary.csv": [(int, 3)] * 2 + [(int, 5)] * 2,
            "failures.csv": [(int, 40)],
        }


class TestInspect:
    def test_prints_stats(self, tmp_path, capsys):
        spec = write(
            tmp_path / "spec.ini", GEN_SPEC.format(flip_q=0.5, out_dir=tmp_path / "d")
        )
        main(["generate", spec])
        code = main(
            [
                "inspect",
                str(tmp_path / "d" / "features.csv"),
                str(tmp_path / "d" / "candidates.csv"),
                "--truth",
                str(tmp_path / "d" / "truth.csv"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "samples: 100" in out
        assert "labels: 3" in out
        assert "avg candidates" in out


class TestConfigPlumbing:
    def test_derive_streams_fixed(self):
        assert derive_streams(7) == derive_streams(7)
        assert derive_streams(7) != derive_streams(8)

    def test_derive_streams_are_the_first_spawned_children(self):
        children = np.random.SeedSequence(7).spawn(3)[:2]
        assert derive_streams(7) == tuple(int(c.generate_state(1)[0]) for c in children)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_experiment_config(tmp_path / "missing.ini")

    def test_full_config_parsed(self, tmp_path):
        cfg = write(tmp_path / "full.ini", FULL_CONFIG)
        exp = parse_experiment_config(cfg)
        assert exp.synthetic.n == 40
        assert exp.engine.alpha == 0.4
        assert exp.engine.base.kind == "kernel-ls"
        assert exp.engine.partner.kernel.ridge == 0.1
        assert exp.engine.partner.kernel.sigma == 2.5
        assert exp.seeds == (3, 4)
        assert exp.train_frac == 0.6

    def test_resolved_config_text(self, tmp_path):
        exp = parse_experiment_config(write(tmp_path / "full.ini", FULL_CONFIG))
        text = io.StringIO()
        _resolved_ini(exp).write(text)
        assert text.getvalue() == FULL_RESOLVED

    @pytest.mark.parametrize("config", [FULL_CONFIG, FILES_CONFIG], ids=["synthetic", "files"])
    def test_resolved_config_parses_back(self, tmp_path, config):
        exp = parse_experiment_config(write(tmp_path / "a.ini", config))
        with open(tmp_path / "resolved.ini", "w") as fh:
            _resolved_ini(exp).write(fh)
        assert parse_experiment_config(tmp_path / "resolved.ini") == exp

    def test_files_source_needs_candidates(self, tmp_path):
        cfg = write(
            tmp_path / "a.ini", "[dataset]\nsource = files\nfeatures = f.csv\n"
        )
        with pytest.raises(ValueError, match="dataset file paths"):
            parse_experiment_config(cfg)


class TestApplyAxis:
    """``sweep_cells`` sets each axis's field to the value its INI key parses."""

    @pytest.fixture
    def exp(self, tmp_path):
        return parse_experiment_config(write(tmp_path / "full.ini", FULL_CONFIG))

    @pytest.mark.parametrize(
        "axis, value, read",
        [
            ("lambda", 0.3, lambda e: e.engine.partner.kernel.ridge),
            ("alpha", 0.7, lambda e: e.engine.alpha),
            ("gamma", 8.0, lambda e: e.engine.partner.gamma),
            ("k", -4.0, lambda e: e.engine.k),
            ("flip_q", 0.45, lambda e: e.synthetic.flip_q),
            ("k_neighbors", 4, lambda e: e.engine.base.k_neighbors),
        ],
    )
    def test_axis_sets_its_field(self, exp, axis, value, read):
        [(cell_id, cell)] = sweep_cells(exp, {axis: [value]})
        assert cell_id == {axis: value} and read(cell) == value
        assert type(read(cell)) is type(read(exp)) is SWEEP_AXES[axis][1]
        assert sweep_cells(cell, {axis: [read(exp)]}) == [({axis: read(exp)}, exp)]

    def test_axis_parses_as_its_ini_key(self):
        convs = {
            path: key.conv
            for key in cli.DATASET_KEYS["synthetic"] + cli.CONFIG_KEYS
            for path in key.paths
        }
        assert all(conv is convs[path] for path, conv in SWEEP_AXES.values())

    def test_lambda_leaves_base_ridge(self, exp):
        [(_, cell)] = sweep_cells(exp, {"lambda": [0.3]})
        assert cell.engine.partner.kernel.ridge == 0.3
        assert cell.engine.base.kernel.ridge == exp.engine.base.kernel.ridge == 0.1

    def test_flip_q_needs_synthetic_source(self, tmp_path):
        exp = parse_experiment_config(write(tmp_path / "files.ini", FILES_CONFIG))
        with pytest.raises(ValueError, match="synthetic dataset source"):
            sweep_cells(exp, {"flip_q": [0.2]})


class TestIniTypos:
    def parse(self, tmp_path, text):
        return parse_experiment_config(write(tmp_path / "a.ini", text))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"\[partner\] gama: unknown key"):
            self.parse(tmp_path, "[partner]\ngama = 8\n")

    def test_key_of_the_other_dataset_source_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"\[dataset\] n: unknown key"):
            self.parse(
                tmp_path,
                "[dataset]\nsource = files\nfeatures = f.csv\ncandidates = c.csv\nn = 5\n",
            )

    @pytest.mark.parametrize("text", ["ture", "2", ""])
    def test_bad_boolean_rejected(self, tmp_path, text):
        with pytest.raises(ValueError, match=r"\[base\] binarize: .*not 1/true"):
            self.parse(tmp_path, f"[base]\nbinarize = {text}\n")

    @pytest.mark.parametrize(
        "text, value", [("1", True), ("Yes", True), ("on", True), ("0", False), ("off", False)]
    )
    def test_boolean_spellings(self, tmp_path, text, value):
        assert self.parse(tmp_path, f"[base]\nbinarize = {text}\n").engine.base.binarize is value

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("kernel", "sigma", "nan"),
            ("kernel", "sigma", "inf"),
            ("partner", "ridge", "nan"),
            ("partner", "ridge", "inf"),
            ("partner", "gamma", "nan"),
            ("partner", "gamma", "inf"),
            ("engine", "k", "nan"),
            ("dataset", "cluster_spread", "nan"),
            ("partner", "inner_tol", "nan"),
            ("partner", "inner_tol", "inf"),
            ("partner", "inner_tol", "-1"),
        ],
    )
    def test_non_finite_value_rejected(self, tmp_path, section, key, value):
        with pytest.raises(ValueError, match=rf"\b{key} (must be .* finite|is NaN)"):
            self.parse(tmp_path, f"[{section}]\n{key} = {value}\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("train_frac = 1.5", "train_frac must be strictly between 0 and 1"),
            ("seeds = -1,2", "seeds must be distinct and non-negative"),
            ("seeds = 1,1", "seeds must be distinct and non-negative"),
            ("seeds = ", "at least one seed is required"),
        ],
        ids=["train-frac", "negative-seed", "repeated-seed", "no-seed"],
    )
    def test_run_setting_that_fails_later_rejected(self, tmp_path, text, message):
        with pytest.raises(ValueError, match=message):
            self.parse(tmp_path, f"[run]\n{text}\n")

    def test_generate_negative_seed_rejected(self, tmp_path):
        spec = write(tmp_path / "spec.ini", "[synthetic]\nseed = -1\n")
        with pytest.raises(ValueError, match="seed must be non-negative"):
            main(["generate", spec])

    def test_minus_infinity_temperature_kept(self, tmp_path):
        assert self.parse(tmp_path, "[engine]\nk = -inf\n").engine.k == -math.inf

    def test_unknown_dataset_source_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown dataset source 'sql'"):
            self.parse(tmp_path, "[dataset]\nsource = sql\n")

    def test_bad_number_names_its_key(self, tmp_path):
        with pytest.raises(ValueError, match=r"\[engine\] max_iter"):
            self.parse(tmp_path, "[engine]\nmax_iter = three\n")

    def test_source_and_sweep_keys_stay_valid(self, tmp_path):
        exp = self.parse(
            tmp_path, "[dataset]\nsource = synthetic\n[sweep]\nmax_cells = 4\nfoo = 1\n"
        )
        assert exp.synthetic is not None

    def test_unknown_section_rejected_before_any_run(self, tmp_path):
        out_dir = tmp_path / "out"
        config = RUN_CONFIG.format(n=60, max_iter=1, seeds="1", out_dir=out_dir, emit="false")
        cfg = write(tmp_path / "a.ini", config + "[partnr]\ngamma = 5\n")
        with pytest.raises(ValueError, match=r"\[partnr\]: unknown section"):
            main(["run", cfg])
        assert not out_dir.exists()

    def test_unknown_section_beside_sweep_rejected_before_any_cell(self, tmp_path):
        out_dir = tmp_path / "out"
        config = RUN_CONFIG.format(n=60, max_iter=1, seeds="1", out_dir=out_dir, emit="false")
        cfg = write(
            tmp_path / "a.ini", config + "[sweep]\ngamma = 0,2\n[sweeep]\nalpha = 0.3\n"
        )
        with pytest.raises(ValueError, match=r"\[sweeep\]: unknown section"):
            main(["sweep", cfg])
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "text, message",
        [("[output]\ndri = x\n", r"\[output\] dri: unknown key"),
         ("[synthetc]\nn = 20\n", r"\[synthetc\]: unknown section")],
        ids=["output-key", "section"],
    )
    def test_generate_typo_rejected_before_writing(self, tmp_path, monkeypatch, text, message):
        monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        spec = write(tmp_path / "spec.ini", "[synthetic]\nn = 20\n" + text)
        with pytest.raises(ValueError, match=message):
            main(["generate", spec])
        assert [path.name for path in tmp_path.iterdir()] == ["spec.ini"]

    def test_generate_output_dir_stays_valid(self, tmp_path):
        spec = write(tmp_path / "spec.ini", GEN_SPEC.format(flip_q=0.3, out_dir=tmp_path / "d"))
        assert main(["generate", spec]) == 0
        assert (tmp_path / "d" / "features.csv").exists()

    def test_generate_unknown_key_rejected(self, tmp_path):
        spec = write(tmp_path / "spec.ini", "[synthetic]\nflipq = 0.3\n")
        with pytest.raises(ValueError, match=r"\[synthetic\] flipq: unknown key"):
            main(["generate", spec])


class TestConsoleErrors:
    """The ``plcp`` command reports bad input in one line, not a traceback."""

    def test_empty_csv_is_one_line_and_exit_2(self, tmp_path):
        for name in ("e1.csv", "e2.csv"):
            write(tmp_path / name, "")
        # the module entry point, as a shell runs it
        package_root = Path(cli.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(package_root)}
        done = subprocess.run(
            [sys.executable, "-m", "plcp.cli", "inspect", "e1.csv", "e2.csv"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert done.returncode == 2 and "Traceback" not in done.stderr
        assert done.stderr == "plcp: error: empty features CSV e1.csv: no rows\n"
        assert done.stdout == ""

    def test_missing_config_is_one_line_and_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.ini"
        assert cli.console(["run", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"plcp: error: config file not found: {missing}\n"
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("text, reason", [
        ("seeds = 1\n", "no section headers"),
        ("[run]\nseeds = 1\nseeds = 2\n", "option 'seeds' in section 'run' already exists"),
        ("[run]\nseeds\n", "[line 2]: 'seeds"),
    ], ids=["no-section", "duplicate-key", "key-without-value"])
    def test_malformed_config_is_one_line_and_exit_2(self, tmp_path, capsys, text, reason):
        path = write(tmp_path / "bad.ini", text)
        for command in ("run", "generate"):
            assert cli.console([command, path]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(f"plcp: error: malformed config file {path}: ")
            assert reason in captured.err and captured.err.count("\n") == 1
            assert captured.out == ""

    def test_main_still_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="config file not found"):
            main(["run", str(tmp_path / "missing.ini")])
