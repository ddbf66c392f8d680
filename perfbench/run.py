"""Benchmark of plcp: one workload per process, its result as one JSON line.

    python3 perfbench/run.py --workload knn-n4000 --seed 1 --seconds 30 --trace 0
    python3 -m pytest perfbench/test_smoke.py   # the benchmark's own smoke test

Workloads: knn-n4000, kls-n4000, sweep-l30 (see ``workloads.py``). The
package measured is the one under ``src/`` next to this directory. Every
run first executes the workload's timed section once untimed, to warm up.
With ``--trace 0`` the section then runs as often as ``--seconds`` allows
and the end-to-end metrics are reported; ``--trace 1`` runs it once
untraced and once traced and reports the per-layer metrics. The last line
of standard output is the result object; the lines before it name each
metric with its unit and sample count. A full record (environment,
workload parameters, prediction digests, spans) is written to
``perfbench/results/``.

BLAS is pinned to one thread and all load comes from this one process.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
# timed passes per run, even when ``--seconds`` runs out first
MIN_PASSES = 3
# sample count of the tiny problem whose cold start setup_s times
SETUP_N = 200
# share of the traced wall by which the summed layer self times may miss it
SELF_COVER_TOL = 0.05

# fresh interpreter -> import plcp -> first run_plcp on a tiny problem
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import plcp
spec = plcp.SyntheticSpec(n=int(sys.argv[2]), d=8, l=5, flip_q=0.5, seed=int(sys.argv[3]))
train, test = plcp.split(plcp.generate_synthetic(spec), train_frac=0.5, seed=int(sys.argv[3]))
plcp.run_plcp(train, test.features, plcp.EngineConfig())
"""

END_TO_END = {
    "wall_s": "s",
    "plcp_fit_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "test_accuracy": "fraction",
    "transductive_accuracy": "fraction",
}
# reported with the end-to-end metrics but not gated: they can be exactly 0
# and vary far more from seed to seed than any bound allows
REPORTED_ONLY = {"correction_ratio": "fraction", "miscorrection_ratio": "fraction"}

# per-layer metric -> the span names it sums
LAYERS = {
    "kernel.kkt_solve": ("kernel.kkt_solve",),
    "kernel.predict": ("kernel.predict", "kernel.training_output"),
    "kernel.gram_matrix": ("kernel.gram_matrix",),
    "kernel.cross_matrix": ("kernel.cross_matrix",),
    "kernel.resolve_sigma": ("kernel.resolve_sigma",),
    "partner.fit_partner": ("partner.fit_partner",),
    "partner.predict_labels": ("partner.predict_labels", "partner.partner_modeling_output"),
    "qp.solve_matrix": ("qp.solve_matrix",),
    "base.fit_predict_base": ("base.fit_predict_base",),
    "base.query_outputs": ("base.query_outputs",),
    "core.blend": ("core.update_labeling_confidence", "core.update_noncandidate_confidence"),
    "engine.run_plcp": ("engine.run_plcp",),
    "engine.run_base_alone": ("engine.run_base_alone",),
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    from spans import COUNTERS, MODULES

    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update({f"{name}.{count}": "count" for name, (count, _) in COUNTERS.items()})
    units.update({f"{module}.self_s": "s" for module in MODULES})
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count"})
    return units


def prepare() -> None:
    """Pin BLAS to one thread and put the checkout's package first on the path.

    Must run before numpy is imported for the thread pin to take effect.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("PLCP_OUTPUT_DIR", None)
    sys.path.insert(0, str(SRC))


def measure_setup(seed: int) -> list[float]:
    """Wall seconds of ``SETUP_REPEATS`` cold starts, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(SETUP_N), str(seed)],
            check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def _blas_threads(module) -> int | None:
    """Threads of the OpenBLAS bundled in ``module``'s wheel, when it can be asked."""
    libs = Path(module.__file__).parent.parent / f"{module.__name__}.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                return getter()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor()


def _git_sha() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    for module in (numpy, scipy):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[module.__name__] = {
            "vendor": info.get("name"), "version": info.get("version"),
            "threads": _blas_threads(module),
        }
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


def _check_passes(workload, passes) -> tuple[int, int, list[str]]:
    """Fits attempted and failed over all passes, and what failed.

    A fit fails when it raised, failed an output check, or predicted other
    labels than the same fit did in the first pass.
    """
    attempted = failed = 0
    problems = []
    reference = [fit.digests() for fit in passes[0].fits]
    for index, run in enumerate(passes):
        fit_problems = run.fit_problems()
        for i, (fit, found) in enumerate(zip(run.fits, fit_problems)):
            if i < len(reference) and fit.digests() != reference[i]:
                found.append("predictions differ from the first pass")
        attempted += workload.fits
        failed += workload.fits - sum(not found for found in fit_problems)
        problems += [f"pass {index}: {error}" for error in run.errors]
        if len(run.fits) != len(run.rows):
            problems.append(f"pass {index}: {len(run.fits)} fits, {len(run.rows)} result rows")
        problems += [
            f"pass {index} fit {i}: {p}" for i, found in enumerate(fit_problems) for p in found
        ]
    return attempted, failed, problems


def _fit_records(passes) -> list[dict]:
    records = []
    for index, run in enumerate(passes):
        for i, fit in enumerate(run.fits):
            train_sha, test_sha = fit.digests()
            records.append({
                "pass": index, "fit": i, "plcp_fit_s": fit.seconds,
                "train_sha256": train_sha, "test_sha256": test_sha,
            })
    return records


def _fresh(workdir: Path) -> Path:
    return Path(tempfile.mkdtemp(dir=workdir))


def run_timed(workload, seed: int, seconds: float, workdir: Path) -> tuple[dict, dict]:
    """End-to-end metrics: the timed section repeated while ``seconds`` allow."""
    from workloads import QUALITY, run_pass

    setup = measure_setup(seed)
    # the first full-size pass runs about 1 s slower on n4000 (page faults on
    # fresh n x n arrays), so it warms up and is checked but not timed
    warm = run_pass(workload, seed, _fresh(workdir))
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start + passes[-1].wall_s <= seconds:
        passes.append(run_pass(workload, seed, _fresh(workdir)))
    attempted, failed, problems = _check_passes(workload, [warm] + passes)
    # other tenants of a shared machine only ever add time (steal, cache and
    # memory contention; about +-5% per pass here), so each time is the best
    # over the timed passes: of the whole section, and of each of its fits
    best_fit_s = [min(times) for times in zip(*([f.seconds for f in run.fits] for run in passes))]
    n_rows = len(passes[0].rows)
    values = {
        "wall_s": min(run.wall_s for run in passes),
        "plcp_fit_s": statistics.median(best_fit_s) if best_fit_s else float("nan"),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **passes[0].quality(),
    }
    samples = {
        "wall_s": f"best of {len(passes)} passes",
        "plcp_fit_s": f"median of {len(best_fit_s)} fits, each best of {len(passes)} passes",
        "setup_s": f"median of {len(setup)} cold starts",
        "peak_rss_mb": "1 process",
        **{name: f"mean of {n_rows} fits" for name in QUALITY},
    }
    details = {
        "attempted": attempted, "failed": failed, "problems": problems, "samples": samples,
        "pass_wall_s": [run.wall_s for run in passes], "setup_runs_s": setup,
        "fits": _fit_records([warm] + passes),
    }
    return values, details


def run_traced(workload, seed: int, workdir: Path) -> tuple[dict, dict]:
    """Per-layer metrics: one untraced and one traced run of the timed section."""
    from spans import COUNTERS, MODULES, Tracer, span_totals
    from workloads import run_pass

    warm = run_pass(workload, seed, _fresh(workdir))
    plain = run_pass(workload, seed, _fresh(workdir))
    tracer = Tracer()
    traced = run_pass(workload, seed, _fresh(workdir), tracer=tracer)
    attempted, failed, problems = _check_passes(workload, [warm, plain, traced])
    if plain.quality() != traced.quality():
        problems.append("quality metrics differ between the untraced and the traced run")

    totals = span_totals(tracer.spans)
    values = {}
    for layer, names in LAYERS.items():
        # a call into the layer is a span of the layer not nested in another one
        values[f"{layer}.calls"] = sum(
            name in names and (parent < 0 or tracer.spans[parent][0] not in names)
            for name, _, _, parent, _ in tracer.spans
        )
        values[f"{layer}.self_s"] = sum(totals[name]["self_s"] for name in names if name in totals)
    for name, (count, _) in COUNTERS.items():
        values[f"{name}.{count}"] = totals[name]["count"] if name in totals else 0
    for module in MODULES:
        values[f"{module}.self_s"] = sum(
            entry["self_s"] for name, entry in totals.items() if name.startswith(module + ".")
        )
    values["trace.wall_s"] = traced.wall_s
    values["trace.overhead_s"] = traced.wall_s - plain.wall_s
    values["trace.spans"] = len(tracer.spans)
    covered = sum(values[f"{module}.self_s"] for module in MODULES)
    if abs(covered - traced.wall_s) > SELF_COVER_TOL * traced.wall_s:
        problems.append(f"layer self times cover {covered:.4f} s of {traced.wall_s:.4f} s traced")
    details = {
        "attempted": attempted, "failed": failed, "problems": problems,
        "samples": {name: "1 traced pass" for name in values},
        "untraced_wall_s": plain.wall_s, "self_covered_s": covered,
        "quality": traced.quality(), "fits": _fit_records([warm, plain, traced]),
        "span_totals": totals, "spans": tracer.spans,
    }
    return values, details


def benchmark(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """The result object of one benchmark run and the full record behind it."""
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="work-") as tmp:
        if trace:
            values, details = run_traced(workload, seed, Path(tmp))
            units = per_layer_units()
        else:
            values, details = run_timed(workload, seed, seconds, Path(tmp))
            units = END_TO_END
    result = {
        "correct": details["failed"] == 0 and not details["problems"],
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": workload.name, "why": workload.why, "params": workload.params(),
        "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(), "values": values, "result": result, **details,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "plcp" / "__init__.py").is_file():
        print(f"error: no plcp package under {SRC}", file=sys.stderr)
        return 2
    prepare()
    import plcp

    if Path(plcp.__file__).resolve().parent != SRC / "plcp":
        print(f"error: imported plcp from {plcp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result, record = benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))

    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    shown = per_layer_units() if args.trace else {**END_TO_END, **REPORTED_ONLY}
    for name, unit in shown.items():
        print(f"{name} = {record['values'][name]!r} {unit} ({record['samples'][name]})")
    print(f"failed fits: {record['failed']} of {record['attempted']}; record: {path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
