"""Outside-in layer trace of the ``plcp`` package.

A :class:`Tracer` replaces every public function of every ``plcp`` module
with a timing wrapper while it is active. The wrapper is installed at each
module attribute that holds the function, so a caller that bound it by name
(``cli`` does ``from .engine import run_plcp``; ``engine`` does
``from .core import update_labeling_confidence``) reaches the wrapper just
like a caller that looks it up on its module (``partner`` calls
``kernel.kkt_solve``). No file of the package changes.

Spans are kept in memory as ``[name, start, end, parent, count]``; a span's
self time is its duration minus the durations of its direct children. The
calls are single-threaded and strictly nested, so the self times of all
spans add up to the duration of the root spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = (
    "base", "blur", "cli", "core", "data", "engine", "kernel", "metrics", "partner", "qp",
)

# work counts read from a traced call: span name -> (count name, reader)
COUNTERS = {
    "qp.solve_matrix": ("rows", lambda args, result: len(args[0])),
    "partner.fit_partner": ("inner_iters", lambda args, result: len(result.objective_trace)),
    "engine.run_plcp": ("rounds", lambda args, result: result.iterations_run),
}


class Tracer:
    """Context manager that records a span for every call into ``plcp``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter[1](args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module(f"plcp.{name}") for name in MODULES]
        wrappers = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    wrappers[id(value)] = (value, self._wrap(f"{short}.{attr}", value))
        for namespace in modules + [importlib.import_module("plcp")]:
            for attr, value in list(vars(namespace).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((namespace, attr, value))
                    setattr(namespace, attr, entry[1])
        return self

    def __exit__(self, *exc_info) -> None:
        for namespace, attr, value in reversed(self._patched):
            setattr(namespace, attr, value)
        self._patched.clear()


def span_totals(spans: list[list]) -> dict[str, dict]:
    """Per span name: call count, total and self seconds, summed work count."""
    child_s = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    totals: dict[str, dict] = {}
    for index, (name, start, end, _, count) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_s[index]
        if count is not None:
            entry["count"] += count
    return totals
