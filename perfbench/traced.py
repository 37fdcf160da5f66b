"""Traced in-process run of one ``repro`` CLI command, split by layer.

Usage (from the repository root)::

    PYTHONPATH=src python3 perfbench/traced.py serve --requests 60 --format json

The arguments are ``repro.cli`` arguments.  This script imports
``repro.cli``, parses them and calls the command's handler in this process,
as ``python -m repro.cli`` would.  Before the handler runs it swaps the public
functions each layer exposes for wrappers that time every call, so the spans
come from this file and nothing under ``src/`` changes.  It prints one JSON
object: per span name the call count, total and self nanoseconds (self time is
the span minus its child spans), a few counters, the wrapped entry points it
could not find, and the handler's stdout.
"""

from __future__ import annotations

import functools
import importlib
import io
import json
import sys
import time
from contextlib import contextmanager, redirect_stdout


class Tracer:
    """Aggregates nested spans by name into ``[calls, total_ns, self_ns]``."""

    def __init__(self) -> None:
        # Each open span is [start_ns, ns covered by its children]; the
        # bottom frame collects the top-level spans.
        self._stack = [[0, 0]]
        self.spans: dict = {}
        self.counters: dict = {}

    def begin(self) -> None:
        self._stack.append([time.perf_counter_ns(), 0])

    def end(self, name: str) -> None:
        start, children = self._stack.pop()
        duration = time.perf_counter_ns() - start
        self._stack[-1][1] += duration
        record = self.spans.setdefault(name, [0, 0, 0])
        record[0] += 1
        record[1] += duration
        record[2] += duration - children

    @contextmanager
    def span(self, name: str):
        self.begin()
        try:
            yield
        finally:
            self.end(name)

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


def _timed(tracer: Tracer, name: str, fn, counter=None):
    """Wrap ``fn`` in a span; ``counter(result)`` adds to counter ``name``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.begin()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(name)
        if counter is not None:
            tracer.count(name, counter(result))
        return result

    return wrapper


def _timed_estimate(tracer: Tracer, estimate):
    """Wrap ``TimingCache.estimate``: a call is a miss when ``misses`` rose."""

    @functools.wraps(estimate)
    def wrapper(cache, *args, **kwargs):
        misses = cache.misses
        tracer.begin()
        try:
            return estimate(cache, *args, **kwargs)
        finally:
            tracer.end("timing.miss" if cache.misses > misses else "timing.hit")

    return wrapper


def _patch_function(module_name: str, attr: str, make_wrapper) -> bool:
    """Replace a function in its module and in every ``repro`` module bound to it.

    False when the module is imported but no longer has the function.
    """
    module = sys.modules.get(module_name)
    if module is None:  # this command never imports the layer
        return True
    original = getattr(module, attr, None)
    if original is None:
        return False
    wrapped = make_wrapper(original)
    for name, other in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapped)
    return True


def _patch_method(module_name: str, class_name: str, attr: str, make_wrapper) -> bool:
    """Replace a method on its class; False when the class no longer has it."""
    module = sys.modules.get(module_name)
    if module is None:
        return True
    cls = getattr(module, class_name, None)
    descriptor = vars(cls).get(attr) if cls is not None else None
    if descriptor is None:
        return False
    if isinstance(descriptor, classmethod):
        setattr(cls, attr, classmethod(make_wrapper(descriptor.__func__)))
    else:
        setattr(cls, attr, make_wrapper(descriptor))
    return True


#: Public ``CollectiveCostModel`` methods that price one collective.
COLLECTIVES = ("ring_allreduce_seconds", "all_gather_seconds", "point_to_point_seconds",
               "multicast_seconds", "gather_seconds")


def install_spans(tracer: Tracer) -> list:
    """Wrap each layer's public entry points; return the targets not found.

    A missing target (renamed or removed) leaves its layer's metrics at 0
    instead of failing the run.
    """

    def timed(name, counter=None):
        return lambda fn: _timed(tracer, name, fn, counter)

    def sampled(points):
        # By node count, so the caller can tell which points --parallel keeps.
        for point in points:
            tracer.count(f"explorer.sampled.nodes{point.num_nodes}", 1)
        return len(points)

    functions = [
        ("repro.workloads.registry", "workload_graph_by_name", timed("workloads")),
        ("repro.serve.trace", "llm_tenants", timed("workloads")),
        ("repro.serve.trace", "default_tenants", timed("workloads")),
        ("repro.parallel.partitioner", "plan_parallel", timed("parallel.plan")),
        ("repro.serve.trace", "poisson_trace", timed("trace.gen", len)),
        ("repro.serve.trace", "bursty_trace", timed("trace.gen", len)),
        # ServeSimulator.service_profile is a memo lookup; _service_profile
        # is the estimate behind it (also what the pool workers of --jobs call).
        ("repro.serve.simulator", "_service_profile", timed("service.profile")),
        ("repro.analysis.reporting", "render_csv", timed("report.render")),
    ]
    methods = [
        ("repro.core.explorer", "DesignSpaceExplorer", "sample",
         timed("explorer.sample", sampled)),
        ("repro.core.explorer", "DesignSpaceExplorer", "explore_graph", timed("explorer", len)),
        ("repro.core.perf", "TimingCache", "estimate", lambda fn: _timed_estimate(tracer, fn)),
        *(("repro.parallel.collective", "CollectiveCostModel", method,
           timed("parallel.collective")) for method in COLLECTIVES),
        ("repro.serve.simulator", "ServeSimulator", "suggest_rates",
         timed("service.suggest_rates")),
        ("repro.serve.simulator", "ServeSimulator", "run", timed("engine")),
        ("repro.serve.report", "ServeReport", "to_json", timed("report.render")),
        ("repro.serve.report", "ServeReport", "render", timed("report.render")),
    ]
    missing = [f"{module}.{attr}" for module, attr, make in functions
               if not _patch_function(module, attr, make)]
    return missing + [f"{module}.{cls}.{attr}" for module, cls, attr, make in methods
                      if not _patch_method(module, cls, attr, make)]


def lazy_modules(argv) -> list:
    """Modules the command's handler imports on first use."""
    modules = ["repro.serve"] if argv[:1] == ["serve"] else []
    if "--parallel" in argv:
        modules.append("repro.parallel")
    return modules


def main(argv) -> int:
    tracer = Tracer()
    with tracer.span("cli.import"):
        cli = importlib.import_module("repro.cli")
    with tracer.span("cli.parse"):
        args = cli.build_parser().parse_args(argv)
    # Imported before the spans go in, so that their functions get wrapped.
    with tracer.span("cli.lazy_import"):
        for module in lazy_modules(argv):
            importlib.import_module(module)
    missing = install_spans(tracer)
    stdout = io.StringIO()
    with tracer.span("cli.handler"), redirect_stdout(stdout):
        status = args.handler(args)
    json.dump({"status": status, "spans": tracer.spans, "counters": tracer.counters,
               "missing": missing, "stdout": stdout.getvalue()}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
