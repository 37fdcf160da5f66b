"""Cold end-to-end benchmark of the ``repro`` CLI, with a traced per-layer split.

Usage (from the repository root; nothing to build)::

    python3 perfbench/run.py --workload serve_step --seed 0 --seconds 25 --trace 0

``--trace 0`` times the workload the way a user runs it: each sample is a
fresh ``python -m repro.cli ...`` process, import included.  It reports
``wall_s`` (median), ``items_per_s``, ``setup_s`` (median of cold processes
that import ``repro.cli`` and parse the arguments), ``peak_rss_mb`` and
``success_rate``.  ``--trace 1`` alternates those untraced runs with traced
in-process runs (``traced.py``) and reports self time per layer, reconciled to
the traced wall clock by an ``unattributed_s`` residual, and the tracing
overhead against the untraced wall clock.

Every output is checked (``cases.py``) and must be byte-identical across the
run; for the default seed it must match ``digests.json``.  The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from cases import DEFAULT_SEED, WORKLOADS, Workload, check_output

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 60.0
SETUP_CODE = ("import sys\nfrom repro.cli import build_parser\n"
              "build_parser().parse_args(sys.argv[1:])")


@dataclass
class Child:
    status: int
    wall_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


def run_child(argv: List[str], env: dict) -> Child:
    """Run one process to completion; wall clock and its own peak RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {}

    def drain(key, pipe):
        chunks[key] = pipe.read()

    readers = [threading.Thread(target=drain, args=(key, pipe))
               for key, pipe in (("out", proc.stdout), ("err", proc.stderr))]
    for reader in readers:
        reader.start()
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        # wait4 reaps the child and returns its own rusage, which
        # Popen.wait cannot give.
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for reader in readers:
        reader.join()
    proc.stdout.close()
    proc.stderr.close()
    # Linux reports ru_maxrss in KiB.
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024, chunks["out"], chunks["err"])


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Run:
    """One benchmark run of one workload: invocations, failures and checks."""

    def __init__(self, workload: Workload, seed: int, tiny: bool) -> None:
        self.workload = workload
        self.cli_args = workload.cli_args(seed, tiny)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failures: List[str] = []
        recorded = json.loads((BENCH_DIR / "digests.json").read_text())
        #: Every stdout of the run must have this digest; the first output
        #: sets it unless one is recorded for this seed and size.
        self.digest = recorded.get(workload.name) if seed == DEFAULT_SEED and not tiny else None
        #: Trace size (serve) or design points kept (explore), from the
        #: traced run's counters.
        self.expected: Optional[int] = None
        self.items = 0

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAILED {self.workload.name}: {message}", file=sys.stderr)

    def invoke(self, argv: List[str]) -> Optional[Child]:
        """Run a child; a non-zero exit counts as a failed invocation."""
        self.attempted += 1
        child = run_child([sys.executable, *argv], self.env)
        if child.status != 0:
            tail = child.stderr.decode(errors="replace").strip().splitlines()[-3:]
            self.fail(f"exit {child.status} from {' '.join(argv[:3])} ...: {' | '.join(tail)}")
            return None
        return child

    def check(self, stdout: bytes, problems: List[str]) -> bool:
        """Check one output; counts the invocation as failed if it is wrong."""
        if self.digest is None:
            self.digest = digest(stdout)
        elif digest(stdout) != self.digest:
            problems.append(f"stdout digest {digest(stdout)[:16]} != {self.digest[:16]}")
        items, found = check_output(self.workload, stdout.decode(), self.expected)
        problems += found
        self.items = items
        if problems:
            self.fail("; ".join(problems[:5]))
            return False
        return True

    def cli(self) -> Optional[Child]:
        """One untraced cold CLI run, checked; None if it exits non-zero."""
        child = self.invoke(["-m", "repro.cli", *self.cli_args])
        if child is not None:
            self.check(child.stdout, [])
        return child

    def traced(self) -> Optional[dict]:
        """One traced in-process run, checked; its spans, counters and wall."""
        child = self.invoke([str(BENCH_DIR / "traced.py"), *self.cli_args])
        if child is None:
            return None
        try:
            sample = json.loads(child.stdout)
        except ValueError:
            self.fail(f"traced run printed no JSON: {child.stdout[:80]!r}")
            return None
        sample["wall_s"] = child.wall_s
        counters = sample["counters"]
        if self.workload.kind == "serve":
            expected = counters.get("trace.gen")
        else:
            prefix = "explorer.sampled.nodes"
            expected = sum(count for key, count in counters.items()
                           if key.startswith(prefix)
                           and int(key[len(prefix):]) >= self.workload.min_nodes)
        problems = [] if sample["status"] == 0 else [f"handler returned {sample['status']}"]
        if self.expected is None:
            self.expected = expected
        elif expected != self.expected:
            problems.append(f"traced runs disagree on the input size: "
                            f"{expected} != {self.expected}")
        self.check(sample["stdout"].encode(), problems)
        return sample


def end_to_end(run: Run, seconds: float) -> Optional[dict]:
    # The traced reference run fixes the expected input size and writes the
    # bytecode caches, so the first timed process does not compile.
    run.traced()
    walls, rss, setup = [], [], []
    deadline = time.perf_counter() + seconds
    # CLI and set-up processes alternate, so that both medians see the same
    # drift in host speed.
    while len(walls) < 2 or time.perf_counter() < deadline:
        child = run.cli()
        setup_child = run.invoke(["-c", SETUP_CODE, *run.cli_args])
        if child is None or setup_child is None:
            break
        walls.append(child.wall_s)
        rss.append(child.peak_rss_mb)
        setup.append(setup_child.wall_s)
    if not walls:
        return None
    wall = statistics.median(walls)
    print(f"wall_s {wall:.4f} s (median of {len(walls)} cold CLI runs, "
          f"min {min(walls):.4f}, max {max(walls):.4f})")
    print(f"items_per_s {run.items / wall:.1f} 1/s ({run.items} "
          f"{'requests' if run.workload.kind == 'serve' else 'design points'} per run)")
    print(f"setup_s {statistics.median(setup):.4f} s (median of {len(setup)})")
    print(f"peak_rss_mb {statistics.median(rss):.1f} MB (median of {len(rss)})")
    return {
        "wall_s": (wall, "s"),
        "items_per_s": (run.items / wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


#: Per-layer self-time metrics and the span each reads.
SELF_TIMES = {
    "cli.import_s": "cli.import",
    "cli.parse_s": "cli.parse",
    "cli.lazy_import_s": "cli.lazy_import",
    "cli.handler_self_s": "cli.handler",
    "workloads.build_s": "workloads",
    "explorer.sample_s": "explorer.sample",
    "explorer.self_s": "explorer",
    "timing.hit_s": "timing.hit",
    "timing.miss_s": "timing.miss",
    "parallel.plan_s": "parallel.plan",
    "parallel.collective_s": "parallel.collective",
    "trace.gen_s": "trace.gen",
    "service.suggest_rates_s": "service.suggest_rates",
    "service.profile_s": "service.profile",
    "engine.self_s": "engine",
    "report.render_s": "report.render",
}


def layer_metrics(sample: dict, kind: str) -> dict:
    """Per-layer metrics of one traced sample; self times reconcile to its wall."""
    spans, counters = sample["spans"], sample["counters"]

    def self_s(name: str) -> float:
        return spans.get(name, [0, 0, 0])[2] / 1e9

    def calls(name: str) -> int:
        return spans.get(name, [0, 0, 0])[0]

    metrics = {metric: (self_s(span), "s") for metric, span in SELF_TIMES.items()}
    hits, misses = calls("timing.hit"), calls("timing.miss")
    requests = counters.get("trace.gen", 0)
    engine = self_s("engine")
    stdout = sample["stdout"]
    preemptions = 0
    if kind == "serve":
        try:
            preemptions = json.loads(stdout)["preemptions"]
        except (ValueError, KeyError):
            pass  # the output check has already failed this sample
    covered = sum(record[2] for record in spans.values()) / 1e9
    metrics.update({
        "workloads.calls": (calls("workloads"), "count"),
        "explorer.points": (counters.get("explorer", 0), "count"),
        "timing.hits": (hits, "count"),
        "timing.misses": (misses, "count"),
        "timing.hit_rate": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "timing.hit_us": (self_s("timing.hit") / hits * 1e6 if hits else 0.0, "us"),
        "parallel.collective_calls": (calls("parallel.collective"), "count"),
        "trace.requests": (requests, "count"),
        "service.profile_calls": (calls("service.profile"), "count"),
        "engine.requests_per_s": (requests / engine if engine else 0.0, "1/s"),
        "engine.preemptions": (preemptions, "count"),
        "output.bytes": (len(stdout.encode()), "bytes"),
        "traced_wall_s": (sample["wall_s"], "s"),
        "unattributed_s": (sample["wall_s"] - covered, "s"),
    })
    return metrics


def per_layer(run: Run, seconds: float) -> Optional[dict]:
    samples, walls = [], []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        sample = run.traced()
        child = run.cli()
        if sample is None or child is None:
            break
        samples.append(sample)
        walls.append(child.wall_s)
    if not samples:
        return None
    # Report the sample of median traced wall whole, so its rows reconcile.
    median_sample = sorted(samples, key=lambda sample: sample["wall_s"])[(len(samples) - 1) // 2]
    metrics = layer_metrics(median_sample, run.workload.kind)
    wall = statistics.median(walls)
    metrics["trace_overhead_s"] = (median_sample["wall_s"] - wall, "s")
    traced_wall = metrics["traced_wall_s"][0]
    print(f"traced run: {len(samples)} sample(s); untraced wall_s {wall:.4f} s "
          f"(median of {len(walls)})")
    for target in median_sample["missing"]:
        print(f"warning: span target {target} not found; its layer reads 0")
    print(f"{'metric':26s} {'value':>14s} unit")
    for name, (value, unit) in metrics.items():
        share = f"  {value / traced_wall:6.1%} of traced wall" \
            if unit == "s" and name not in ("traced_wall_s", "trace_overhead_s") else ""
        print(f"{name:26s} {value:14.6g} {unit}{share}")
    rows = sum(metrics[name][0] for name in SELF_TIMES) + metrics["unattributed_s"][0]
    print(f"self times + unattributed_s = {rows:.6f} s = traced_wall_s {traced_wall:.6f} s")
    return metrics


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed, passed to the CLI as --seed")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long to keep sampling")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes; no recorded digest applies")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(WORKLOADS[args.workload], args.seed, args.tiny)
    print(f"workload {args.workload}: python -m repro.cli {' '.join(run.cli_args)}")
    if args.trace:
        metrics = per_layer(run, args.seconds)
    else:
        metrics = end_to_end(run, args.seconds)
    failed = len(run.failures)
    print(f"error_rate {failed / run.attempted:.4f} ({failed} failed of "
          f"{run.attempted} attempted)")
    print(f"stdout_sha256 {run.digest}")
    if metrics is None:
        print("error: no successful sample to report", file=sys.stderr)
        return 1
    if not args.trace:
        metrics["success_rate"] = (1 - failed / run.attempted, "ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
