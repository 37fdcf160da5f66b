"""The benchmark's workloads and the checks on their CLI output.

Each workload is one ``python -m repro.cli`` command; the benchmark seed is
its ``--seed``.  The sizes make the layer each workload is meant to stress
dominate the wall clock of a cold run (see README.md for why each was chosen).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import List, Tuple

#: The seed whose stdout digests are recorded in ``digests.json``.
DEFAULT_SEED = 0
#: Held back from tuning: re-check a later performance claim on this seed.
HELD_OUT_SEED = 104729


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Tuple[str, ...]
    #: The flag that sets the workload's size, its benchmark size, and the
    #: size used by the self-tests.
    size_flag: str
    size: int
    tiny_size: int
    #: Design points with fewer nodes are dropped by ``--parallel`` (explore).
    min_nodes: int = 1

    @property
    def kind(self) -> str:
        return self.argv[0]

    def cli_args(self, seed: int, tiny: bool = False) -> List[str]:
        size = self.tiny_size if tiny else self.size
        return [*self.argv, self.size_flag, str(size), "--seed", str(seed)]


_EXPLORE = ("explore", "--sample", "lhs", "--workload", "llama-7b@decode",
            "--jobs", "1", "--format", "csv")

WORKLOADS = {workload.name: workload for workload in (
    Workload("serve_step",
             ("serve", "--trace", "bursty", "--tenants", "4", "--tenant-mix", "llm",
              "--nodes", "8", "--batching", "step", "--max-batch", "8",
              "--kv-budget", "300", "--utilization", "0.9", "--scheduler", "slo",
              "--slo", "20:1", "--jobs", "1", "--format", "json"),
             "--requests", 20000, 300),
    Workload("serve_request",
             ("serve", "--trace", "poisson", "--tenants", "3", "--nodes", "8",
              "--jobs", "1", "--format", "json"),
             "--requests", 200000, 300),
    Workload("explore_catalog", _EXPLORE, "--points", 200, 10),
    Workload("explore_sharded", _EXPLORE + ("--parallel", "tp2d:2x2"), "--points", 200, 10,
             min_nodes=4),
)}


EXPLORE_HEADER = ["design point", "sa", "buffer_kb", "nodes", "gflops", "efficiency",
                  "gflops_per_mm2", "gflops_per_watt", "seconds", "pareto"]


def check_serve(text: str, trace_requests: int) -> Tuple[int, List[str]]:
    """Check a ``serve --format json`` report; return (requests, problems)."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as error:
        return 0, [f"stdout is not JSON: {error}"]
    problems = []
    total = report.get("total_requests")
    if total != trace_requests:
        problems.append(f"total_requests {total} != generated trace size {trace_requests}")
    tenants = report.get("tenants", [])
    nodes = report.get("nodes", [])
    if not tenants or not nodes:
        problems.append("report has no tenant or no node rows")
    if sum(tenant.get("requests", 0) for tenant in tenants) != total:
        problems.append("tenant request counts do not sum to total_requests")
    for where, record in [("fleet", report)] + [(f"tenant {t.get('name')}", t) for t in tenants]:
        for key, value in record.items():
            if key.startswith(("latency", "ttft", "tpot", "wait")) and \
                    not (isinstance(value, (int, float)) and value >= 0):
                problems.append(f"{where}: {key} = {value!r} is not a time >= 0")
        if not record.get("ttft_p99_s", 0) <= record.get("latency_p99_s", 0):
            problems.append(f"{where}: ttft_p99_s {record.get('ttft_p99_s')} > "
                            f"latency_p99_s {record.get('latency_p99_s')}")
        if not 0 <= record.get("slo_attainment", -1) <= 1:
            problems.append(f"{where}: slo_attainment {record.get('slo_attainment')} "
                            "is outside [0, 1]")
    for key in ("queue_depth_max", "queue_depth_mean"):
        if not report.get(key, -1) >= 0:
            problems.append(f"{key} = {report.get(key)} is negative")
    for node in nodes:
        if not 0 <= node.get("utilization", -1) <= 1:
            problems.append(f"node {node.get('node_id')}: utilization "
                            f"{node.get('utilization')} is outside [0, 1]")
    return total if isinstance(total, int) else 0, problems


def check_explore(text: str, survivors: int) -> Tuple[int, List[str]]:
    """Check an ``explore --format csv`` table; return (rows, problems)."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != EXPLORE_HEADER:
        return 0, [f"unexpected CSV header {rows[0] if rows else None}"]
    body = rows[1:]
    problems = []
    if len(body) != survivors:
        problems.append(f"{len(body)} rows for {survivors} surviving design points")
    column = EXPLORE_HEADER.index
    for row in body:
        try:
            gflops = float(row[column("gflops")])
            efficiency = float(row[column("efficiency")])
        except (ValueError, IndexError):
            problems.append(f"malformed row {row}")
            continue
        if not (math.isfinite(gflops) and gflops > 0):
            problems.append(f"{row[0]}: gflops {gflops} is not positive")
        if not 0 < efficiency <= 1:
            problems.append(f"{row[0]}: efficiency {efficiency} is outside (0, 1]")
    if not any(row[-1] == "True" for row in body):
        problems.append("no Pareto row")
    return len(body), problems


def check_output(workload: Workload, text: str, expected: int) -> Tuple[int, List[str]]:
    """Items the output reports (requests or design points) and its problems.

    ``expected`` is the generated trace size (serve) or the number of sampled
    design points that survive ``--parallel`` (explore).
    """
    if workload.kind == "serve":
        return check_serve(text, expected)
    return check_explore(text, expected)
