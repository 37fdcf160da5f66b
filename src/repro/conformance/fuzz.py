"""Property-based scenario fuzzing over the simulator's global invariants.

Rather than pinning specific outputs (the golden corpus does that), this
layer samples *scenarios* — workload-graph shapes, catalog parameters, serve
and parallel configurations — under their validity constraints and asserts
the properties the repo stakes out as exact:

* ``graph-roundtrip`` — ``WorkloadGraph`` JSON serialisation is lossless;
* ``catalog-build`` — catalog builds are deterministic and their aggregate
  FLOP/byte accounting is internally consistent;
* ``tp-conservation`` — with communication zeroed, tensor-parallel per-node
  compute seconds sum to the unsharded phase (rel 1e-9), and ``tp:1`` is
  bit-identical to the unsharded timing;
* ``tp2d-conservation`` — the SUMMA grid's per-node compute seconds sum to
  the unsharded phase (rel 1e-9), ``tp2d:1x1`` is bit-identical to the
  unsharded timing, the overlap split is well-formed
  (``0 <= overlapped <= comm``), and no phase is slower than serial
  compute + serial comm (overlap can only help);
* ``serve-parity`` — scalar and array serve engines emit byte-identical
  ``to_json`` reports across schedulers × batching modes × seeds × fleets;
* ``serve-shards`` — the sharded request-level run merges back to the exact
  single-shard report for any shard count and worker-pool size;
* ``autoscale-invariants`` — the elastic step-mode fleet stays within
  ``[min_groups, max_groups]`` at every timeline instant, every scale event
  conserves capacity (``groups_after == groups_before ± 1``, provisioning
  delay and drain-stop times well-formed, the fleet timeline reconstructs
  exactly from the event stream), draining groups admit nothing, sharded and
  pooled runs are byte-identical to the single-shard report, and a
  ``min_groups == max_groups`` policy is byte-identical to the fixed-fleet
  path once the ``autoscale`` section is stripped;
* ``percentile`` — the ``np.partition`` fast path is bit-identical to the
  sorted nearest-rank reference on either side of the size threshold;
* ``trace-roundtrip`` — vectorized trace generators match their scalar twins
  element for element and traces survive a records round-trip;
* ``timing-cache-parity`` — the explorer's per-phase seconds through the
  shared ``TimingCache`` equal, bit for bit, the slowest of *every*
  ``partition_gemm`` assignment timed uncached (layers narrower than the
  fleet included), and equal but distinct config/environment objects share
  one cache entry;
* ``breakdown-conservation`` — every ``GEMMTimingBreakdown`` component is
  finite and non-negative, and overlapped (``max(compute, DMA)``) +
  translation stall + fill + setup reproduces ``total_cycles`` exactly in the
  model's summation order.

Everything is seeded stdlib :mod:`random` (no new dependency): case ``i`` of
run seed ``S`` draws from ``random.Random(f"{S}:{i}")``, and kinds rotate
round-robin, so ``fuzz(cases=200, seed=0)`` replays the same 200 scenarios on
every machine.  A failing scenario is greedily shrunk toward the smallest
parameter set that still fails and reported as a replayable JSON spec
(``python -m repro.cli conformance replay failure.json``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "SCENARIO_KINDS",
    "FuzzReport",
    "ScenarioFailure",
    "ScenarioResult",
    "ScenarioSpec",
    "fuzz",
    "replay",
    "run_scenario",
]


class ScenarioFailure(AssertionError):
    """A sampled scenario violated one of the exact invariants."""


@dataclass(frozen=True)
class ScenarioSpec:
    """One concrete fuzz scenario: a kind plus its sampled parameters."""

    kind: str
    params: Tuple = ()  # tuple of (name, value) pairs, sorted by name

    def param(self, key: str) -> object:
        for name, value in self.params:
            if name == key:
                return value
        raise KeyError(f"scenario {self.kind!r} has no parameter {key!r}")

    def to_dict(self) -> dict:
        return {
            "type": "fuzz",
            "kind": self.kind,
            "params": {key: value for key, value in self.params},
        }

    @classmethod
    def from_dict(cls, record: Mapping) -> "ScenarioSpec":
        try:
            return cls(
                kind=str(record["kind"]),
                params=tuple(sorted(dict(record["params"]).items())),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(f"malformed fuzz scenario record: {error}") from error


def _spec(kind: str, **params) -> ScenarioSpec:
    return ScenarioSpec(kind=kind, params=tuple(sorted(params.items())))


# Shared, lazily-built fixtures.  The timing cache makes the tp-conservation
# scenarios cheap (catalog phases re-use identical GEMM shapes heavily), and
# sharing the config keeps every scenario on the same deterministic fleet.
_SHARED: dict = {}


def _shared_config(num_nodes: int = 16):
    from repro.core import maco_default_config

    key = ("config", num_nodes)
    if key not in _SHARED:
        _SHARED[key] = maco_default_config(num_nodes=num_nodes)
    return _SHARED[key]


def _shared_cache():
    from repro.core.perf import TimingCache

    if "cache" not in _SHARED:
        _SHARED["cache"] = TimingCache()
    return _SHARED["cache"]


def _catalog_names() -> List[str]:
    from repro.workloads import workload_catalog

    if "catalog" not in _SHARED:
        _SHARED["catalog"] = workload_catalog()
    return _SHARED["catalog"]


def _tenants(count: int, rate: float, slo: bool):
    from repro.serve import default_tenants

    specs = [spec.with_rate(rate) for spec in default_tenants(count)]
    if slo:
        specs = [
            spec.with_slo(ttft_slo_s=0.4 + 0.2 * index, tpot_slo_s=0.05,
                          priority=index % 2)
            for index, spec in enumerate(specs)
        ]
    return specs


# ---------------------------------------------------------- graph-roundtrip
def _sample_graph_roundtrip(rng: random.Random) -> ScenarioSpec:
    return _spec(
        "graph-roundtrip",
        workload=rng.choice(_catalog_names()),
        precision=rng.choice(["fp64", "fp32", "fp16"]),
    )


def _check_graph_roundtrip(spec: ScenarioSpec) -> None:
    from repro.gemm.precision import Precision
    from repro.workloads import WorkloadGraph, workload_graph_by_name

    graph = workload_graph_by_name(
        str(spec.param("workload")), Precision.from_string(str(spec.param("precision")))
    )
    text = graph.to_json()
    rebuilt = WorkloadGraph.from_json(text)
    if rebuilt.to_json() != text:
        raise ScenarioFailure(
            f"{spec.param('workload')}: to_json -> from_json -> to_json is not "
            "a fixed point"
        )
    if rebuilt.to_dict() != graph.to_dict():
        raise ScenarioFailure(
            f"{spec.param('workload')}: JSON round-trip changed the graph record"
        )


# ------------------------------------------------------------ catalog-build
def _sample_catalog_build(rng: random.Random) -> ScenarioSpec:
    return _spec(
        "catalog-build",
        workload=rng.choice(_catalog_names()),
        precision=rng.choice(["fp64", "fp32", "fp16"]),
    )


def _check_catalog_build(spec: ScenarioSpec) -> None:
    from repro.gemm.precision import Precision
    from repro.workloads import workload_graph_by_name

    name = str(spec.param("workload"))
    precision = Precision.from_string(str(spec.param("precision")))
    graph = workload_graph_by_name(name, precision)
    again = workload_graph_by_name(name, precision)
    if graph.to_json() != again.to_json():
        raise ScenarioFailure(f"{name}: catalog build is not deterministic")
    expected_gemm = sum(phase.total_gemm_flops for phase in graph.phases)
    if graph.gemm_flops != expected_gemm:
        raise ScenarioFailure(
            f"{name}: graph.gemm_flops {graph.gemm_flops} != phase sum {expected_gemm}"
        )
    if graph.total_flops != graph.gemm_flops + graph.non_gemm_flops:
        raise ScenarioFailure(f"{name}: total_flops does not decompose")
    flat = graph.flatten()
    expected_shapes = sum(len(phase.shapes) * phase.repeat for phase in graph.phases)
    if len(flat.shapes) != expected_shapes:
        raise ScenarioFailure(
            f"{name}: flatten() produced {len(flat.shapes)} shapes, "
            f"expected {expected_shapes}"
        )


# ---------------------------------------------------------- tp-conservation
def _sample_tp_conservation(rng: random.Random) -> ScenarioSpec:
    return _spec(
        "tp-conservation",
        workload=rng.choice(_catalog_names()),
        precision=rng.choice(["fp32", "fp16"]),
        degree=rng.randint(2, 4),
    )


def _check_tp_conservation(spec: ScenarioSpec) -> None:
    from repro.gemm.precision import Precision
    from repro.parallel import ParallelismSpec, plan_parallel
    from repro.workloads import workload_graph_by_name

    graph = workload_graph_by_name(
        str(spec.param("workload")), Precision.from_string(str(spec.param("precision")))
    )
    config = _shared_config()
    cache = _shared_cache()
    degree = int(spec.param("degree"))
    plan = plan_parallel(graph, config, ParallelismSpec("tp", degree),
                         cache=cache, include_communication=False)
    for phase_plan in plan.phases:
        if phase_plan.comm_seconds != 0.0:
            raise ScenarioFailure(
                f"{graph.name} tp:{degree}: communication charged with collectives zeroed"
            )
        total = sum(phase_plan.node_compute_seconds)
        reference = phase_plan.unsharded_seconds
        if abs(total - reference) > 1e-9 * max(abs(reference), 1e-30):
            raise ScenarioFailure(
                f"{graph.name} tp:{degree}: per-node compute {total!r} does not "
                f"conserve the unsharded phase {reference!r}"
            )
    one = plan_parallel(graph, config, "tp:1", cache=cache)
    if one.total_seconds != one.unsharded_seconds:
        raise ScenarioFailure(f"{graph.name}: tp:1 total differs from unsharded timing")
    for phase_plan in one.phases:
        if phase_plan.node_compute_seconds != (phase_plan.unsharded_seconds,):
            raise ScenarioFailure(
                f"{graph.name}: tp:1 phase {phase_plan.phase!r} is not bit-identical "
                "to the unsharded phase"
            )


# -------------------------------------------------------- tp2d-conservation
def _sample_tp2d_conservation(rng: random.Random) -> ScenarioSpec:
    return _spec(
        "tp2d-conservation",
        workload=rng.choice(_catalog_names()),
        precision=rng.choice(["fp32", "fp16"]),
        rows=rng.randint(1, 3),
        cols=rng.randint(1, 3),
    )


def _check_tp2d_conservation(spec: ScenarioSpec) -> None:
    from repro.gemm.precision import Precision
    from repro.parallel import ParallelismSpec, plan_parallel
    from repro.workloads import workload_graph_by_name

    graph = workload_graph_by_name(
        str(spec.param("workload")), Precision.from_string(str(spec.param("precision")))
    )
    config = _shared_config()
    cache = _shared_cache()
    rows = int(spec.param("rows"))
    cols = int(spec.param("cols"))
    grid = f"{rows}x{cols}"
    plan = plan_parallel(graph, config, ParallelismSpec("tp2d", grid=(rows, cols)),
                         cache=cache)
    for phase_plan in plan.phases:
        total = sum(phase_plan.node_compute_seconds)
        reference = phase_plan.unsharded_seconds
        if abs(total - reference) > 1e-9 * max(abs(reference), 1e-30):
            raise ScenarioFailure(
                f"{graph.name} tp2d:{grid}: per-node compute {total!r} does not "
                f"conserve the unsharded phase {reference!r}"
            )
        serial = phase_plan.compute_seconds + phase_plan.comm_seconds
        if phase_plan.seconds > serial * (1 + 1e-12):
            raise ScenarioFailure(
                f"{graph.name} tp2d:{grid}: phase {phase_plan.name!r} "
                f"({phase_plan.seconds!r} s) is slower than serial compute + "
                f"comm ({serial!r} s) — overlap can only help"
            )
        overlapped = phase_plan.comm_overlapped_seconds
        if not 0.0 <= overlapped <= phase_plan.comm_seconds * (1 + 1e-12):
            raise ScenarioFailure(
                f"{graph.name} tp2d:{grid}: overlapped comm {overlapped!r} outside "
                f"[0, comm={phase_plan.comm_seconds!r}]"
            )
        exposed = phase_plan.comm_exposed_seconds
        if abs(exposed + overlapped - phase_plan.comm_seconds) > 1e-12 * max(
            phase_plan.comm_seconds, 1e-30
        ):
            raise ScenarioFailure(
                f"{graph.name} tp2d:{grid}: exposed {exposed!r} + overlapped "
                f"{overlapped!r} does not reconstruct comm {phase_plan.comm_seconds!r}"
            )
    identity = plan_parallel(graph, config, "tp2d:1x1", cache=cache)
    if identity.total_seconds != identity.unsharded_seconds:
        raise ScenarioFailure(f"{graph.name}: tp2d:1x1 total differs from unsharded timing")
    for phase_plan in identity.phases:
        if phase_plan.node_compute_seconds != (phase_plan.unsharded_seconds,):
            raise ScenarioFailure(
                f"{graph.name}: tp2d:1x1 phase {phase_plan.name!r} is not "
                "bit-identical to the unsharded phase"
            )
        if phase_plan.comm_seconds != 0.0 or phase_plan.comm_overlapped_seconds != 0.0:
            raise ScenarioFailure(
                f"{graph.name}: tp2d:1x1 phase {phase_plan.name!r} reports "
                "communication on a single-node grid"
            )


# ------------------------------------------------------------- serve-parity
def _sample_serve_parity(rng: random.Random) -> ScenarioSpec:
    return _spec(
        "serve-parity",
        scheduler=rng.choice(["fcfs", "sjf", "rr", "priority", "slo"]),
        batching=rng.choice(["request", "step"]),
        seed=rng.randint(0, 9999),
        tenants=rng.randint(1, 4),
        # The floor reaches near-empty traces: parity must hold there too.
        rate=round(rng.uniform(0.05, 8.0), 2),
        duration=round(rng.uniform(2.0, 6.0), 2),
        num_nodes=rng.choice([2, 4]),
    )


def _serve_simulator(spec: ScenarioSpec, engine: str):
    from repro.serve import ServeSimulator

    kwargs = dict(
        config=_shared_config(int(spec.param("num_nodes"))),
        scheduler=str(spec.param("scheduler")),
        engine=engine,
    )
    if spec.param("batching") == "step":
        # The degenerate step mode (one resident request, no preemption)
        # routes through the request-level engine, where the scalar/array
        # choice applies.
        kwargs.update(batching="step", max_batch=1, preemption=False)
    return ServeSimulator(**kwargs)


def _serve_trace(spec: ScenarioSpec):
    from repro.serve import poisson_trace

    tenants = _tenants(int(spec.param("tenants")), float(spec.param("rate")), slo=True)
    return poisson_trace(tenants, duration_s=float(spec.param("duration")),
                         seed=int(spec.param("seed")))


def _check_serve_parity(spec: ScenarioSpec) -> None:
    trace = _serve_trace(spec)
    fast = _serve_simulator(spec, "array").run(trace).to_json()
    slow = _serve_simulator(spec, "scalar").run(trace).to_json()
    if fast != slow:
        raise ScenarioFailure(
            f"scalar and array engines diverge for scheduler="
            f"{spec.param('scheduler')} batching={spec.param('batching')} "
            f"seed={spec.param('seed')} nodes={spec.param('num_nodes')}"
        )


# ------------------------------------------------------------- serve-shards
def _sample_serve_shards(rng: random.Random) -> ScenarioSpec:
    return _spec(
        "serve-shards",
        scheduler=rng.choice(["fcfs", "sjf", "rr", "priority", "slo"]),
        batching="request",
        seed=rng.randint(0, 9999),
        tenants=rng.randint(1, 3),
        rate=round(rng.uniform(0.05, 6.0), 2),
        duration=round(rng.uniform(2.0, 6.0), 2),
        num_nodes=4,
        shards=rng.randint(2, 5),
        jobs=rng.randint(1, 2),
    )


def _check_serve_shards(spec: ScenarioSpec) -> None:
    from repro.serve import ServeSimulator

    trace = _serve_trace(spec)
    base = _serve_simulator(spec, "array").run(trace, shards=1).to_json()
    sharded_sim = ServeSimulator(
        config=_shared_config(int(spec.param("num_nodes"))),
        scheduler=str(spec.param("scheduler")),
        engine="array",
        jobs=int(spec.param("jobs")),
    )
    sharded = sharded_sim.run(trace, shards=int(spec.param("shards"))).to_json()
    if sharded != base:
        raise ScenarioFailure(
            f"shards={spec.param('shards')} jobs={spec.param('jobs')} report "
            f"differs from the single-shard report (scheduler="
            f"{spec.param('scheduler')} seed={spec.param('seed')})"
        )


# ------------------------------------------------------ autoscale-invariants
def _sample_autoscale_invariants(rng: random.Random) -> ScenarioSpec:
    max_groups = rng.randint(1, 4)
    return _spec(
        "autoscale-invariants",
        scheduler=rng.choice(["fcfs", "sjf", "rr", "priority", "slo"]),
        seed=rng.randint(0, 9999),
        tenants=rng.randint(1, 3),
        # Reach both regimes: traces that never scale and overloads that
        # provision to the ceiling and drain back.
        rate=round(rng.uniform(0.5, 40.0), 2),
        duration=round(rng.uniform(2.0, 5.0), 2),
        min_groups=rng.randint(1, max_groups),
        max_groups=max_groups,
        max_batch=rng.choice([2, 4]),
        shards=rng.randint(2, 5),
        jobs=rng.randint(1, 2),
    )


def _autoscale_fuzz_simulator(spec: ScenarioSpec, policy, jobs: int = 1):
    from repro.serve import ServeSimulator

    return ServeSimulator(
        config=_shared_config(4),
        scheduler=str(spec.param("scheduler")),
        batching="step",
        max_batch=int(spec.param("max_batch")),
        autoscale=policy,
        jobs=jobs,
    )


def _check_autoscale_invariants(spec: ScenarioSpec) -> None:
    import dataclasses

    from repro.serve import AutoscalePolicy

    min_groups = int(spec.param("min_groups"))
    max_groups = int(spec.param("max_groups"))
    # Tight windows so short fuzz traces can actually trigger decisions.
    policy = AutoscalePolicy(
        min_groups=min_groups, max_groups=max_groups, window_s=0.2,
        sustain_windows=2, cooldown_s=0.5, provision_delay_s=0.25)
    trace = _serve_trace(spec)
    simulator = _autoscale_fuzz_simulator(spec, policy)
    report = simulator.run(trace, shards=None)
    auto = report.autoscale
    if auto is None:
        raise ScenarioFailure("autoscaled run produced no autoscale section")

    for time_s, groups in auto.timeline:
        if not min_groups <= groups <= max_groups:
            raise ScenarioFailure(
                f"fleet timeline leaves [{min_groups}, {max_groups}]: "
                f"{groups} groups at t={time_s!r}")
    changes = []
    for event in auto.events:
        expected = event.groups_before + (1 if event.direction == "out" else -1)
        if event.groups_after != expected:
            raise ScenarioFailure(
                f"scale event at t={event.time_s!r} does not conserve capacity: "
                f"{event.groups_before} -> {event.groups_after} ({event.direction})")
        if not (min_groups <= event.groups_before <= max_groups
                and min_groups <= event.groups_after <= max_groups):
            raise ScenarioFailure(
                f"scale event at t={event.time_s!r} leaves the fleet bounds: "
                f"{event.groups_before} -> {event.groups_after}")
        if event.direction == "out":
            if event.serving_from_s != event.time_s + policy.provision_delay_s:
                raise ScenarioFailure(
                    f"scale-out at t={event.time_s!r} serves from "
                    f"{event.serving_from_s!r}, not after the "
                    f"{policy.provision_delay_s!r} s provisioning delay")
            changes.append((event.time_s, 1))
        else:
            if event.stopped_s is None or event.stopped_s < event.time_s:
                raise ScenarioFailure(
                    f"scale-in at t={event.time_s!r} has drain stop "
                    f"{event.stopped_s!r} before the decision")
            changes.append((event.stopped_s, -1))
    if auto.events:
        # The committed-fleet timeline must reconstruct exactly from the
        # event stream (shards=None runs a single cold segment).
        fleet = min_groups
        rebuilt = [auto.timeline[0]]
        for time_s, delta in sorted(changes):
            fleet += delta
            rebuilt.append((time_s, fleet))
        if tuple(rebuilt) != auto.timeline:
            raise ScenarioFailure(
                f"fleet timeline {auto.timeline!r} does not reconstruct from "
                f"the scale events {rebuilt!r}")
    # Windows tick lazily, so wall timestamps of admissions and decisions can
    # interleave; the drain's scope is its loop-order slice of the admission
    # log, which must contain nothing for the draining group.
    for group_id, start_idx, stop_idx in simulator.last_drains:
        admitted = [
            admit_t
            for admit_t, group in simulator.last_admissions[start_idx:stop_idx]
            if group == group_id]
        if admitted:
            raise ScenarioFailure(
                f"draining group {group_id} admitted requests at {admitted!r} "
                "between its drain decision and its stop")
    drained = sum(1 for event in auto.events if event.direction == "in")
    if len(simulator.last_drains) != drained:
        raise ScenarioFailure(
            f"{drained} scale-in event(s) but {len(simulator.last_drains)} "
            "recorded drain(s)")

    single = _autoscale_fuzz_simulator(spec, policy).run(trace, shards=1).to_json()
    sharded = _autoscale_fuzz_simulator(spec, policy).run(
        trace, shards=int(spec.param("shards"))).to_json()
    pooled = _autoscale_fuzz_simulator(
        spec, policy, jobs=int(spec.param("jobs"))).run(
        trace, shards=int(spec.param("shards"))).to_json()
    if sharded != single or pooled != single:
        raise ScenarioFailure(
            f"autoscaled step run is not byte-identical across "
            f"shards={spec.param('shards')} jobs={spec.param('jobs')}")

    # A pinned fleet (min == max == every group server) must be byte-identical
    # to the fixed-fleet path once the autoscale section is stripped.
    servers = len(simulator.groups)
    pinned_policy = AutoscalePolicy(
        min_groups=servers, max_groups=servers, window_s=0.2,
        sustain_windows=2, cooldown_s=0.5, provision_delay_s=0.25)
    pinned = _autoscale_fuzz_simulator(spec, pinned_policy).run(trace, shards=None)
    fixed = _autoscale_fuzz_simulator(spec, None).run(trace, shards=None)
    if dataclasses.replace(pinned, autoscale=None).to_json() != fixed.to_json():
        raise ScenarioFailure(
            "min_groups == max_groups autoscale diverges from the fixed-fleet "
            f"report (scheduler={spec.param('scheduler')} "
            f"seed={spec.param('seed')})")


# --------------------------------------------------------------- percentile
def _sample_percentile(rng: random.Random) -> ScenarioSpec:
    # Straddle the vector threshold (1024) so both code paths are sampled.
    size = rng.choice([
        rng.randint(1, 16),
        rng.randint(900, 1100),
        rng.randint(1500, 4000),
    ])
    return _spec(
        "percentile",
        size=size,
        q=round(rng.uniform(0.0, 100.0), 3),
        seed=rng.randint(0, 9999),
        scale=rng.choice([1.0, 1e-6, 1e6]),
    )


def _check_percentile(spec: ScenarioSpec) -> None:
    from repro.analysis import percentile

    rng = random.Random(int(spec.param("seed")))
    size = int(spec.param("size"))
    scale = float(spec.param("scale"))
    values = [rng.uniform(0.0, scale) for _ in range(size)]
    q = float(spec.param("q"))
    # Nearest-rank reference, straight from the definition.
    rank = max(1, int(np.ceil(q / 100.0 * size))) if q > 0 else 1
    reference = sorted(values)[rank - 1]
    from_list = percentile(values, q)
    from_array = percentile(np.asarray(values), q)
    if from_list != reference:
        raise ScenarioFailure(
            f"percentile(list, {q}) = {from_list!r} != nearest-rank {reference!r} "
            f"(size={size})"
        )
    if from_array != reference:
        raise ScenarioFailure(
            f"percentile(ndarray, {q}) = {from_array!r} != nearest-rank "
            f"{reference!r} (size={size}) — np.partition fast path diverged"
        )


# ---------------------------------------------------------- trace-roundtrip
def _sample_trace_roundtrip(rng: random.Random) -> ScenarioSpec:
    params = dict(
        generator=rng.choice(["poisson", "bursty"]),
        seed=rng.randint(0, 9999),
        tenants=rng.randint(1, 4),
        rate=round(rng.uniform(0.05, 12.0), 2),
        duration=round(rng.uniform(1.0, 10.0), 2),
    )
    if params["generator"] == "bursty":
        params["burst_factor"] = round(rng.uniform(1.0, 10.0), 2)
        params["burst_fraction"] = round(rng.uniform(0.05, 0.5), 3)
    return _spec("trace-roundtrip", **params)


def _check_trace_roundtrip(spec: ScenarioSpec) -> None:
    from repro.serve import (
        RequestTrace,
        bursty_trace,
        bursty_trace_scalar,
        poisson_trace,
        poisson_trace_scalar,
    )

    tenants = _tenants(int(spec.param("tenants")), float(spec.param("rate")), slo=False)
    duration = float(spec.param("duration"))
    seed = int(spec.param("seed"))
    if spec.param("generator") == "poisson":
        fast = poisson_trace(tenants, duration_s=duration, seed=seed)
        slow = poisson_trace_scalar(tenants, duration_s=duration, seed=seed)
    else:
        kwargs = dict(
            burst_factor=float(spec.param("burst_factor")),
            burst_fraction=float(spec.param("burst_fraction")),
        )
        fast = bursty_trace(tenants, duration_s=duration, seed=seed, **kwargs)
        slow = bursty_trace_scalar(tenants, duration_s=duration, seed=seed, **kwargs)
    if fast.to_records() != slow.to_records():
        raise ScenarioFailure(
            f"{spec.param('generator')} generator diverges from its scalar twin "
            f"(seed={seed}, tenants={len(tenants)}, rate={spec.param('rate')})"
        )
    rebuilt = RequestTrace(name=fast.name, requests=list(fast), duration_s=fast.duration_s)
    if rebuilt.to_records() != fast.to_records():
        raise ScenarioFailure(
            f"{spec.param('generator')} trace does not survive a records round-trip"
        )


# ------------------------------------------------------- timing-cache-parity
def _sample_timing_cache_parity(rng: random.Random) -> ScenarioSpec:
    return _spec(
        "timing-cache-parity",
        workload=rng.choice(_catalog_names()),
        precision=rng.choice(["fp64", "fp32", "fp16"]),
        sa=rng.choice([2, 4, 8, 16]),
        buffer_kb=rng.choice([16, 32, 64, 128, 256]),
        num_nodes=rng.randint(1, 16),
        prediction=rng.random() < 0.5,
        narrow=rng.randint(0, 3),
        narrow_seed=rng.randint(0, 9999),
    )


def _every_assignment_seconds(config, shapes, env) -> float:
    """Sum over ``shapes`` of the slowest *every*-assignment estimate, uncached."""
    from repro.core.mapping import partition_gemm
    from repro.core.perf import estimate_node_gemm

    total = 0.0
    for shape in shapes:
        total += max(
            estimate_node_gemm(config, assignment.shape, active_nodes=config.num_nodes,
                               env=env).seconds
            for assignment in partition_gemm(shape, config.num_nodes).assignments
        )
    return total


def _check_timing_cache_parity(spec: ScenarioSpec) -> None:
    from repro.core import DesignPoint, DesignSpaceExplorer, TimingCache, memory_environment
    from repro.gemm.precision import Precision
    from repro.gemm.workloads import GEMMShape
    from repro.workloads import workload_graph_by_name

    precision = Precision.from_string(str(spec.param("precision")))
    graph = workload_graph_by_name(str(spec.param("workload")), precision)
    sa = int(spec.param("sa"))
    point = DesignPoint(
        name="fuzz", sa_rows=sa, sa_cols=sa, buffer_kb=int(spec.param("buffer_kb")),
        num_nodes=int(spec.param("num_nodes")), prediction_enabled=bool(spec.param("prediction")),
    )
    explorer = DesignSpaceExplorer()
    config = point.to_config()
    env = memory_environment(config, config.num_nodes)
    cache = _shared_cache()

    result = explorer.evaluate_graph(point, graph, cache=cache)
    for phase, phase_result in zip(graph.phases, result.phases):
        reference = _every_assignment_seconds(config, phase.shapes, env) * phase.repeat
        if phase_result.seconds != reference:
            raise ScenarioFailure(
                f"{graph.name} on {point}: phase {phase.name!r} took {phase_result.seconds!r} s "
                f"through the cache, {reference!r} s over every assignment uncached"
            )

    # Layers narrower than the fleet leave nodes idle (split extent < nodes).
    rng = random.Random(int(spec.param("narrow_seed")))
    widest = max(1, config.num_nodes - 1)
    narrow = [
        GEMMShape(rng.randint(1, widest), rng.randint(1, widest), rng.randint(1, 512), precision)
        for _ in range(int(spec.param("narrow")))
    ]
    if narrow:
        seconds = explorer.evaluate(point, narrow, cache=cache).seconds
        reference = _every_assignment_seconds(config, narrow, env)
        if seconds != reference:
            raise ScenarioFailure(
                f"{narrow} on {point}: {seconds!r} s through the cache, {reference!r} s over "
                "every assignment uncached"
            )

    # Equal values key one entry, however many objects carry them.
    misses = cache.misses
    explorer.evaluate_graph(point, graph, cache=cache)
    if cache.misses != misses:
        raise ScenarioFailure(
            f"{graph.name} on {point}: re-evaluating with equal but distinct config and "
            f"environment objects missed the cache {cache.misses - misses} time(s)"
        )
    fresh = TimingCache()
    shape = graph.phases[0].shapes[0]
    for twin in (config, point.to_config()):
        fresh.estimate(twin, shape, active_nodes=twin.num_nodes,
                       env=memory_environment(twin, twin.num_nodes))
    if (len(fresh), fresh.hits, fresh.misses) != (1, 1, 1):
        raise ScenarioFailure(
            f"{point}: equal config/environment twins made {len(fresh)} cache entries "
            f"({fresh.hits} hits, {fresh.misses} misses), expected one"
        )


# ---------------------------------------------------- breakdown-conservation
def _sample_breakdown_conservation(rng: random.Random) -> ScenarioSpec:
    def extent() -> int:
        return int(round(2 ** rng.uniform(0.0, 13.0)))

    return _spec(
        "breakdown-conservation",
        m=extent(),
        n=extent(),
        k=extent(),
        precision=rng.choice(["fp64", "fp32", "fp16"]),
        prediction=rng.random() < 0.5,
        active_nodes=rng.randint(1, 16),
        mapped=rng.random() < 0.5,
    )


def _check_breakdown_conservation(spec: ScenarioSpec) -> None:
    from repro.core.perf import (
        estimate_node_gemm,
        memory_environment,
        unmapped_memory_environment,
    )
    from repro.gemm.precision import Precision
    from repro.gemm.workloads import GEMMShape

    shape = GEMMShape(int(spec.param("m")), int(spec.param("n")), int(spec.param("k")),
                      Precision.from_string(str(spec.param("precision"))))
    config = _shared_config()
    env = memory_environment(config, int(spec.param("active_nodes")))
    if not spec.param("mapped"):
        env = unmapped_memory_environment(env)
    timing = estimate_node_gemm(config, shape, prediction_enabled=bool(spec.param("prediction")),
                                env=env)
    where = f"{shape} prediction={spec.param('prediction')} env={env}"
    components = ("compute_cycles", "dma_l3_cycles", "dma_dram_cycles", "exposed_dma_cycles",
                  "translation_stall_cycles", "setup_cycles", "fill_cycles", "total_cycles")
    for name in components:
        value = getattr(timing, name)
        if not (math.isfinite(value) and value >= 0.0):
            raise ScenarioFailure(f"{where}: {name} = {value!r} is not finite and >= 0")
    # The model's own summation order (repro.mmae.dataflow.estimate_gemm_timing).
    dma = max(timing.dma_l3_cycles, timing.dma_dram_cycles)
    overlapped = max(timing.compute_cycles, dma)
    total = overlapped + timing.translation_stall_cycles + timing.fill_cycles + \
        timing.setup_cycles
    if total != timing.total_cycles:
        raise ScenarioFailure(
            f"{where}: overlapped + translation stall + fill + setup = {total!r} != "
            f"total_cycles {timing.total_cycles!r}"
        )
    if timing.exposed_dma_cycles != max(0.0, dma - timing.compute_cycles):
        raise ScenarioFailure(
            f"{where}: exposed DMA {timing.exposed_dma_cycles!r} is not the DMA time "
            f"{dma!r} left over after compute {timing.compute_cycles!r}"
        )


# ----------------------------------------------------------------- registry
@dataclass(frozen=True)
class _Kind:
    name: str
    sample: Callable[[random.Random], ScenarioSpec]
    check: Callable[[ScenarioSpec], None]
    #: Parameter shrink order: keys tried (in order) when minimising a failure,
    #: each mapped to its most-trivial value.
    shrink_floor: Tuple = ()


SCENARIO_KINDS: Dict[str, _Kind] = {
    kind.name: kind
    for kind in (
        _Kind("graph-roundtrip", _sample_graph_roundtrip, _check_graph_roundtrip),
        _Kind("catalog-build", _sample_catalog_build, _check_catalog_build),
        _Kind("tp-conservation", _sample_tp_conservation, _check_tp_conservation,
              (("degree", 2),)),
        _Kind("tp2d-conservation", _sample_tp2d_conservation, _check_tp2d_conservation,
              (("rows", 1), ("cols", 1))),
        _Kind("serve-parity", _sample_serve_parity, _check_serve_parity,
              (("tenants", 2), ("duration", 1.0), ("rate", 1.0), ("num_nodes", 2),
               ("scheduler", "fcfs"), ("batching", "request"))),
        _Kind("serve-shards", _sample_serve_shards, _check_serve_shards,
              (("tenants", 2), ("duration", 1.0), ("rate", 1.0), ("jobs", 1),
               ("shards", 2), ("scheduler", "fcfs"))),
        _Kind("autoscale-invariants", _sample_autoscale_invariants,
              _check_autoscale_invariants,
              (("tenants", 1), ("duration", 2.0), ("rate", 4.0),
               ("max_batch", 2), ("shards", 2), ("jobs", 1),
               ("scheduler", "fcfs"), ("min_groups", 1))),
        _Kind("percentile", _sample_percentile, _check_percentile,
              (("size", 1), ("scale", 1.0), ("q", 50.0))),
        _Kind("trace-roundtrip", _sample_trace_roundtrip, _check_trace_roundtrip,
              (("tenants", 1), ("duration", 1.0), ("rate", 1.0))),
        _Kind("timing-cache-parity", _sample_timing_cache_parity, _check_timing_cache_parity,
              (("narrow", 0), ("num_nodes", 1), ("workload", "bert"), ("sa", 4),
               ("buffer_kb", 64), ("prediction", True))),
        _Kind("breakdown-conservation", _sample_breakdown_conservation,
              _check_breakdown_conservation,
              (("active_nodes", 1), ("mapped", True), ("prediction", True))),
    )
}


@dataclass
class ScenarioResult:
    spec: ScenarioSpec
    index: int
    status: str  # "pass" | "fail"
    message: str = ""
    shrunk: Optional[ScenarioSpec] = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def repro_spec(self) -> dict:
        record = (self.shrunk or self.spec).to_dict()
        record["message"] = self.message
        record["index"] = self.index
        return record


@dataclass
class FuzzReport:
    seed: int
    cases: int
    results: List[ScenarioResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    @property
    def failures(self) -> List[ScenarioResult]:
        return [result for result in self.results if not result.passed]

    def failure_specs(self) -> List[dict]:
        return [result.repro_spec() for result in self.failures]

    def kind_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for result in self.results:
            counts[result.spec.kind] = counts.get(result.spec.kind, 0) + 1
        return counts


def run_scenario(spec: ScenarioSpec) -> None:
    """Execute one scenario; raises :class:`ScenarioFailure` on violation."""
    try:
        kind = SCENARIO_KINDS[spec.kind]
    except KeyError:
        raise ValueError(
            f"unknown scenario kind {spec.kind!r}; options: {sorted(SCENARIO_KINDS)}"
        ) from None
    kind.check(spec)


def _failure_message(spec: ScenarioSpec) -> Optional[str]:
    try:
        run_scenario(spec)
    except ScenarioFailure as error:
        return str(error)
    except Exception as error:  # a crash is also a failure worth reporting
        return f"{type(error).__name__}: {error}"
    return None


def _shrink(spec: ScenarioSpec, kind: _Kind) -> ScenarioSpec:
    """Greedily replace parameters with their floor values while still failing."""
    current = spec
    for key, floor in kind.shrink_floor:
        params = dict(current.params)
        if key not in params or params[key] == floor:
            continue
        candidate = ScenarioSpec(
            kind=current.kind, params=tuple(sorted({**params, key: floor}.items()))
        )
        if _failure_message(candidate) is not None:
            current = candidate
    return current


def fuzz(
    cases: int = 100,
    seed: int = 0,
    kinds: Optional[Sequence[str]] = None,
) -> FuzzReport:
    """Run ``cases`` deterministic scenarios and report violations.

    Scenario ``i`` is fully determined by ``(seed, i)``: its kind is the
    round-robin pick ``kinds[i % len(kinds)]`` and its parameters are drawn
    from ``random.Random(f"{seed}:{i}")``, so any failure reproduces from the
    run seed alone — the report additionally carries each failure's concrete
    (shrunk) spec for single-scenario replay.
    """
    if cases <= 0:
        raise ValueError(f"cases must be positive, got {cases}")
    names = list(kinds) if kinds else sorted(SCENARIO_KINDS)
    for name in names:
        if name not in SCENARIO_KINDS:
            raise ValueError(
                f"unknown scenario kind {name!r}; options: {sorted(SCENARIO_KINDS)}"
            )
    report = FuzzReport(seed=seed, cases=cases)
    for index in range(cases):
        kind = SCENARIO_KINDS[names[index % len(names)]]
        rng = random.Random(f"{seed}:{index}")
        spec = kind.sample(rng)
        message = _failure_message(spec)
        if message is None:
            report.results.append(ScenarioResult(spec=spec, index=index, status="pass"))
            continue
        shrunk = _shrink(spec, kind)
        final_message = _failure_message(shrunk) or message
        report.results.append(ScenarioResult(
            spec=spec, index=index, status="fail", message=final_message,
            shrunk=None if shrunk == spec else shrunk,
        ))
    return report


def replay(record: Mapping) -> Optional[str]:
    """Re-run a reported failure spec; returns the failure message or ``None``."""
    spec = ScenarioSpec.from_dict(record)
    return _failure_message(spec)
