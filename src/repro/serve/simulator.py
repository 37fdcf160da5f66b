"""Trace-driven discrete-event simulation of a multi-tenant MACO serving fleet.

:class:`ServeSimulator` composes the existing machinery into a serving
scenario: arrivals come from a :class:`~repro.serve.trace.RequestTrace`, a
policy queue from :mod:`repro.serve.engine` orders admission, and every
timing estimate runs through the shared :class:`~repro.core.perf.TimingCache`,
so repeated model shapes are walked once per process.  Tenant interleaving on
a node is charged the :class:`~repro.cpu.process.ProcessManager`
context-switch cost plus an ASID-flush penalty.

Two execution models coexist (``batching=``):

* **request** — the legacy non-preemptive multi-server queue: whenever the
  earliest-free server (a node, or a node group under parallelism) frees up,
  the policy pops one request and the server is busy for the switch cost plus
  the whole analytic service estimate.
* **step** — iteration-level continuous batching: each request is lowered to
  the *steps* of its :class:`~repro.workloads.graph.WorkloadGraph` (one
  prefill step, then one step per decode block), and each server runs a
  *batch* of up to ``max_batch`` resident requests, executing one step per
  member per iteration.  New requests are admitted between iterations when a
  batch slot and enough of the server's paged KV budget (the phases'
  ``state_bytes``) are free; when the resident state outgrows the budget, the
  policy picks a victim to preempt — it keeps its progress, re-enters the
  waiting queue at its original ``(arrival, id)`` position, and pays a
  KV-restore penalty (state bytes over the node's DRAM-bandwidth share) on
  resume.  At ``max_batch=1`` with preemption disabled the step model reduces
  to the request model, and the simulator takes that exact code path so the
  reports agree byte for byte.

With ``autoscale=`` (an :class:`~repro.serve.autoscale.AutoscalePolicy`) the
step loop additionally runs a fleet lifecycle: group servers are committed and
drained by a windowed hysteresis controller, new capacity pays a modeled
provisioning delay before it serves, and the report gains an
:class:`~repro.serve.autoscale.AutoscaleStats` section (fleet-size timeline,
scale events, node-seconds, goodput per node-second).  The per-server KV
budget can also be derived from the hardware instead of hand-picked:
``kv_budget_bytes="auto"`` sizes it as the node's DRAM capacity share minus
the resident (sharded) model weights — see
:func:`~repro.serve.autoscale.derive_kv_budget`.

Two fidelities also coexist (see docs/ARCHITECTURE.md): the event loop itself
uses the analytic timing model — simulating a million-request trace is cheap —
and :meth:`ServeSimulator.functional_smoke` pushes a handful of small GEMMs
through the real MPAIS async path (``MA_CFG``/``MA_READ``/``MA_STATE``) to
prove the dispatch plumbing against the functional machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.batch import SweepRunner, _task_cache
from repro.core.config import MACOConfig, maco_default_config
from repro.core.maco import MACOSystem
from repro.core.mapping import partition_gemm, schedule_gemm_plus
from repro.core.perf import (
    TimingCache,
    estimate_node_gemm_cached,
    memory_environment,
    unmapped_memory_environment,
)
from repro.cpu.core import CPUCore
from repro.cpu.process import Process
from repro.gemm.precision import Precision
from repro.mem.dram import DRAMModel
from repro.policy_names import SCHEDULER_NAMES
from repro.serve.engine import (
    NO_DEADLINE,
    TICKS_PER_SECOND,
    EngineTrace,
    _OrderQueue,
    _RoundRobinQueue,
    policy_order,
    run_segment,
    segment_bounds,
    shard_plan,
    shard_worker,
    simulate_segments,
)
from repro.serve.autoscale import (
    AutoscalePolicy,
    Autoscaler,
    AutoscaleStats,
    KVBudget,
    ScaleEvent,
    WindowStats,
    derive_kv_budget,
)
from repro.serve.report import (
    NodeStats,
    ServeReport,
    _slo_met,
    build_report,
    build_report_from_columns,
)
from repro.serve.trace import Request, RequestTrace, TenantSpec, TraceColumns

__all__ = [
    "TENANT_SWITCH_FLUSH_CYCLES",
    "DEFAULT_KV_BUDGET_BYTES",
    "StepSpec",
    "ServiceProfile",
    "estimate_phase_service_seconds",
    "estimate_service_seconds",
    "ServeSimulator",
]

#: Extra CPU cycles charged when a node switches tenants, on top of the
#: :class:`~repro.cpu.process.ProcessManager` register save/restore cost:
#: the shootdown of the incoming ASID's stale entries in the 1024-entry
#: shared L2 TLB and the mATLB invalidate (one cycle per entry, conservatively
#: charged in the CPU clock domain).  See DESIGN.md section 7.3.
TENANT_SWITCH_FLUSH_CYCLES = 1024

#: Default per-server budget for resident serving state (the paged KV cache)
#: in step-batching mode: 4 GiB of the node's DDR, a conservative slice that
#: leaves the rest for weights and activations.  This is a serving policy
#: knob; to size the budget from the modeled hardware instead, pass
#: ``kv_budget_bytes="auto"`` (``--kv-budget auto``), which subtracts the
#: resident sharded model weights from the node's share of
#: :attr:`~repro.mem.dram.DRAMConfig.total_capacity_bytes` — see
#: :func:`~repro.serve.autoscale.derive_kv_budget` and DESIGN.md section 8.
DEFAULT_KV_BUDGET_BYTES = 4 << 30


@dataclass(frozen=True)
class StepSpec:
    """One schedulable step of a request: a phase of its workload graph.

    ``seconds`` is the phase's analytic service time on one server of the
    fleet (all ``repeat`` executions), ``stage`` its pipeline stage (0 outside
    pipeline parallelism), ``state_bytes`` the resident state (KV cache) the
    request holds *after* this step — the paged-KV occupancy the step-mode
    event loop charges against the server budget — and ``tokens`` the output
    tokens the step emits (0 for prefill and non-LLM phases).
    """

    name: str
    seconds: float
    stage: int
    state_bytes: int
    tokens: int


@dataclass(frozen=True)
class ServiceProfile:
    """A workload's full service profile on one server of the fleet.

    ``latency_s`` is the end-to-end service time of a request running alone
    (the sum of its step seconds); ``interval_s`` the steady-state occupancy
    it adds to a pipeline-parallel group (the busiest stage's seconds; equal
    to the latency everywhere else); ``steps`` the per-phase breakdown the
    step-mode event loop schedules.
    """

    latency_s: float
    interval_s: float
    steps: Tuple[StepSpec, ...]

    @property
    def total_tokens(self) -> int:
        """Output tokens one request emits (0 for graphs without decode)."""
        return sum(step.tokens for step in self.steps)

    @property
    def peak_state_bytes(self) -> int:
        """Largest resident state any step holds — the feasibility floor."""
        return max(step.state_bytes for step in self.steps)


def estimate_phase_service_seconds(
    config: MACOConfig,
    workload_name: str,
    precision: Precision,
    active_nodes: int,
    cache: Optional[TimingCache] = None,
    parallelism: Optional[str] = None,
    group: Optional[Sequence[int]] = None,
    background: Sequence[Sequence[int]] = (),
) -> List[Tuple[str, float]]:
    """Per-phase analytic service time of one model invocation on one server.

    The request runs alone on its server but shares the memory system with
    the rest of the fleet, so the per-layer GEMM estimates use the
    ``active_nodes``-way contended :func:`~repro.core.perf.memory_environment`
    (the steady-state worst case for a loaded fleet).  Each phase of the
    workload graph is scheduled independently — its GEMM stream on the MMAE,
    its element-wise tail on the node's CPU core, its stash prefetch traffic
    at the node's DRAM bandwidth share, combined through the same
    :func:`~repro.core.mapping.schedule_gemm_plus` overlap model as
    :meth:`~repro.core.maco.MACOSystem.run_workload` — and phases execute in
    order (prefill feeds decode), so the request's service time is the sum.
    A phase times its distinct shapes once and scales by the phase ``repeat``
    count: every decode step after the first reuses the
    :class:`~repro.core.perf.TimingCache` entries of its block.

    With ``parallelism`` (``"tp:4"``-style) the server is a node *group*:
    :func:`repro.parallel.plan_parallel` shards each phase's GEMM stream over
    ``group`` (tensor parallel also divides the element-wise tail and stash
    traffic across the group; a pipeline stage keeps its phases whole), and
    the phase pays its collective-communication seconds — priced on the mesh
    with every ``background`` group's traffic overlaid — on top of the
    overlap schedule.  A ``tp:1`` plan reproduces the single-node estimate
    bit for bit.
    """
    rows, _ = _phase_service_rows(
        config, workload_name, precision, active_nodes, cache=cache,
        parallelism=parallelism, group=group, background=background,
    )
    return [(name, seconds) for name, seconds, _, _ in rows]


def _phase_service_rows(
    config: MACOConfig,
    workload_name: str,
    precision: Precision,
    active_nodes: int,
    cache: Optional[TimingCache] = None,
    parallelism: Optional[str] = None,
    group: Optional[Sequence[int]] = None,
    background: Sequence[Sequence[int]] = (),
) -> Tuple[List[Tuple[str, float, int, int]], Optional[str]]:
    """``(phase name, seconds, pipeline stage, sharers)`` rows plus the strategy.

    The implementation behind :func:`estimate_phase_service_seconds`; the
    stage index (0 outside pipeline parallelism) lets the simulator compute
    the group's steady-state pipeline interval, and ``sharers`` — the nodes a
    phase is sharded over — lets it divide the phase's resident state across
    a tensor-parallel group (each node holds its KV shard).
    """
    from repro.workloads.registry import workload_graph_by_name

    graph = workload_graph_by_name(workload_name, precision)
    env = memory_environment(config, active_nodes)
    if not config.mapping_scheme_enabled:
        env = unmapped_memory_environment(env)
    cpu_cfg = config.cpu
    core = CPUCore(
        frequency_hz=cpu_cfg.frequency_hz,
        fmac_lanes=cpu_cfg.fmac_lanes,
        issue_width=cpu_cfg.issue_width,
        memory_bandwidth_bytes_per_s=cpu_cfg.memory_bandwidth_bytes_per_s,
    )
    dram = DRAMModel(config=config.memory.dram)
    stash_bandwidth = dram.effective_bandwidth(active_nodes) / active_nodes

    plan = None
    if parallelism is not None:
        from repro.parallel import plan_parallel

        plan = plan_parallel(
            graph, config, parallelism, group=group, env=env, cache=cache,
            background=background,
        )

    results: List[Tuple[str, float, int, int]] = []
    for index, phase in enumerate(graph.phases):
        stash_bytes = 0
        for shape in phase.shapes:
            stash_bytes += partition_gemm(shape, 1).stash_bytes
        stash_bytes *= phase.repeat
        comm_seconds = 0.0
        if plan is None:
            gemm_seconds = sum(
                estimate_node_gemm_cached(
                    config, shape, active_nodes=active_nodes, env=env, cache=cache,
                ).seconds
                for shape in phase.shapes
            ) * phase.repeat
            sharers = 1
        else:
            phase_plan = plan.phases[index]
            gemm_seconds = phase_plan.compute_seconds
            # Only the exposed slice of the collectives lands on the service
            # time — tp2d's pipelined broadcasts already ran under compute.
            comm_seconds = phase_plan.comm_exposed_seconds
            # Tensor parallelism shards the tail and stash across the group;
            # a pipeline stage runs its phases whole on one node.
            sharers = len(phase_plan.nodes)
        cpu_seconds = core.run_elementwise(
            phase.non_gemm_flops * phase.repeat, phase.non_gemm_bytes * phase.repeat
        ).seconds / sharers
        schedule = schedule_gemm_plus(
            mmae_seconds=gemm_seconds,
            cpu_seconds=cpu_seconds,
            stash_seconds=stash_bytes / sharers / stash_bandwidth,
            mapping_enabled=config.mapping_scheme_enabled,
        )
        stage = plan.phases[index].stage if plan is not None else 0
        results.append((phase.name, schedule.total_seconds + comm_seconds, stage, sharers))
    return results, (plan.strategy if plan is not None else None)


def estimate_service_seconds(
    config: MACOConfig,
    workload_name: str,
    precision: Precision,
    active_nodes: int,
    cache: Optional[TimingCache] = None,
    parallelism: Optional[str] = None,
    group: Optional[Sequence[int]] = None,
    background: Sequence[Sequence[int]] = (),
) -> float:
    """Analytic service time of one model invocation on one server.

    The sum of the per-phase estimates — see
    :func:`estimate_phase_service_seconds` for the contention, overlap and
    sharding models.  For single-phase graphs (``bert``, ``gpt3``) this
    reduces to the flat GEMM-stream estimate of the whole workload;
    multi-phase graphs (``resnet50`` is now one phase per conv stage, LLM
    graphs one per prefill/decode block) schedule each phase's GEMM/CPU/stash
    overlap independently, so their estimates are slightly more conservative
    than the old whole-network overlap (phase boundaries are barriers).
    """
    return sum(
        seconds
        for _, seconds in estimate_phase_service_seconds(
            config, workload_name, precision, active_nodes, cache=cache,
            parallelism=parallelism, group=group, background=background,
        )
    )


def _service_profile(
    config: MACOConfig,
    workload_name: str,
    precision: Precision,
    active_nodes: int,
    cache: Optional[TimingCache] = None,
    parallelism: Optional[str] = None,
    group: Optional[Sequence[int]] = None,
    background: Sequence[Sequence[int]] = (),
) -> ServiceProfile:
    """Build the :class:`ServiceProfile` of one workload on one server.

    ``latency_s`` is the end-to-end service time a request observes.
    ``interval_s`` is the steady-state occupancy the request adds to its
    server: for pipeline parallelism the busiest stage's seconds —
    back-to-back same-tenant requests overlap across stages, so the group
    admits the next request one interval after the last — and simply the
    latency everywhere else.  ``steps`` carries the per-phase timing plus the
    resident-state and token metadata from the workload graph; a
    tensor-parallel group holds each phase's state sharded ``sharers`` ways.
    """
    from repro.workloads.registry import workload_graph_by_name

    rows, strategy = _phase_service_rows(
        config, workload_name, precision, active_nodes, cache=cache,
        parallelism=parallelism, group=group, background=background,
    )
    graph = workload_graph_by_name(workload_name, precision)
    steps = tuple(
        StepSpec(
            name=name,
            seconds=seconds,
            stage=stage,
            state_bytes=phase.state_bytes // sharers,
            tokens=phase.tokens,
        )
        for (name, seconds, stage, sharers), phase in zip(rows, graph.phases)
    )
    latency = sum(seconds for _, seconds, _, _ in rows)
    if strategy != "pp":
        return ServiceProfile(latency_s=latency, interval_s=latency, steps=steps)
    per_stage: Dict[int, float] = {}
    for _, seconds, stage, _ in rows:
        per_stage[stage] = per_stage.get(stage, 0.0) + seconds
    return ServiceProfile(latency_s=latency, interval_s=max(per_stage.values()), steps=steps)


def _service_worker(payload) -> ServiceProfile:
    """Pool worker: estimate one server's :class:`ServiceProfile` for a workload."""
    (config, workload_name, precision, active_nodes,
     parallelism, group, background), cache = payload
    return _service_profile(
        config, workload_name, precision, active_nodes, cache=_task_cache(cache),
        parallelism=parallelism, group=group, background=background,
    )


@dataclass(slots=True)
class _NodeState:
    """Mutable per-server bookkeeping for the event loops.

    Request mode: ``free_at`` is when the server can *admit* its next request;
    ``drain_at`` is when its last request actually finishes.  They coincide
    except on a pipeline-parallel group, which admits a same-tenant request
    one pipeline interval after the last while earlier requests drain through
    the stages.

    Step mode: ``free_at`` is the server's iteration clock — the instant its
    next batch iteration starts — and ``batch`` holds the resident requests.

    The lifecycle fields only move under autoscaling: ``committed`` says the
    group currently occupies its nodes (serving, provisioning or draining —
    it accrues node-seconds), ``draining`` that it stopped admitting and
    stops once its residents finish, ``serving_since`` when its current
    commitment began, and ``pending_stop`` the in-flight scale-in event whose
    ``stopped_s`` is filled when the drain completes.  ``stopped_at`` is that
    stop time: windows tick lazily, so a drain can complete in loop order
    before a window that ends earlier than its stop, and until then the group
    still occupies its nodes.  A fixed fleet keeps
    every server committed, so the event loop's float arithmetic is
    unchanged.
    """

    node_id: int
    free_at: float = 0.0
    drain_at: float = 0.0
    busy_s: float = 0.0
    switch_s: float = 0.0
    completed: int = 0
    tenant_switches: int = 0
    preemptions: int = 0
    last_tenant: Optional[str] = None
    batch: List["_RunningRequest"] = field(default_factory=list)
    committed: bool = True
    draining: bool = False
    serving_since: float = 0.0
    pending_stop: Optional[dict] = None
    stopped_at: float = -math.inf


@dataclass(slots=True)
class _RunningRequest:
    """A request's mutable progress through its steps (step mode only)."""

    request: Request
    profile: ServiceProfile
    rank: int  # position in the run's (arrival, id) order
    step_index: int = 0
    start_s: Optional[float] = None  # first admission into a batch
    first_token_s: Optional[float] = None  # completion of the first step
    switch_s: float = 0.0
    preemptions: int = 0
    restore_pending: bool = False  # pay the KV-restore penalty on the next step

    @property
    def next_state_bytes(self) -> int:
        """Resident state this request holds after its next step."""
        return self.profile.steps[self.step_index].state_bytes


def _victim_key(member: _RunningRequest) -> Tuple[int, int]:
    """Preemption order: the member with the largest key is evicted first.

    The lowest priority tier loses first; within a tier the newest request
    (the highest rank, i.e. the latest ``(arrival, id)``) is evicted, so an
    old request never loses its KV residency to a younger one.
    """
    return (-member.request.priority, member.rank)


class ServeSimulator:
    """Simulates a request trace against a MACO fleet under a batching policy.

    ``scheduler`` is a policy name (one of
    :data:`~repro.policy_names.SCHEDULER_NAMES`); ``jobs`` fans the
    per-workload service estimation out over a
    :class:`~repro.core.batch.SweepRunner` pool (the event loop itself is
    always serial and deterministic, so the report is bit-identical for every
    ``jobs`` setting).

    ``batching`` selects the execution model (see the module docstring):
    ``"request"`` runs the legacy whole-request dispatch, ``"step"`` the
    iteration-level continuous-batching loop with up to ``max_batch``
    resident requests per server, a paged-KV budget of ``kv_budget_bytes``
    per server (``None`` means :data:`DEFAULT_KV_BUDGET_BYTES`;
    ``float("inf")`` disables the budget; ``"auto"`` derives it from the DRAM
    capacity model at run time — see :meth:`resolved_kv_budget`), and —
    unless ``preemption`` is off — policy-selected eviction when the
    resident state outgrows it.

    ``autoscale`` (an :class:`~repro.serve.autoscale.AutoscalePolicy`;
    step batching only) turns the fixed fleet into an elastic one: the run
    starts with ``min_groups`` committed group servers and a windowed
    hysteresis controller commits or drains groups against queue-depth and
    SLO-attainment pressure, within ``[min_groups, max_groups]``.  With
    ``min_groups == max_groups`` the controller can never act and the report
    matches the fixed-fleet run byte for byte apart from its ``autoscale``
    section.

    ``parallelism`` (``"tp:4"``-style, see :mod:`repro.parallel`) shards
    every request across a node *group* instead of serving it on one node:
    the fleet becomes ``num_nodes / degree`` group servers, each request's
    service time reflects sharded execution plus collective communication,
    and the collectives of co-scheduled groups contend for shared mesh links
    (every other group is priced as background traffic — the steady-state
    worst case, consistent with the memory-environment model).  A
    pipeline-parallel group overlaps back-to-back same-tenant requests
    across its stages: in request mode it admits the next request one
    pipeline interval after the last, and in step mode batch members in
    different stages advance concurrently within an iteration.  A
    tensor-parallel group holds each request's KV state sharded across its
    nodes, so the budget check sees the per-node share.  ``tp:1`` reproduces
    the unsharded simulation bit for bit.
    """

    #: Runs one request-level segment ``(et, lo, hi)``; the conformance
    #: layer's reference simulator swaps in the per-event oracle here.
    _segment_runner = staticmethod(run_segment)

    def __init__(
        self,
        system: Optional[MACOSystem] = None,
        config: Optional[MACOConfig] = None,
        scheduler: str = "fcfs",
        jobs: Optional[int] = None,
        cache: Optional[TimingCache] = None,
        parallelism: Optional[str] = None,
        batching: str = "request",
        max_batch: int = 8,
        kv_budget_bytes: Optional[object] = None,
        preemption: bool = True,
        autoscale: Optional[AutoscalePolicy] = None,
    ) -> None:
        if system is not None and config is not None:
            raise ValueError("pass either a system or a config, not both")
        if scheduler not in SCHEDULER_NAMES:
            raise ValueError(
                f"scheduler must be one of {', '.join(SCHEDULER_NAMES)}, got {scheduler!r}")
        if batching not in ("request", "step"):
            raise ValueError(f"batching must be 'request' or 'step', got {batching!r}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be at least 1, got {max_batch}")
        if kv_budget_bytes is None:
            self._kv_budget_source = "default"
            kv_budget_bytes = DEFAULT_KV_BUDGET_BYTES
        elif isinstance(kv_budget_bytes, str):
            if kv_budget_bytes != "auto":
                raise ValueError(
                    f"kv_budget_bytes must be a byte count or 'auto', "
                    f"got {kv_budget_bytes!r}")
            self._kv_budget_source = "auto"
        else:
            if not kv_budget_bytes > 0:
                raise ValueError(f"kv_budget_bytes must be positive, got {kv_budget_bytes}")
            self._kv_budget_source = "explicit"
        if autoscale is not None and batching != "step":
            raise ValueError(
                "autoscale needs batching='step'; the fleet lifecycle lives in "
                "the step-batching event loop")
        if system is None:
            system = MACOSystem(config if config is not None else maco_default_config())
        self.system = system
        self.scheduler_name = scheduler
        self.batching = batching
        self.max_batch = max_batch
        self.kv_budget_bytes = kv_budget_bytes
        self.preemption = preemption
        self.runner = SweepRunner(jobs=jobs if jobs is not None else 1, cache=cache)
        if parallelism is None:
            self.parallelism = None
            self.groups = [(node,) for node in range(self.system.num_nodes)]
        else:
            from repro.parallel import ParallelismSpec, node_groups

            spec = ParallelismSpec.parse(parallelism)
            self.parallelism = str(spec)
            self.groups = node_groups(self.system.num_nodes, spec.degree)
        if autoscale is not None and autoscale.max_groups > len(self.groups):
            raise ValueError(
                f"autoscale max_groups ({autoscale.max_groups}) exceeds the "
                f"fleet's {len(self.groups)} group server(s)")
        self.autoscale = autoscale
        #: ``(admit_time_s, group_server_id)`` per step-mode admission of the
        #: most recent run, plus each drain's ``(group_server_id, start, stop)``
        #: slice into that log — diagnostics for the invariant checks
        #: (windows tick lazily, so loop order, not timestamps, scopes a
        #: drain), never part of the report.
        self.last_admissions: List[Tuple[float, int]] = []
        self.last_drains: List[Tuple[int, int, int]] = []
        self._services: Dict[Tuple[str, Precision, int], ServiceProfile] = {}
        # One serving process per (node, tenant): created lazily through the
        # node CPU's ProcessManager so ASIDs and switch accounting are real.
        self._tenant_processes: List[Dict[str, Process]] = [
            {} for _ in range(self.system.num_nodes)
        ]

    @property
    def num_servers(self) -> int:
        """Dispatchable servers: node groups under parallelism, else nodes."""
        return len(self.groups)

    def _background(self, server: int) -> Tuple[Tuple[int, ...], ...]:
        """The other groups, whose collective traffic shares mesh links with ours."""
        if self.parallelism is None:
            return ()
        return tuple(group for index, group in enumerate(self.groups) if index != server)

    # ------------------------------------------------------------ service times
    def service_seconds(
        self,
        workload_name: str,
        precision: Precision = Precision.FP32,
        server: int = 0,
    ) -> float:
        """Memoised per-request service time on one server of this fleet.

        Under parallelism the estimate depends on the group's mesh position
        (its ring shares different links with the background groups), so
        ``server`` selects the group; without parallelism every node is
        identical and the argument is ignored.
        """
        return self.service_profile(workload_name, precision, server).latency_s

    def service_profile(
        self, workload_name: str, precision: Precision = Precision.FP32, server: int = 0
    ) -> ServiceProfile:
        """Memoised :class:`ServiceProfile` of one workload on one server."""
        if self.parallelism is None:
            server = 0
        key = (workload_name, precision, server)
        if key not in self._services:
            self._services[key] = _service_profile(
                self.system.config, workload_name, precision,
                active_nodes=self.system.num_nodes, cache=self.runner.cache,
                parallelism=self.parallelism,
                group=self.groups[server] if self.parallelism is not None else None,
                background=self._background(server),
            )
        return self._services[key]

    def phase_profile(
        self, workload_name: str, precision: Precision = Precision.FP32, server: int = 0
    ) -> List[Tuple[str, float]]:
        """Per-phase service seconds of one workload on this fleet.

        The breakdown that :meth:`service_seconds` sums — useful to see why a
        decode-heavy request behaves differently from a prefill-heavy one.
        """
        profile = self.service_profile(workload_name, precision, server)
        return [(step.name, step.seconds) for step in profile.steps]

    def _ensure_services(self, pairs: Sequence[Tuple[str, Precision]]) -> None:
        """Estimate the given (workload, precision) pairs, fanning out over the runner's pool.

        Under parallelism each pair is estimated once per group server (the
        mesh position changes the communication cost); otherwise once.
        """
        ordered = sorted(set(pairs), key=lambda pair: (pair[0], pair[1].name))
        servers = range(self.num_servers) if self.parallelism is not None else (0,)
        missing = [
            (workload, precision, server)
            for workload, precision in ordered
            for server in servers
            if (workload, precision, server) not in self._services
        ]
        if not missing:
            return
        tasks = [
            (self.system.config, workload, precision, self.system.num_nodes,
             self.parallelism,
             self.groups[server] if self.parallelism is not None else None,
             self._background(server))
            for workload, precision, server in missing
        ]
        for key, profile in zip(missing, self.runner.map(_service_worker, tasks)):
            self._services[key] = profile

    def _prepare_services(self, trace: RequestTrace) -> None:
        """Estimate every distinct (workload, precision) in the trace, possibly in parallel.

        Works off the columnar view — the distinct pairs fall out of one
        ``np.unique`` over the interned id columns, so a million-request
        trace costs one array pass, not a million attribute reads.
        """
        columns = trace.columns
        if not len(columns):
            return
        width = max(len(columns.precisions), 1)
        # The code space is tiny (workloads x precisions), so a bincount
        # beats hashing a million-element array through np.unique.
        counts = np.bincount(
            columns.workload_id.astype(np.int64) * width + columns.precision_id,
            minlength=len(columns.workloads) * width)
        codes = np.flatnonzero(counts)
        self._ensure_services([
            (columns.workloads[int(code) // width], columns.precisions[int(code) % width])
            for code in codes
        ])

    def suggest_rates(
        self,
        specs: Sequence[TenantSpec],
        utilization: float = 0.7,
        precision: Precision = Precision.FP32,
    ) -> List[TenantSpec]:
        """Size each tenant's arrival rate so the fleet runs at ``utilization``.

        Each tenant gets an equal share of the fleet's service capacity:
        ``rate = utilization * nodes / (tenants * mean service seconds)``,
        where the mean service time is weighted by the tenant's workload mix.
        Utilizations above 1 deliberately overload the fleet — the regime
        where continuous batching, preemption and SLO-aware admission earn
        their keep.
        """
        if not 0 < utilization < math.inf:
            raise ValueError(f"utilization must be positive and finite, got {utilization}")
        # Batch the estimates through the worker pool so --jobs helps here too
        # (this is where a cold simulator computes them in the default CLI path).
        self._ensure_services([
            (workload, precision)
            for spec in specs
            for workload, _ in spec.mean_mix_weights()
        ])
        sized = []
        for spec in specs:
            mean_service = sum(
                weight * self.service_seconds(workload, precision)
                for workload, weight in spec.mean_mix_weights()
            )
            rate = utilization * self.system.num_nodes / (len(specs) * mean_service)
            sized.append(spec.with_rate(rate))
        return sized

    # ------------------------------------------------------- context switching
    def _switch_seconds(self, state: _NodeState, tenant: str) -> float:
        """Charge (and account) the cost of putting ``tenant`` on the server.

        The first tenant a server ever serves is adopted for free (it was
        idle); after that, a tenant change costs the ProcessManager's register
        save/restore plus the ASID flush penalty, both in the CPU clock
        domain.  A node group switches all its nodes concurrently, so the
        group pays one switch cost; the lead node's ProcessManager keeps the
        ASID bookkeeping real.
        """
        lead = self.groups[state.node_id][0]
        node = self.system.node(lead)
        manager = node.cpu.processes
        processes = self._tenant_processes[lead]
        if tenant not in processes:
            processes[tenant] = manager.create_process(f"serve:{tenant}")
        process = processes[tenant]
        if state.last_tenant is None:
            manager.current = process
            return 0.0
        if state.last_tenant == tenant:
            return 0.0
        cycles = manager.switch_to(process.asid) + TENANT_SWITCH_FLUSH_CYCLES
        state.tenant_switches += 1
        return cycles / node.cpu.frequency_hz

    # ------------------------------------------------------------- event loop
    def run(self, trace: RequestTrace, shards: Optional[int] = None) -> ServeReport:
        """Simulate the trace to completion and return the aggregated report.

        Dispatches on ``batching`` (see the class docstring).  A step-mode
        simulator with ``max_batch=1`` and preemption disabled is semantically
        the request-level queue — one resident request per server, steps
        back-to-back — so it takes the request-level path and reproduces the
        legacy report byte for byte (modulo the ``batching`` label).  All
        tie-breaks in both loops are deterministic, so identical traces yield
        bit-identical reports.

        ``shards`` cuts the trace at full-idle points and simulates the
        resulting segments independently.  On the request-level path the cut
        points are provable idle instants and the segments fan out over the
        runner's worker pool; on the step-batching path the cuts come from a
        conservative serial-drain bound (see :meth:`_step_segment_bounds`)
        and the segments run serially — the loop is float-valued, so merging
        is only exact when every segment starts cold.  In both cases each
        segment restarts with a cold fleet and the cut points depend only on
        the trace — never on the shard count — so the report is
        byte-identical for every ``shards >= 1`` and every ``jobs`` setting.
        ``shards=None`` (the default) runs the trace unsegmented: the exact
        legacy continuous semantics, where an idle gap keeps the last tenant
        resident.
        """
        if shards is not None and shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if self.batching == "request" or (
            self.max_batch == 1 and not self.preemption and self.autoscale is None
        ):
            return self._run_request_level(trace, shards)
        return self._run_step_level(trace, shards)

    def _engine_trace(self, columns: TraceColumns) -> Tuple[EngineTrace, Optional[np.ndarray]]:
        """Lower a columnar trace to the engine's tick arrays.

        Returns the :class:`~repro.serve.engine.EngineTrace` plus the
        canonical order (``(arrival tick, request id)`` lexsort) that maps
        trace rows to engine ranks — ``None`` when the columns are already
        canonical (every generator and replay emits them that way), so the
        common case skips the sort and all the re-index gathers.  Service
        times come from the memoised profiles as *ceiling* nanosecond ticks —
        a request is never reported faster than its float estimate — batched
        into one ``(pair, server)`` table so the event loops do array lookups
        instead of dict probes.
        """
        arrival_all = np.rint(columns.arrival_s * TICKS_PER_SECOND).astype(np.int64)
        canonical = bool(np.all(
            (arrival_all[1:] > arrival_all[:-1])
            | ((arrival_all[1:] == arrival_all[:-1])
               & (columns.request_id[1:] > columns.request_id[:-1]))
        )) if len(arrival_all) > 1 else True
        if canonical:
            order: Optional[np.ndarray] = None
            arrival = arrival_all
        else:
            order = np.lexsort((columns.request_id, arrival_all))
            arrival = arrival_all[order]
        width = max(len(columns.precisions), 1)
        codes_all = columns.workload_id.astype(np.int64) * width + columns.precision_id
        if order is not None:
            codes_all = codes_all[order]
        # Equivalent to np.unique(codes_all, return_inverse=True) but via a
        # bincount over the tiny (workload x precision) code space.
        counts = np.bincount(codes_all, minlength=len(columns.workloads) * width)
        codes = np.flatnonzero(counts)
        remap = np.zeros(len(counts), np.int64)
        remap[codes] = np.arange(len(codes), dtype=np.int64)
        pair = remap[codes_all]
        servers = self.num_servers
        latency_table = np.empty((len(codes), servers), np.int64)
        interval_table = np.empty((len(codes), servers), np.int64)
        first_table = np.empty((len(codes), servers), np.int64)
        tokens_table = np.empty(len(codes), np.int64)
        for row, code in enumerate(codes.tolist()):
            workload = columns.workloads[code // width]
            precision = columns.precisions[code % width]
            for server in range(servers):
                profile = self.service_profile(workload, precision, server)
                latency_table[row, server] = math.ceil(
                    profile.latency_s * TICKS_PER_SECOND)
                interval_table[row, server] = math.ceil(
                    profile.interval_s * TICKS_PER_SECOND)
                first_table[row, server] = math.ceil(
                    profile.steps[0].seconds * TICKS_PER_SECOND)
            tokens_table[row] = self.service_profile(workload, precision, 0).total_tokens
        # The policy-key columns are pre-expanded only for the policies that
        # consume them on every push; fcfs/rr never read them.
        empty = np.empty(0, np.int64)
        policy = self.scheduler_name
        svc0 = latency_table[:, 0][pair] if policy == "sjf" else empty
        if policy in ("priority", "slo"):
            priority = (columns.priority if order is None
                        else columns.priority[order]).astype(np.int64)
        else:
            priority = empty
        if policy == "slo":
            ttft_slo = columns.ttft_slo_s if order is None else columns.ttft_slo_s[order]
            deadline = np.full(len(arrival), NO_DEADLINE, np.int64)
            with_deadline = ~np.isnan(ttft_slo)
            deadline[with_deadline] = arrival[with_deadline] + np.ceil(
                ttft_slo[with_deadline] * TICKS_PER_SECOND).astype(np.int64)
        else:
            deadline = empty
        node = self.system.node(self.groups[0][0])
        switch_cycles = (node.cpu.processes.CONTEXT_SWITCH_CYCLES
                        + TENANT_SWITCH_FLUSH_CYCLES)
        return EngineTrace(
            policy=policy,
            num_servers=servers,
            switch_ticks=math.ceil(
                switch_cycles / node.cpu.frequency_hz * TICKS_PER_SECOND),
            arrival=arrival,
            tenant=columns.tenant_id if order is None else columns.tenant_id[order],
            pair=pair.astype(np.int32),
            latency_table=latency_table,
            interval_table=interval_table,
            first_table=first_table,
            tokens_table=tokens_table,
            svc0=svc0,
            priority=priority,
            deadline=deadline,
            uniform_interval=bool(np.array_equal(latency_table, interval_table)),
        ), order

    def _run_request_level(
        self, trace: RequestTrace, shards: Optional[int] = None
    ) -> ServeReport:
        """The non-preemptive multi-server queue, on the tick engines.

        Whenever the earliest-free server (a node, or a node group under
        parallelism) frees up, every request that has arrived by then is
        admitted to the policy queue, the policy pops one, and the server is
        busy for the switch cost plus the service estimate — see
        :mod:`repro.serve.engine` for the engine and the sharding contract.
        """
        self._prepare_services(trace)
        columns = trace.columns
        et, order = self._engine_trace(columns)
        count = len(et)
        if shards is None:
            chunks = [[(0, count)]] if count else []
        else:
            chunks = shard_plan(segment_bounds(et), shards)
        run = self._segment_runner
        if len(chunks) > 1 and self.runner.jobs > 1:
            results = self.runner.map(shard_worker, [(et, chunk, run) for chunk in chunks])
        else:
            results = [simulate_segments(et, chunk, run) for chunk in chunks]
        if len(results) == 1:
            start, first, finish, accumulators = results[0]
        else:
            start = np.empty(count, np.int64)
            first = np.empty(count, np.int64)
            finish = np.empty(count, np.int64)
            accumulators = np.zeros((self.num_servers, 4), np.int64)
            for chunk, (seg_start, seg_first, seg_finish, seg_acc) in zip(chunks, results):
                lo, hi = chunk[0][0], chunk[-1][1]
                start[lo:hi] = seg_start
                first[lo:hi] = seg_first
                finish[lo:hi] = seg_finish
                accumulators += seg_acc
        return build_report_from_columns(
            trace_name=trace.name,
            scheduler_name=self.scheduler_name,
            num_nodes=self.system.num_nodes,
            tenant_names=columns.tenants,
            tenant_id=columns.tenant_id if order is None else columns.tenant_id[order],
            arrival_ticks=et.arrival,
            start_ticks=start,
            first_ticks=first,
            finish_ticks=finish,
            tokens=et.tokens_table[et.pair],
            ttft_slo_s=columns.ttft_slo_s if order is None else columns.ttft_slo_s[order],
            tpot_slo_s=columns.tpot_slo_s if order is None else columns.tpot_slo_s[order],
            node_accumulators=accumulators,
            batching=self.batching,
        )

    def resolved_kv_budget(self, trace: RequestTrace) -> KVBudget:
        """The per-server KV budget the step loop will enforce, with provenance.

        ``"auto"`` budgets resolve against the trace (the resident weights
        depend on which workloads it serves): the node's DRAM capacity share
        minus the largest sharded weight share among the trace's distinct
        ``(workload, precision)`` pairs — see
        :func:`~repro.serve.autoscale.derive_kv_budget`.  Default and
        explicit budgets pass through unchanged.
        """
        if self._kv_budget_source != "auto":
            return KVBudget(
                budget_bytes=float(self.kv_budget_bytes),
                source=self._kv_budget_source)
        pairs = sorted(
            {(request.workload, request.precision) for request in trace},
            key=lambda pair: (pair[0], pair[1].name))
        if not pairs:
            return KVBudget(budget_bytes=float(DEFAULT_KV_BUDGET_BYTES), source="auto")
        return derive_kv_budget(
            self.system.config, pairs,
            sharers=len(self.groups[0]), num_nodes=self.system.num_nodes)

    def _step_segment_bounds(
        self, arrivals: List[Request], restore_bandwidth: float
    ) -> List[int]:
        """Cut indices where the step-batching fleet is certainly idle.

        A conservative serial-drain bound, the step-mode analogue of
        :func:`repro.serve.engine.segment_bounds`: charge every request its
        worst-case solo cost on the slowest server — full latency, a tenant
        switch, one KV restore of its peak state — and drain the trace one
        request at a time (``bound = max(bound, arrival) + worst``).  Where
        the bound dies out before the next arrival the fleet must be idle, so
        the trace can be cut there.  The bound assumes at most one restore
        per request, so it is a heuristic under heavy preemption churn; what
        the sharding contract guarantees is determinism, not equivalence to
        the continuous run — the cut set is a pure function of the trace,
        never of the shard count, so the merged report is byte-identical for
        every ``shards >= 1``.
        """
        pairs = sorted(
            {(request.workload, request.precision) for request in arrivals},
            key=lambda pair: (pair[0], pair[1].name))
        servers = range(self.num_servers) if self.parallelism is not None else (0,)
        worst = 0.0
        for workload, precision in pairs:
            for server in servers:
                profile = self.service_profile(workload, precision, server)
                worst = max(
                    worst,
                    profile.latency_s + profile.peak_state_bytes / restore_bandwidth)
        node = self.system.node(self.groups[0][0])
        worst += (
            node.cpu.processes.CONTEXT_SWITCH_CYCLES + TENANT_SWITCH_FLUSH_CYCLES
        ) / node.cpu.frequency_hz
        cuts: List[int] = []
        bound = -math.inf
        for position, request in enumerate(arrivals):
            if position and bound < request.arrival_s:
                cuts.append(position)
            bound = max(bound, request.arrival_s) + worst
        return cuts

    def _run_step_level(
        self, trace: RequestTrace, shards: Optional[int] = None
    ) -> ServeReport:
        """Iteration-level continuous batching with KV paging and preemption.

        Each server holds a running batch of up to ``max_batch`` requests and
        advances in *iterations*: one step per member, members executed in
        ``(arrival, id)`` order with per-pipeline-stage local clocks (stages
        overlap; within a stage steps serialise).  Between iterations the
        server admits waiting requests in policy order — head-of-line only,
        so admission order is exactly the policy order — as long as a batch
        slot is free, the candidate has arrived by the server's clock, and
        its resident state fits the KV budget next to the current members'.
        When members' growing KV outruns the budget, the policy picks victims
        to preempt until the batch fits again; a victim keeps its step
        progress, re-enters the waiting queue at its original ``(arrival,
        id)`` position, and pays a restore penalty (its state bytes over the
        node's DRAM-bandwidth share) on its next step.  With ``preemption``
        off the budget still gates admission but resident requests are never
        evicted.  Every choice ties-breaks on ``(arrival, id)``, so the loop
        is deterministic.

        ``shards`` cuts the trace at conservative full-idle points
        (:meth:`_step_segment_bounds`) and runs every segment cold, so the
        report is byte-identical for each shard count; ``shards=None`` keeps
        the exact continuous semantics.  Under ``autoscale`` each segment
        starts back at ``min_groups`` committed groups with a fresh
        controller, and the report's
        :class:`~repro.serve.autoscale.AutoscaleStats` concatenates the
        per-segment scale events and fleet-timeline entries.
        """
        self._prepare_services(trace)
        # Diagnostic only (never part of the report): every step-mode
        # admission as ``(admit_time_s, group_server_id)`` and every drain's
        # slice of that log, so the fuzz layer can assert that draining
        # groups admit nothing.
        self.last_admissions = []
        self.last_drains = []
        kv = self.resolved_kv_budget(trace)
        budget = kv.budget_bytes
        servers = range(self.num_servers) if self.parallelism is not None else (0,)
        for workload, precision in sorted(
            {(request.workload, request.precision) for request in trace},
            key=lambda pair: (pair[0], pair[1].name),
        ):
            for server in servers:
                peak = self.service_profile(workload, precision, server).peak_state_bytes
                if peak > budget:
                    if kv.source == "auto":
                        raise ValueError(
                            f"workload {workload!r} needs {peak / 1e6:.1f} MB of "
                            f"resident state but the per-server KV budget is "
                            f"{kv.describe()}; widen the parallelism group or "
                            "grow DRAMConfig.channel_capacity_bytes - a request "
                            "must fit alone")
                    raise ValueError(
                        f"workload {workload!r} needs {peak / 1e6:.1f} MB of resident state "
                        f"but the per-server KV budget is {budget / 1e6:.1f} MB; "
                        "raise kv_budget_bytes - a request must fit alone")
        dram = DRAMModel(config=self.system.config.memory.dram)
        restore_bandwidth = (
            dram.effective_bandwidth(self.system.num_nodes) / self.system.num_nodes)

        states = [_NodeState(node_id=index) for index in range(self.num_servers)]
        arrivals: List[Request] = sorted(
            trace.requests, key=lambda request: (request.arrival_s, request.request_id))
        if not arrivals:
            bounds: List[int] = []
        elif shards is None:
            bounds = [0, len(arrivals)]
        else:
            bounds = [0, *self._step_segment_bounds(arrivals, restore_bandwidth),
                      len(arrivals)]
        policy = self.scheduler_name
        if policy == "rr":
            # One rotation for the whole run: tenants keep their first-push
            # order and the cursor carries across segments.
            tenant_ids: Dict[str, int] = {}
            rotation = _RoundRobinQueue([
                tenant_ids.setdefault(request.tenant, len(tenant_ids))
                for request in arrivals])
        else:
            keys = self._step_policy_keys(arrivals)

        runtimes: Dict[int, _RunningRequest] = {}
        completions: List[dict] = []
        tally: Dict[str, float] = {
            "last_event_t": 0.0,
            "depth_area": 0.0,
            "depth_max": 0,
            "group_seconds": 0.0,
        }
        events: List[dict] = []
        timeline: List[Tuple[float, int]] = []
        for lo, hi in zip(bounds, bounds[1:]):
            if policy == "rr":
                queue = rotation
            else:
                order = policy_order(
                    policy, hi - lo, **{name: column[lo:hi] for name, column in keys.items()})
                queue = _OrderQueue(order, lo)
            self._simulate_step_segment(
                arrivals, lo, hi, queue, states, budget, restore_bandwidth,
                runtimes, completions, tally, events, timeline)

        makespan = max((entry["finish_s"] for entry in completions), default=0.0)
        autoscale_stats = None
        if self.autoscale is not None:
            nodes_per_group = len(self.groups[0])
            node_seconds = tally["group_seconds"] * nodes_per_group
            met = sum(1 for entry in completions if _slo_met(entry))
            autoscale_stats = AutoscaleStats(
                min_groups=self.autoscale.min_groups,
                max_groups=self.autoscale.max_groups,
                nodes_per_group=nodes_per_group,
                provision_delay_s=self.autoscale.provision_delay_s,
                node_seconds=node_seconds,
                goodput_per_node_second=met / node_seconds if node_seconds else 0.0,
                events=tuple(ScaleEvent(**event) for event in events),
                timeline=tuple(timeline),
            )
        return self._build_report(
            trace, states, completions, tally["depth_area"],
            int(tally["depth_max"]), makespan, autoscale=autoscale_stats)

    def _step_policy_keys(self, arrivals: List[Request]) -> Dict[str, np.ndarray]:
        """The step loop's :func:`~repro.serve.engine.policy_order` key columns.

        Built from the float request fields: the server-0 service estimate
        (sjf), the priority tier (priority, slo) and the TTFT deadline
        ``arrival + ttft_slo_s``, ``inf`` without a target (slo).
        """
        policy = self.scheduler_name
        keys: Dict[str, np.ndarray] = {}
        if policy == "sjf":
            keys["service"] = np.array([
                self.service_seconds(request.workload, request.precision)
                for request in arrivals], np.float64)
        if policy in ("priority", "slo"):
            keys["priority"] = np.array(
                [request.priority for request in arrivals], np.int64)
        if policy == "slo":
            keys["deadline"] = np.array([
                request.arrival_s + request.ttft_slo_s
                if request.ttft_slo_s is not None else math.inf
                for request in arrivals], np.float64)
        return keys

    def _simulate_step_segment(
        self,
        arrivals: List[Request],
        lo: int,
        hi: int,
        queue: Union[_OrderQueue, _RoundRobinQueue],
        states: List[_NodeState],
        budget: float,
        restore_bandwidth: float,
        runtimes: Dict[int, _RunningRequest],
        completions: List[dict],
        tally: Dict[str, float],
        events: List[dict],
        timeline: List[Tuple[float, int]],
    ) -> None:
        """Run ranks ``lo..hi`` of ``arrivals`` as one cold-start segment of the step loop.

        ``queue`` is the policy queue of ranks (a fresh :class:`~repro.serve.
        engine._OrderQueue`, or the run's shared round-robin rotation).  The
        fleet starts idle — empty batches, no resident tenants, the
        autoscaled fleet back at ``min_groups`` with a fresh controller.
        Per-node accumulators and ``tally`` (queue-depth area/max, committed
        group-seconds) carry across segments; completions, scale events and
        fleet-timeline entries are appended in place.
        """
        apolicy = self.autoscale
        scaler = Autoscaler(apolicy) if apolicy is not None else None
        seg_start = arrivals[lo].arrival_s
        for state in states:
            state.free_at = 0.0
            state.last_tenant = None
            state.draining = False
            state.pending_stop = None
            state.stopped_at = -math.inf
            state.committed = apolicy is None or state.node_id < apolicy.min_groups
            state.serving_since = seg_start
        seg_changes: List[Tuple[float, int]] = []
        drain_marks: Dict[int, int] = {}
        next_window_end = seg_start + (apolicy.window_s if apolicy is not None else 0.0)
        window_depth_peak = 0
        window_served = 0
        window_misses = 0
        index = lo

        def advance(now: float, extra_queued: int = 0) -> None:
            if now > tally["last_event_t"]:
                tally["depth_area"] += (
                    (len(queue) + extra_queued) * (now - tally["last_event_t"]))
                tally["last_event_t"] = now

        def push(rank: int) -> None:
            nonlocal window_depth_peak
            queue.push(rank)
            depth = len(queue)
            if depth > tally["depth_max"]:
                tally["depth_max"] = depth
            if depth > window_depth_peak:
                window_depth_peak = depth

        def stop_group(state: _NodeState, stopped: float, event: dict) -> None:
            # The drained group's capacity merges back into the pool: it
            # stops accruing node-seconds and becomes eligible for a future
            # scale-out (which re-provisions it from scratch).
            event["stopped_s"] = stopped
            tally["group_seconds"] += stopped - state.serving_since
            state.committed = False
            state.draining = False
            state.pending_stop = None
            state.stopped_at = stopped
            mark = drain_marks.pop(state.node_id, len(self.last_admissions))
            self.last_drains.append(
                (state.node_id, mark, len(self.last_admissions)))
            seg_changes.append((stopped, -1))

        def tick(now: float) -> None:
            """Evaluate every pressure window that has elapsed by ``now``."""
            nonlocal next_window_end, window_depth_peak, window_served, window_misses
            if scaler is None:
                return
            while next_window_end <= now:
                t = next_window_end
                if len(queue) > window_depth_peak:
                    window_depth_peak = len(queue)
                # A group whose drain stops after t still counts as draining.
                committed = [s for s in states if s.committed or s.stopped_at > t]
                draining = sum(1 for s in committed if s.draining or not s.committed)
                decision = scaler.evaluate(
                    t,
                    WindowStats(
                        queue_depth_peak=window_depth_peak,
                        served=window_served,
                        slo_misses=window_misses),
                    len(committed),
                    draining)
                if decision is not None:
                    direction, reason = decision
                    event = {
                        "time_s": t,
                        "direction": direction,
                        "reason": reason,
                        "groups_before": len(committed),
                        "groups_after": (
                            len(committed) + (1 if direction == "out" else -1)),
                        "queue_depth": window_depth_peak,
                        "group_id": None,
                        "serving_from_s": None,
                        "stopped_s": None,
                    }
                    events.append(event)
                    if direction == "out":
                        target = min(
                            (s for s in states if not (s.committed or s.stopped_at > t)),
                            key=lambda s: s.node_id)
                        target.committed = True
                        target.draining = False
                        # A fresh provision: no resident tenant, and it can
                        # serve only after the provisioning delay.
                        target.last_tenant = None
                        target.free_at = t + apolicy.provision_delay_s
                        target.serving_since = t
                        event["group_id"] = target.node_id
                        event["serving_from_s"] = target.free_at
                        seg_changes.append((t, 1))
                    else:
                        victim = min(
                            (s for s in committed if s.committed and not s.draining),
                            key=lambda s: (len(s.batch), -s.node_id))
                        event["group_id"] = victim.node_id
                        if victim.batch:
                            victim.draining = True
                            victim.pending_stop = event
                            drain_marks[victim.node_id] = len(self.last_admissions)
                        else:
                            stop_group(victim, max(t, victim.free_at), event)
                window_depth_peak = 0
                window_served = 0
                window_misses = 0
                next_window_end += apolicy.window_s

        while index < hi or len(queue) or any(s.batch for s in states):
            busy = [s for s in states if s.batch]
            if len(queue):
                candidates = [
                    s for s in states if s.batch or (s.committed and not s.draining)]
            elif busy:
                candidates = busy
            else:
                # Globally idle: jump to the next arrival instant (admit ties
                # too) without touching any server clock — the admitting
                # server backdates its clock to the arrival below.  Windows
                # elapsing across the gap still tick, so an idle fleet can
                # scale in.
                now = arrivals[index].arrival_s
                tick(now)
                while index < hi and arrivals[index].arrival_s <= now:
                    advance(arrivals[index].arrival_s)
                    push(index)
                    index += 1
                continue
            state = min(candidates, key=lambda s: (s.free_at, s.node_id))
            tick(state.free_at)
            # Feed the waiting queue with everything that has arrived by this
            # server's clock.
            while index < hi and arrivals[index].arrival_s <= state.free_at:
                advance(arrivals[index].arrival_s)
                push(index)
                index += 1
            # --- admission: policy order, head-of-line, between iterations.
            # A draining group stops admitting; its residents run to completion.
            while (not state.draining and len(queue)
                   and len(state.batch) < self.max_batch):
                rank = queue.peek()
                request = arrivals[rank]
                if state.batch and request.arrival_s > state.free_at:
                    break  # not yet arrived from this server's perspective
                profile = self.service_profile(
                    request.workload, request.precision, server=state.node_id)
                member = runtimes.get(rank)
                step_index = member.step_index if member is not None else 0
                occupancy = sum(m.next_state_bytes for m in state.batch)
                if state.batch and occupancy + profile.steps[step_index].state_bytes > budget:
                    break  # no room in the KV budget; wait for completions
                queue.pop()
                admit_t = max(state.free_at, request.arrival_s)
                self.last_admissions.append((admit_t, state.node_id))
                # The popped request stays logically queued until admission.
                advance(admit_t, extra_queued=1)
                if not state.batch:
                    state.free_at = admit_t
                if member is None:
                    member = _RunningRequest(request=request, profile=profile, rank=rank)
                    runtimes[rank] = member
                else:
                    # A preempted request may resume on a different server;
                    # its step timings come from the server it runs on.
                    member.profile = profile
                if member.start_s is None:
                    member.start_s = state.free_at
                state.batch.append(member)
            if not state.batch:
                continue
            # --- preemption: members' next steps grew past the budget.
            if self.preemption:
                while (len(state.batch) > 1
                       and sum(m.next_state_bytes for m in state.batch) > budget):
                    victim = max(state.batch, key=_victim_key)
                    state.batch.remove(victim)
                    victim.preemptions += 1
                    victim.restore_pending = True
                    state.preemptions += 1
                    advance(state.free_at)
                    push(victim.rank)
            # --- one iteration: one step per member, (arrival, id) order,
            # per-pipeline-stage local clocks.
            iteration_start = state.free_at
            members = sorted(state.batch, key=lambda m: m.rank)
            stage_clock: Dict[int, float] = {}
            for member in members:
                step = member.profile.steps[member.step_index]
                clock = stage_clock.get(step.stage, iteration_start)
                switch_s = self._switch_seconds(state, member.request.tenant)
                state.last_tenant = member.request.tenant
                state.switch_s += switch_s
                member.switch_s += switch_s
                clock += switch_s
                if member.restore_pending:
                    clock += step.state_bytes / restore_bandwidth
                    member.restore_pending = False
                clock += step.seconds
                stage_clock[step.stage] = clock
                member.step_index += 1
                if member.first_token_s is None:
                    member.first_token_s = clock
                if member.step_index == len(member.profile.steps):
                    state.batch.remove(member)
                    state.completed += 1
                    del runtimes[member.rank]
                    tokens = member.profile.total_tokens
                    entry = {
                        "tenant": member.request.tenant,
                        "arrival_s": member.request.arrival_s,
                        "start_s": member.start_s,
                        "finish_s": clock,
                        "switch_s": member.switch_s,
                        "ttft_s": member.first_token_s - member.request.arrival_s,
                        "tpot_s": ((clock - member.first_token_s) / tokens
                                   if tokens else 0.0),
                        "tokens": tokens,
                        "ttft_slo_s": member.request.ttft_slo_s,
                        "tpot_slo_s": member.request.tpot_slo_s,
                        "preemptions": member.preemptions,
                    }
                    completions.append(entry)
                    if scaler is not None:
                        window_served += 1
                        if not _slo_met(entry):
                            window_misses += 1
            state.free_at = max(stage_clock.values())
            state.busy_s += state.free_at - iteration_start
            if state.draining and not state.batch:
                # The last resident finished: the drain completes at the end
                # of this iteration and the capacity merges back.
                stop_group(state, state.free_at, state.pending_stop)

        if apolicy is not None:
            seg_end = max(
                entry["finish_s"]
                for entry in completions[-(hi - lo):])
            for state in states:
                if state.committed:
                    tally["group_seconds"] += seg_end - state.serving_since
            fleet = apolicy.min_groups
            timeline.append((seg_start, fleet))
            for time_s, delta in sorted(seg_changes):
                fleet += delta
                timeline.append((time_s, fleet))

    def _build_report(
        self,
        trace: RequestTrace,
        states: List[_NodeState],
        completions: List[dict],
        depth_area: float,
        depth_max: int,
        makespan: float,
        autoscale: Optional[AutoscaleStats] = None,
    ) -> ServeReport:
        """Fold the loop's bookkeeping into the :class:`ServeReport`."""
        node_stats = [
            NodeStats(
                node_id=state.node_id,
                completed=state.completed,
                busy_s=state.busy_s,
                utilization=state.busy_s / makespan if makespan else 0.0,
                tenant_switches=state.tenant_switches,
                switch_s=state.switch_s,
                preemptions=state.preemptions,
            )
            for state in states
        ]
        return build_report(
            trace_name=trace.name,
            scheduler_name=self.scheduler_name,
            num_nodes=self.system.num_nodes,
            completions=completions,
            node_stats=node_stats,
            queue_depth_mean=depth_area / makespan if makespan else 0.0,
            queue_depth_max=depth_max,
            batching=self.batching,
            autoscale=autoscale,
        )

    # ------------------------------------------------------- functional check
    def functional_smoke(self, trace: RequestTrace, size: int = 48, max_requests: int = 4) -> int:
        """Drive the first trace requests through the real MPAIS async path.

        For up to ``max_requests`` requests (one small ``size``-cubed FP64
        GEMM each, round-robined across nodes) the smoke test submits via
        ``MA_CFG`` (:meth:`~repro.core.runtime.MACORuntime.gemm_async`), polls
        ``MA_READ``, drains with ``MA_STATE`` and checks the result against
        NumPy.  Returns the number of verified GEMMs; raises on mismatch.
        """
        import numpy as np

        from repro.core.runtime import MACORuntime

        runtime = MACORuntime(system=self.system)
        host = self.system.host_memory
        rng = np.random.default_rng(0)
        verified = 0
        for request in trace.requests[:max_requests]:
            node_id = verified % self.system.num_nodes
            node = self.system.node(node_id)
            # The event loop leaves each node on its last tenant's ASID; the
            # smoke GEMM allocates in the node's default address space, so
            # switch back before submitting.
            if node.cpu.processes.current is not node.default_process:
                node.cpu.switch_process(node.default_process.asid)
            before = set(host.registered_bases())
            a = rng.standard_normal((size, size))
            b = rng.standard_normal((size, size))
            handle = runtime.gemm_async(a, b, node_id=node_id, precision=Precision.FP64)
            runtime.poll(handle)  # MA_READ must not release the entry
            result = runtime.wait(handle)
            if not np.allclose(result, a @ b):
                raise AssertionError(
                    f"functional GEMM mismatch for request {request.request_id} on node {node_id}"
                )
            # Nodes share one host memory but allocate from per-node address
            # spaces with identical bases, so release the scratch operands
            # before the next node reuses the same virtual range.
            for base in set(host.registered_bases()) - before:
                host.unregister(base)
            verified += 1
        return verified
