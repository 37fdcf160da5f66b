"""Scalar reference implementations: the oracles the fast paths are checked against.

Every vectorised production path in this repo has a straightforward
element-at-a-time twin that defines what "correct" means for it.  The twins
live here, with the checks that use them, instead of beside the code they
specify; the production modules carry one implementation of each thing.
Each pair must agree *bit for bit* — same values, same order, same counters —
and the parity tests, the ``serve-parity``/``trace-roundtrip`` fuzz kinds,
the ``wavefront`` golden kernel and ``repro.cli bench`` all assert it.

* :func:`poisson_trace_scalar` / :func:`bursty_trace_scalar` — per-request
  trace generators for :func:`~repro.serve.trace.poisson_trace` and
  :func:`~repro.serve.trace.bursty_trace`;
* :class:`ReferenceServeSimulator` — a :class:`~repro.serve.ServeSimulator`
  whose request-level segments run :func:`run_segment_scalar`, the per-event
  loop with tuple-keyed policy heaps, instead of
  :func:`~repro.serve.engine.run_segment`;
* :func:`tile_page_addresses_scalar` — the per-row page walk behind
  :meth:`~repro.mmae.matlb.PageTablePredictor.tile_page_vaddrs`;
* :func:`translate_tile_scalar` — the per-page translation loop behind
  :meth:`~repro.mmae.data_engine.AcceleratorDataEngine.translate_tile_batch`;
* :class:`SystolicArrayEmulator` — the per-PE wavefront behind
  :class:`~repro.mmae.systolic_array.VectorizedSystolicArrayEmulator`;
* :class:`ReferenceCollectiveCostModel` — a
  :class:`~repro.parallel.CollectiveCostModel` that walks every X-Y route on
  every ring step instead of reading the memoised route geometry;
* :func:`build_tile_schedule_scalar` / :func:`estimate_translation_stalls_scalar`
  — per-tile walks over every first-level :class:`~repro.gemm.tiling.Tile`
  behind :func:`~repro.mmae.dataflow.build_tile_schedule` and
  :func:`~repro.mmae.matlb.estimate_translation_stalls`, which price each
  distinct tile extent once.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.gemm.precision import Precision
from repro.gemm.tiling import TileConfig, TwoLevelTiling
from repro.gemm.workloads import GEMMShape
from repro.mem.address import DEFAULT_PAGE_SIZE, align_down
from repro.mmae.dataflow import (
    MemoryEnvironment,
    MMAETimingParameters,
    TileSchedule,
    _level1_tile_compute_cycles,
)
from repro.mmae.matlb import (
    MatrixLayout,
    PageTablePredictor,
    TranslationStallEstimate,
    TranslationTimingParameters,
    _unique_pages,
)
from repro.mmae.pe import ProcessingElement
from repro.mmae.systolic_array import SystolicArray, TileComputeResult
from repro.noc.routing import route_hops, route_links
from repro.parallel.collective import CollectiveCostModel
from repro.serve.engine import EngineTrace, _FifoQueue, _RoundRobinQueue
from repro.serve.simulator import ServeSimulator
from repro.serve.trace import Request, RequestTrace, TenantSpec, _bursty_rates

__all__ = [
    "ReferenceCollectiveCostModel",
    "ReferenceServeSimulator",
    "SystolicArrayEmulator",
    "build_tile_schedule_scalar",
    "bursty_trace_scalar",
    "estimate_translation_stalls_scalar",
    "poisson_trace_scalar",
    "run_segment_scalar",
    "tile_page_addresses_scalar",
    "translate_tile_scalar",
]


# ------------------------------------------------------------ trace generators
#: Per-request scheduling metadata carried through trace generation:
#: ``(priority, ttft_slo_s, tpot_slo_s)``.
_SLOFields = Tuple[int, Optional[float], Optional[float]]


def _slo_fields(spec: TenantSpec) -> _SLOFields:
    return (spec.priority, spec.ttft_slo_s, spec.tpot_slo_s)


def _exp_gap(uniform: float, rate: float) -> float:
    """One exponential inter-arrival gap from one uniform draw.

    Routed through ``np.log`` (not ``math.log``: the two can differ in the
    last ulp) so the scalar generators consume uniforms exactly like the
    vectorised ``-np.log(1 - u) / rate`` over a chunk.
    """
    return float(-np.log(1.0 - uniform) / rate)


def _pick_workload(spec: TenantSpec, rng: random.Random) -> str:
    """Draw one workload name from the tenant's (normalised) mix."""
    total = sum(weight for _, weight in spec.mix)
    draw = rng.random() * total
    cumulative = 0.0
    for name, weight in spec.mix:
        cumulative += weight
        if draw < cumulative:
            return name
    return spec.mix[-1][0]


def _finalize(name: str, pending: List[Tuple[float, str, int, str, Precision, _SLOFields]],
              duration_s: float) -> RequestTrace:
    """Sort merged per-tenant arrivals and assign stable request ids.

    The sort key ``(arrival, tenant, per-tenant sequence)`` breaks ties
    deterministically, so the same inputs always produce the same ids.
    """
    pending.sort(key=lambda item: (item[0], item[1], item[2]))
    requests = [
        Request(request_id=index, tenant=tenant, workload=workload,
                arrival_s=arrival, precision=precision,
                priority=slo[0], ttft_slo_s=slo[1], tpot_slo_s=slo[2])
        for index, (arrival, tenant, _seq, workload, precision, slo) in enumerate(pending)
    ]
    return RequestTrace(name=name, requests=requests, duration_s=duration_s)


def poisson_trace_scalar(
    tenants: Sequence[TenantSpec],
    duration_s: float,
    seed: int = 0,
    precision: Precision = Precision.FP32,
) -> RequestTrace:
    """Per-request reference implementation of :func:`~repro.serve.poisson_trace`.

    The vectorised generator must reproduce this trace bit for bit
    (``to_records()`` equality) for every seed.
    """
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    pending: List[Tuple[float, str, int, str, Precision, _SLOFields]] = []
    for spec in tenants:
        rng = random.Random(f"{seed}/poisson/{spec.name}")
        slo = _slo_fields(spec)
        clock, sequence = 0.0, 0
        while True:
            clock += _exp_gap(rng.random(), spec.rate_rps)
            if clock >= duration_s:
                break
            pending.append((clock, spec.name, sequence, _pick_workload(spec, rng), precision, slo))
            sequence += 1
    return _finalize(f"poisson-seed{seed}", pending, duration_s)


def bursty_trace_scalar(
    tenants: Sequence[TenantSpec],
    duration_s: float,
    seed: int = 0,
    precision: Precision = Precision.FP32,
    burst_factor: float = 8.0,
    burst_fraction: float = 0.2,
    cycle_s: float = 0.25,
) -> RequestTrace:
    """Per-request reference implementation of :func:`~repro.serve.bursty_trace`."""
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    if not 1 <= burst_factor < math.inf:  # NaN fails this too
        raise ValueError(f"burst factor must be finite and >= 1, got {burst_factor}")
    if not 0 < burst_fraction < 1:
        raise ValueError(f"burst fraction must be in (0, 1), got {burst_fraction}")
    if cycle_s <= 0:
        raise ValueError(f"cycle length must be positive, got {cycle_s}")
    pending: List[Tuple[float, str, int, str, Precision, _SLOFields]] = []
    for spec in tenants:
        rng = random.Random(f"{seed}/bursty/{spec.name}")
        slo = _slo_fields(spec)
        on_rate, off_rate = _bursty_rates(spec, burst_factor, burst_fraction)
        clock, sequence = 0.0, 0
        while True:
            clock += _exp_gap(rng.random(), on_rate)
            if clock >= duration_s:
                break
            in_burst = (clock % cycle_s) / cycle_s < burst_fraction
            rate_now = on_rate if in_burst else off_rate
            if rng.random() * on_rate < rate_now:  # thinning acceptance
                pending.append((clock, spec.name, sequence, _pick_workload(spec, rng),
                                precision, slo))
                sequence += 1
    return _finalize(f"bursty-seed{seed}", pending, duration_s)


# ---------------------------------------------------------- serve event engine
class _TupleHeapQueue:
    """Reference policy heap: ``key(rank) + (rank,)`` tuples, min-heap order.

    The trailing rank reproduces the legacy ``(arrival, id)`` tie-break —
    canonical rank order *is* ``(arrival tick, id)`` order.
    """

    __slots__ = ("_key", "_heap")

    def __init__(self, key) -> None:
        self._key = key
        self._heap: List[Tuple[int, ...]] = []

    def push(self, rank: int) -> None:
        heapq.heappush(self._heap, self._key(rank) + (rank,))

    def pop(self) -> int:
        return heapq.heappop(self._heap)[-1]

    def __len__(self) -> int:
        return len(self._heap)


def _reference_queue(et: EngineTrace):
    """The reference engine's policy queue: tuple keys, one push per admission."""
    if et.policy == "fcfs":
        return _FifoQueue()
    if et.policy == "rr":
        return _RoundRobinQueue(et.tenant)
    if et.policy == "sjf":
        return _TupleHeapQueue(lambda rank: (int(et.svc0[rank]),))
    if et.policy == "priority":
        return _TupleHeapQueue(lambda rank: (-int(et.priority[rank]),))
    if et.policy == "slo":
        return _TupleHeapQueue(
            lambda rank: (-int(et.priority[rank]), int(et.deadline[rank])))
    raise ValueError(f"unknown scheduling policy {et.policy!r}")


def run_segment_scalar(et: EngineTrace, lo: int, hi: int):
    """Reference engine: the legacy event loop, one rank at a time, in ticks.

    Semantics (identical to the pre-vectorisation loop): pick the earliest
    free server (``(free_at, node)`` heap), admit every arrival up to its
    clock, pop the policy, gate a tenant change on the pipeline drain, charge
    the constant switch cost, occupy the server for one pipeline interval and
    drain it at the full latency.
    """
    count = hi - lo
    start = np.empty(count, np.int64)
    first = np.empty(count, np.int64)
    finish = np.empty(count, np.int64)
    accumulators = np.zeros((et.num_servers, 4), np.int64)
    arrival, tenant, pair = et.arrival, et.tenant, et.pair
    latency_table, interval_table, first_table = (
        et.latency_table, et.interval_table, et.first_table)
    switch_ticks = et.switch_ticks
    queue = _reference_queue(et)
    servers = [(0, node) for node in range(et.num_servers)]
    drain = [0] * et.num_servers
    last_tenant: List[Optional[int]] = [None] * et.num_servers
    index = lo
    while index < hi or len(queue):
        free_at, node = servers[0]
        while index < hi and arrival[index] <= free_at:
            queue.push(index)
            index += 1
        if not len(queue):
            now = int(arrival[index])
            while index < hi and arrival[index] <= now:
                queue.push(index)
                index += 1
            continue
        rank = queue.pop()
        this_tenant = int(tenant[rank])
        begin = max(free_at, int(arrival[rank]))
        switch = 0
        if last_tenant[node] is not None and last_tenant[node] != this_tenant:
            begin = max(begin, drain[node])
            switch = switch_ticks
            accumulators[node, 3] += 1
        row = int(pair[rank])
        dispatch = begin + switch
        done = dispatch + int(latency_table[row, node])
        start[rank - lo] = begin
        first[rank - lo] = dispatch + int(first_table[row, node])
        finish[rank - lo] = done
        interval = int(interval_table[row, node])
        heapq.heapreplace(servers, (dispatch + interval, node))
        drain[node] = done
        last_tenant[node] = this_tenant
        accumulators[node, 0] += 1
        accumulators[node, 1] += switch + interval
        accumulators[node, 2] += switch
    return start, first, finish, accumulators


class ReferenceServeSimulator(ServeSimulator):
    """A :class:`~repro.serve.ServeSimulator` on the per-event reference engine.

    Only the request-level segment runner differs (step batching at
    ``max_batch=1`` without preemption routes through it too), so any report
    this simulator emits must equal the production simulator's byte for byte.
    """

    _segment_runner = staticmethod(run_segment_scalar)


# ---------------------------------------------------------- collective pricing
class ReferenceCollectiveCostModel(CollectiveCostModel):
    """A :class:`~repro.parallel.CollectiveCostModel` that re-walks every route.

    Each ring step rebuilds the link-load map from fresh X-Y route walks
    (background groups validated through :meth:`ring_edges` every time), so
    the five public ``*_seconds`` methods must equal the memoised production
    model's exactly.
    """

    def _link_loads(self, edges: Iterable[Tuple[int, int]]) -> Dict[Tuple[int, int], int]:
        """How many concurrent flows each directed mesh link carries."""
        loads: Dict[Tuple[int, int], int] = {}
        for src, dst in edges:
            for link in route_links(self.topology, src, dst):
                loads[link] = loads.get(link, 0) + 1
        return loads

    def _bottleneck_load(self, edges: Sequence[Tuple[int, int]],
                         background: Sequence[Sequence[int]]) -> int:
        """Worst link load on the foreground edges' links, background rings overlaid."""
        overlay = list(edges)
        for group in background:
            overlay.extend(self.ring_edges(group))
        loads = self._link_loads(overlay)
        worst = 1
        for src, dst in edges:
            for link in route_links(self.topology, src, dst):
                worst = max(worst, loads[link])
        return worst

    def _step_seconds(self, edges: Sequence[Tuple[int, int]], chunk_bytes: float,
                      background: Sequence[Sequence[int]]) -> float:
        load = self._bottleneck_load(edges, background)
        wire_bytes = chunk_bytes * (1.0 + self.protocol_overhead)
        serialization = wire_bytes * load / self.config.link_bandwidth_bytes_per_s
        max_hops = max(route_hops(self.topology, src, dst) for src, dst in edges)
        latency = (max_hops + 1) * self.config.router_pipeline_cycles * self.config.cycle_time_s
        return serialization + latency


# ------------------------------------------------------------ timing misses
def build_tile_schedule_scalar(
    shape: GEMMShape,
    level1: TileConfig,
    level2: TileConfig,
    params: MMAETimingParameters,
    env: MemoryEnvironment,
) -> TileSchedule:
    """Per-tile schedule walk: the reference for
    :func:`~repro.mmae.dataflow.build_tile_schedule`."""
    array = SystolicArray(params.sa_rows, params.sa_cols, params.frequency_hz)
    tiling = TwoLevelTiling(shape, level1, level2)
    element = shape.precision.bytes_per_element

    compute_cycles = 0.0
    l3_traffic = 0.0
    dram_traffic = 0.0
    num_level1 = 0
    num_level2 = 0
    for tile in tiling.level1_tiles():
        num_level1 += 1
        num_level2 += tiling.num_level2_tiles(tile)
        compute_cycles += _level1_tile_compute_cycles(
            array, tile.rows, tile.cols, tile.depth, level2, shape.precision
        )
        reloads_a = math.ceil(tile.cols / level2.cols)
        reloads_b = math.ceil(tile.rows / level2.rows)
        a_panel = tile.rows * tile.depth * element
        b_panel = tile.depth * tile.cols * element
        c_tile = tile.rows * tile.cols * element
        tile_l3 = reloads_a * a_panel + reloads_b * b_panel + 2 * c_tile
        compulsory = a_panel + b_panel + 2 * c_tile
        working_set = a_panel + b_panel + c_tile
        reuse_fraction = min(1.0, env.l3_share_bytes / working_set) if working_set else 1.0
        tile_dram = compulsory + (tile_l3 - compulsory) * (1.0 - reuse_fraction)
        l3_traffic += tile_l3
        dram_traffic += tile_dram

    return TileSchedule(
        shape=shape,
        level1=level1,
        level2=level2,
        num_level1_tiles=num_level1,
        num_level2_tiles=num_level2,
        compute_cycles=compute_cycles,
        l3_traffic_bytes=l3_traffic,
        dram_traffic_bytes=dram_traffic,
    )


def estimate_translation_stalls_scalar(
    shape: GEMMShape,
    level1: TileConfig,
    level2: TileConfig,
    page_size: int = DEFAULT_PAGE_SIZE,
    prediction_enabled: bool = True,
    params: TranslationTimingParameters = TranslationTimingParameters(),
) -> TranslationStallEstimate:
    """Per-tile page-walk estimate: the reference for
    :func:`~repro.mmae.matlb.estimate_translation_stalls`."""
    element = shape.precision.bytes_per_element
    tiling = TwoLevelTiling(shape, level1, level2)
    total_first = 0
    total_retouch = 0
    total_unique = 0
    for tile in tiling.level1_tiles():
        pages_a = _unique_pages(tile.rows, tile.depth * element, shape.k * element, page_size)
        pages_b = _unique_pages(tile.depth, tile.cols * element, shape.n * element, page_size)
        pages_c = _unique_pages(tile.rows, tile.cols * element, shape.n * element, page_size)
        unique = pages_a + pages_b + pages_c
        total_unique += unique
        thrash_fraction = max(0.0, (unique - params.shared_tlb_entries) / unique) if unique else 0.0
        touches_a = math.ceil(tile.cols / level2.cols)
        touches_b = math.ceil(tile.rows / level2.rows)
        retouch = (
            (touches_a - 1) * pages_a * thrash_fraction
            + (touches_b - 1) * pages_b * thrash_fraction
        )
        total_first += unique
        total_retouch += int(round(retouch))

    stall_cycles = (
        total_first * params.first_touch_walk_cycles
        + total_retouch * params.retouch_walk_cycles
    )
    if prediction_enabled:
        stall_cycles *= params.predicted_exposed_fraction
    return TranslationStallEstimate(
        unique_pages=total_unique,
        first_touch_walks=total_first,
        retouch_walks=total_retouch,
        stall_cycles=stall_cycles,
        prediction_enabled=prediction_enabled,
    )


# ------------------------------------------------------- functional fast path
def tile_page_addresses_scalar(
    predictor: PageTablePredictor,
    layout: MatrixLayout,
    row_start: int,
    row_count: int,
    col_start: int,
    col_count: int,
) -> List[int]:
    """Element-at-a-time page enumeration: the reference for
    :meth:`~repro.mmae.matlb.PageTablePredictor.tile_page_vaddrs`."""
    predictor._check_tile(layout, row_start, row_count, col_start, col_count)
    page_size = predictor.page_size
    pages: List[int] = []
    seen: Set[int] = set()
    for row in range(row_start, row_start + row_count):
        first = layout.element_vaddr(row, col_start)
        last = layout.element_vaddr(row, col_start + col_count - 1) + layout.element_bytes - 1
        page = align_down(first, page_size)
        while page <= last:
            if page not in seen:
                seen.add(page)
                pages.append(page)
            page += page_size
    return pages


def translate_tile_scalar(
    ade,
    mmu,
    asid: int,
    layout: MatrixLayout,
    tile_rows: Tuple[int, int],
    tile_cols: Tuple[int, int],
    prediction_enabled: bool,
) -> int:
    """Translate every page a tile touches, one page at a time.

    The reference for
    :meth:`~repro.mmae.data_engine.AcceleratorDataEngine.translate_tile_batch`
    (same signature, with the engine as the first argument).  With
    prediction the mATLB pre-walks the pages (walk cycles are treated as
    hidden) and the demand lookups hit; without prediction each page missing
    from the mATLB costs a demand walk through the shared MMU.  Returns the
    exposed stall cycles.
    """
    row_start, row_count = tile_rows
    col_start, col_count = tile_cols
    pages = tile_page_addresses_scalar(
        ade.matlb.predictor, layout, row_start, row_count, col_start, col_count
    )
    stall_cycles = 0
    if prediction_enabled:
        ade.matlb.prewalk_pages(mmu, asid, pages)
    for page_vaddr in pages:
        if ade.matlb.lookup(page_vaddr) is None:
            result = mmu.translate_data(asid, page_vaddr)
            ade.demand_translations += 1
            stall_cycles += result.cycles
    ade.translation_stall_cycles += stall_cycles
    return stall_cycles


class SystolicArrayEmulator:
    """Cycle-stepped emulation of the input-stationary wavefront.

    The emulator instantiates real :class:`ProcessingElement` objects and
    advances the array cycle by cycle: A elements enter from the west edge
    skewed by row, partial sums propagate south, and results exit the south
    edge skewed by column.  It is quadratic in tile size, so it runs only on
    small tiles, where it validates both the numerical result and the
    ``rows + cols + tr - 2``-cycle latency the analytical model assumes for a
    single stationary block.
    """

    def __init__(self, rows: int = 4, cols: int = 4, precision: Precision = Precision.FP64) -> None:
        self.rows = rows
        self.cols = cols
        self.precision = precision
        self.pes = [
            [ProcessingElement(row=r, col=c, precision=precision) for c in range(cols)]
            for r in range(rows)
        ]

    def run_block(self, a_block: np.ndarray, b_block: np.ndarray) -> TileComputeResult:
        """Run one stationary block: ``a_block (tr x rows) @ b_block (rows x cols)``.

        The B block must match the array dimensions exactly (one stationary
        element per PE, single-lane mode).
        """
        if self.precision.simd_ways != 1:
            raise NotImplementedError("the emulator models the single-lane (FP64) dataflow")
        tr, depth = a_block.shape
        if depth != self.rows or b_block.shape != (self.rows, self.cols):
            raise ValueError(
                f"expected A (tr x {self.rows}) and B ({self.rows} x {self.cols}), "
                f"got {a_block.shape} and {b_block.shape}"
            )
        # Load stationary operands.
        for r in range(self.rows):
            for c in range(self.cols):
                self.pes[r][c].load_weights([float(b_block[r, c])])

        acc_dtype = self.precision.accumulate_dtype
        output = np.zeros((tr, self.cols), dtype=acc_dtype)
        total_cycles = self.rows + self.cols + tr - 2
        # a_wavefront[r] holds the skewed stream of A values entering row r.
        # partial[r][c] holds the value travelling from PE (r-1, c) to PE (r, c).
        partial = np.zeros((self.rows + 1, self.cols), dtype=acc_dtype)
        a_in_flight = np.zeros((self.rows, self.cols + 1), dtype=acc_dtype)
        for cycle in range(total_cycles):
            new_partial = np.zeros_like(partial)
            new_a = np.zeros_like(a_in_flight)
            for r in range(self.rows):
                # A value entering row r this cycle (skewed injection).
                inject_index = cycle - r
                if 0 <= inject_index < tr:
                    new_a[r, 0] = a_block[inject_index, r]
                for c in range(self.cols):
                    # The value arriving at PE (r, c) travelled from the west;
                    # column 0 consumes this cycle's injection directly.
                    a_value = new_a[r, 0] if c == 0 else a_in_flight[r, c]
                    p_value = partial[r, c]
                    result = self.pes[r][c].mac([float(a_value)], [float(p_value)])[0]
                    new_partial[r + 1, c] = result
                    new_a[r, c + 1] = a_value
            partial = new_partial
            a_in_flight = new_a
            # Collect results leaving the south edge: row index of the output is
            # determined by the injection skew.
            for c in range(self.cols):
                out_index = cycle - (self.rows - 1) - c
                if 0 <= out_index < tr:
                    output[out_index, c] = partial[self.rows, c]
        return TileComputeResult(output=output, cycles=total_cycles, macs=tr * self.rows * self.cols)
