"""Integer-tick request-level event engine for the serving simulator.

This module is the array-first rebuild of the legacy ``_run_request_level``
loop (see DESIGN.md section 9).  Three decisions give it both speed and the
repo's byte-identical determinism guarantees:

**Integer nanosecond ticks.**  All event arithmetic runs on int64 nanosecond
ticks (:data:`TICKS_PER_SECOND`); float seconds appear only at the report
boundary.  Service estimates convert with a *ceiling* (a request is never
reported faster than its analytic estimate), arrivals round to the nearest
tick.  Integer math is exact and associative, so two different engines — or
one trace split into shards — produce bit-equal completion columns, and the
shared :func:`~repro.serve.report.build_report_from_columns` turns equal
columns into byte-identical JSON.

**One engine, one oracle.**  :func:`run_segment` does bulk admission over
the sorted arrival array into policy heaps fed by one :func:`policy_order`
sort per segment, plus a fully vectorised closed form for the FCFS
single-server case: with one server the dispatch order is the canonical
order, so start times collapse to a max-plus prefix scan
``start = cumsum(cost) + running_max(arrival - cumsum(cost))`` — no event
loop at all.  Its per-event reference, a straightforward Python loop
with tuple-keyed policy heaps, lives in :mod:`repro.conformance.reference`;
the parity suite asserts the two produce byte-identical reports across every
policy.

**Deterministic idle-point sharding.**  :func:`segment_bounds` computes a
conservative drain bound — the makespan of a single server executing every
request serially at its worst-case per-server cost, again a max-plus scan —
and cuts the trace wherever the bound finishes before the next arrival.  At
such a cut *any* work-conserving multi-server schedule has drained, so each
segment simulates from a cold fleet and the merged columns are identical for
every shard count: the cuts depend only on the trace, never on the execution.
Segments restart with no resident tenant — a tenant switch across a provable
idle gap overlaps the idle time instead of delaying the request, so it is
absorbed (and not charged).  ``shards=None`` skips segmentation entirely and
reproduces the legacy continuous semantics.

The engine consumes the columnar trace (:class:`~repro.serve.trace.
TraceColumns`) directly — requests are rank indices into arrays, and no
``Request`` objects are materialised on the hot path.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.serve.report import TICKS_PER_SECOND

__all__ = [
    "TICKS_PER_SECOND",
    "EngineTrace",
    "segment_bounds",
    "shard_plan",
    "run_segment",
    "simulate_segments",
    "policy_order",
]

#: Deadline sentinel for requests without a TTFT SLO under the slo policy:
#: far beyond any reachable tick, so deadline-less requests order after every
#: deadline-carrying one of equal priority (the legacy ``inf`` tie-break).
NO_DEADLINE = 2**62


@dataclass(frozen=True)
class EngineTrace:
    """A trace lowered to canonical-order tick arrays plus service tables.

    Rows are *ranks*: requests sorted by ``(arrival tick, request id)``.  Per
    rank, ``pair`` indexes the distinct ``(workload, precision)`` tables;
    ``latency/interval/first_table`` hold each pair's ceiling-tick service
    figures per server (one column per server — the np.take lookup that
    replaces a dict hit per event).  ``svc0`` (server-0 latency, the sjf key),
    ``priority`` and ``deadline`` (arrival + TTFT SLO, :data:`NO_DEADLINE`
    when absent) are pre-expanded per rank as the :func:`policy_order` key
    columns.  The whole record is plain arrays and ints, so it pickles
    cheaply to shard workers.
    """

    policy: str
    num_servers: int
    switch_ticks: int
    arrival: np.ndarray
    tenant: np.ndarray
    pair: np.ndarray
    latency_table: np.ndarray
    interval_table: np.ndarray
    first_table: np.ndarray
    tokens_table: np.ndarray
    svc0: np.ndarray
    priority: np.ndarray
    deadline: np.ndarray
    uniform_interval: bool

    def __len__(self) -> int:
        return len(self.arrival)


# -------------------------------------------------------------- policy queues
def policy_order(policy: str, count: int, service=None, priority=None, deadline=None):
    """Local indices ``0..count-1`` in ``policy`` admission order.

    Index order is ``(arrival, id)`` order, so one stable ``np.lexsort`` over
    the policy's key columns, ties left on index, is the whole policy:
    ``sjf`` orders by ``service``, ``priority`` by descending ``priority``,
    ``slo`` by descending ``priority`` then ascending ``deadline`` (``inf``
    or :data:`NO_DEADLINE` sorts last in its tier).  ``fcfs`` and ``rr`` are
    index order; ``rr`` rotates tenants in :class:`_RoundRobinQueue` instead.
    The columns may be float or int64; only the policy's own are read.
    """
    if policy in ("fcfs", "rr"):
        return np.arange(count)
    if policy == "sjf":
        return np.lexsort((service,))
    if policy == "priority":
        return np.lexsort((-priority,))
    if policy == "slo":
        return np.lexsort((deadline, -priority))
    raise ValueError(f"unknown scheduling policy {policy!r}")


class _FifoQueue:
    """FCFS: ranks are pushed in rank order, so a head pointer suffices."""

    __slots__ = ("_ranks", "_head")

    def __init__(self) -> None:
        self._ranks: List[int] = []
        self._head = 0

    def push(self, rank: int) -> None:
        self._ranks.append(rank)

    def pop(self) -> int:
        rank = self._ranks[self._head]
        self._head += 1
        if self._head > 4096 and self._head * 2 > len(self._ranks):
            del self._ranks[: self._head]
            self._head = 0
        return rank

    def __len__(self) -> int:
        return len(self._ranks) - self._head


class _OrderQueue:
    """Policy heap over positions in a :func:`policy_order` permutation.

    ``order`` lists the local indices of ranks ``lo..`` in policy order; the
    heap holds each queued rank's position in it, so the smallest position is
    the policy's next pick.  A rank keeps its position forever, so one that
    is popped and pushed again (a preempted request) returns to its original
    place.  Both tables are flat int64 arrays (8 bytes a rank), not lists
    of int objects.
    """

    __slots__ = ("_order", "_position", "_heap", "_lo")

    def __init__(self, order: np.ndarray, lo: int) -> None:
        self._order = array("q", (order + lo).astype(np.int64).tobytes())
        position = np.empty(len(order), np.int64)
        position[order] = np.arange(len(order))
        self._position = array("q", position.tobytes())
        self._heap: List[int] = []
        self._lo = lo

    def push(self, rank: int) -> None:
        heapq.heappush(self._heap, self._position[rank - self._lo])

    def peek(self) -> int:
        return self._order[self._heap[0]]

    def pop(self) -> int:
        return self._order[heapq.heappop(self._heap)]

    def __len__(self) -> int:
        return len(self._heap)


class _RoundRobinQueue:
    """Per-tenant FIFO queues served cyclically over rank indices.

    Tenants enter the rotation in first-push order, and a pop advances the
    cursor past the served tenant, so every tenant with queued work is
    visited before any tenant is served twice.  Each tenant's queue stays in
    rank order: a rank pushed behind a larger one (a preempted request) is
    inserted at its place, so resume never jumps a tenant-mate that arrived
    earlier.  ``tenant_of`` maps a rank to its tenant id.
    """

    __slots__ = ("_tenant", "_queues", "_rotation", "_cursor", "_size")

    def __init__(self, tenant_of) -> None:
        self._tenant = tenant_of
        self._queues: Dict[int, Deque[int]] = {}
        self._rotation: List[int] = []
        self._cursor = 0
        self._size = 0

    def push(self, rank: int) -> None:
        tenant = int(self._tenant[rank])
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
            self._rotation.append(tenant)
        if queue and queue[-1] > rank:
            insort(queue, rank)
        else:
            queue.append(rank)
        self._size += 1

    def _next(self) -> int:
        """Rotation index of the next tenant with queued ranks."""
        length = len(self._rotation)
        for offset in range(length):
            index = (self._cursor + offset) % length
            if self._queues[self._rotation[index]]:
                return index
        raise IndexError("pop from an empty round-robin queue")

    def peek(self) -> int:
        return self._queues[self._rotation[self._next()]][0]

    def pop(self) -> int:
        index = self._next()
        self._cursor = (index + 1) % len(self._rotation)
        self._size -= 1
        return self._queues[self._rotation[index]].popleft()

    def __len__(self) -> int:
        return self._size


def _policy_queue(et: EngineTrace, lo: int, hi: int):
    """The request engine's policy queue for ranks ``lo..hi``."""
    if et.policy == "fcfs":
        return _FifoQueue()
    if et.policy == "rr":
        return _RoundRobinQueue(et.tenant)
    order = policy_order(
        et.policy, hi - lo, service=et.svc0[lo:hi], priority=et.priority[lo:hi], deadline=et.deadline[lo:hi]
    )
    return _OrderQueue(order, lo)


# ------------------------------------------------------------------- engines
def _run_segment_closed_form(et: EngineTrace, lo: int, hi: int):
    """FCFS on one uniform-interval server: dispatch is a prefix scan.

    With a single server FCFS dispatches in rank order, so with ``cost_r =
    switch_r + latency_r`` the recurrence ``start_r = max(start_{r-1} +
    cost_{r-1}, arrival_r)`` unrolls to ``start_r = C_{r-1} + max_{j<=r}
    (arrival_j - C_{j-1})`` where ``C`` is the inclusive cost prefix sum —
    one ``cumsum`` plus one ``maximum.accumulate``, no event loop.  Exact on
    int64, so it is bit-equal to the reference engine by construction (the
    parity tests enforce it anyway).
    """
    arrival = et.arrival[lo:hi]
    tenant = et.tenant[lo:hi]
    pair = et.pair[lo:hi]
    latency = et.latency_table[pair, 0]
    count = hi - lo
    changed = np.empty(count, dtype=bool)
    changed[0] = False  # a cold server adopts its first tenant for free
    np.not_equal(tenant[1:], tenant[:-1], out=changed[1:])
    switch = changed * np.int64(et.switch_ticks)
    cost = switch + latency
    inclusive = np.cumsum(cost)
    exclusive = inclusive - cost
    start = exclusive + np.maximum.accumulate(arrival - exclusive)
    dispatch = start + switch
    finish = dispatch + latency
    first = dispatch + et.first_table[pair, 0]
    switches = int(np.count_nonzero(changed))
    accumulators = np.zeros((1, 4), np.int64)
    accumulators[0, 0] = count
    # cumsum already computed the exact cost total (the closed form is only
    # valid when the prefix sums fit int64 anyway), and every switch charges
    # the same constant, so neither sum needs another pass.
    accumulators[0, 1] = int(inclusive[-1])
    accumulators[0, 2] = switches * et.switch_ticks
    accumulators[0, 3] = switches
    return start, first, finish, accumulators


def run_segment(et: EngineTrace, lo: int, hi: int):
    """Simulate ranks ``lo..hi`` cold: closed form when eligible, else a bulk-admission loop.

    The general loop differs from the reference in mechanics, not semantics:
    arrivals live in local Python lists (no per-element numpy boxing),
    admission windows come from one binary search per event instead of a
    peek-per-request scan, and the policy heaps hold positions in one
    precomputed :func:`policy_order` permutation.
    """
    if et.policy == "fcfs" and et.num_servers == 1 and et.uniform_interval:
        return _run_segment_closed_form(et, lo, hi)

    count = hi - lo
    start = np.empty(count, np.int64)
    first = np.empty(count, np.int64)
    finish = np.empty(count, np.int64)
    accumulators = np.zeros((et.num_servers, 4), np.int64)
    arrival = et.arrival[lo:hi].tolist()
    tenant = et.tenant[lo:hi].tolist()
    pair = et.pair[lo:hi].tolist()
    latency_rows = et.latency_table.tolist()
    interval_rows = et.interval_table.tolist()
    first_rows = et.first_table.tolist()
    switch_ticks = et.switch_ticks
    queue = _policy_queue(et, lo, hi)
    start_list = start  # direct ndarray writes are fine; assignment is int64
    servers = [(0, node) for node in range(et.num_servers)]
    drain = [0] * et.num_servers
    last_tenant: List[Optional[int]] = [None] * et.num_servers
    admitted = 0
    push = queue.push
    while admitted < count or len(queue):
        free_at, node = servers[0]
        if admitted < count:
            # One binary search finds the whole admission window.
            window = bisect_right(arrival, free_at, admitted)
            for position in range(admitted, window):
                push(lo + position)
            admitted = window
            if not len(queue):
                now = arrival[admitted]
                window = bisect_right(arrival, now, admitted)
                for position in range(admitted, window):
                    push(lo + position)
                admitted = window
                continue
        rank = queue.pop()
        position = rank - lo
        this_tenant = tenant[position]
        begin = free_at if free_at > arrival[position] else arrival[position]
        switch = 0
        was = last_tenant[node]
        if was is not None and was != this_tenant:
            if drain[node] > begin:
                begin = drain[node]
            switch = switch_ticks
            accumulators[node, 3] += 1
        row = pair[position]
        dispatch = begin + switch
        done = dispatch + latency_rows[row][node]
        start_list[position] = begin
        first[position] = dispatch + first_rows[row][node]
        finish[position] = done
        interval = interval_rows[row][node]
        heapq.heapreplace(servers, (dispatch + interval, node))
        drain[node] = done
        last_tenant[node] = this_tenant
        accumulators[node, 0] += 1
        accumulators[node, 1] += switch + interval
        accumulators[node, 2] += switch
    return start, first, finish, accumulators


# ------------------------------------------------------------------ sharding
def segment_bounds(et: EngineTrace) -> List[Tuple[int, int]]:
    """Cut the trace at provable full-idle points, deterministically.

    ``bound_r`` is the drain time of a single server executing requests 0..r
    serially in canonical order, each at its worst per-server cost (switch +
    max-over-servers latency): ``bound_r = max(bound_{r-1}, arrival_r) +
    worst_r``, the same max-plus scan as the closed-form engine.  Any
    work-conserving schedule on >= 1 servers drains no later, so wherever
    ``bound_r < arrival_{r+1}`` the whole fleet is provably idle and the
    trace can restart cold.  The cuts depend only on the trace and the
    service tables — never on policy, engine, or shard count — which is what
    makes sharded reports invariant.
    """
    count = len(et)
    if count == 0:
        return []
    worst = et.latency_table.max(axis=1)[et.pair] + et.switch_ticks
    inclusive = np.cumsum(worst)
    bound = inclusive + np.maximum.accumulate(et.arrival - (inclusive - worst))
    cuts = (np.flatnonzero(bound[:-1] < et.arrival[1:]) + 1).tolist()
    edges = [0, *cuts, count]
    return list(zip(edges[:-1], edges[1:]))


def shard_plan(segments: List[Tuple[int, int]], shards: int) -> List[List[Tuple[int, int]]]:
    """Group segments into at most ``shards`` contiguous, size-balanced chunks.

    Grouping is pure distribution: every chunk simulates its segments
    independently and the merge concatenates in rank order, so any grouping
    gives identical columns — this one just balances worker wall-clock.
    """
    if not segments:
        return []
    shards = max(1, min(shards, len(segments)))
    total = segments[-1][1] - segments[0][0]
    target = total / shards
    chunks: List[List[Tuple[int, int]]] = [[]]
    filled = 0
    for segment in segments:
        # Leave enough segments for the remaining chunks to get one each.
        remaining = len(chunks) < shards and segments[-1] is not segment
        if chunks[-1] and filled >= target * len(chunks) and remaining:
            chunks.append([])
        chunks[-1].append(segment)
        filled += segment[1] - segment[0]
    return chunks


def simulate_segments(et: EngineTrace, segments: List[Tuple[int, int]], run):
    """Run each segment cold through ``run`` and concatenate the completion columns.

    ``run(et, lo, hi)`` is :func:`run_segment` or a reference engine with the
    same contract.  Returns ``(start, first, finish, accumulators)`` covering
    the contiguous rank span of ``segments``; accumulators are summed across
    segments (integer addition, so the fold order cannot matter).
    """
    if len(segments) == 1:
        return run(et, segments[0][0], segments[0][1])
    starts, firsts, finishes = [], [], []
    accumulators = np.zeros((et.num_servers, 4), np.int64)
    for lo, hi in segments:
        start, first, finish, acc = run(et, lo, hi)
        starts.append(start)
        firsts.append(first)
        finishes.append(finish)
        accumulators += acc
    return (
        np.concatenate(starts) if starts else np.empty(0, np.int64),
        np.concatenate(firsts) if firsts else np.empty(0, np.int64),
        np.concatenate(finishes) if finishes else np.empty(0, np.int64),
        accumulators,
    )


def shard_worker(payload):
    """Pool worker: simulate one chunk of segments (SweepRunner task shape).

    The payload carries the segment runner itself; a module-level function
    pickles by qualified name, so the pool needs no engine registry.
    """
    (et, segments, run), _cache = payload
    return simulate_segments(et, segments, run)
