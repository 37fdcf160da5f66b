"""Batching policies for the serving simulator.

A :class:`BatchingPolicy` owns the *waiting* queue between request arrival
and admission into a server's running batch, and decides three things:

* **admission order** — ``push``/``peek``/``pop`` define which waiting
  request is admitted next when a server has a free batch slot;
* **priority tiers** — requests carry a ``priority`` (larger is more
  important) plus optional TTFT/TPOT SLO deadlines; the ``priority`` and
  ``slo`` policies order admission by tier (and, for ``slo``, by the
  earliest TTFT deadline within a tier);
* **preemption victim selection** — ``victim`` picks which running request
  loses its KV-cache residency when a step-mode server overflows its budget.

Five policies are provided.  The three request-level legacy policies are
re-expressed on this interface, so the request-level simulator behaves
exactly as before:

* :class:`FCFSScheduler` — first come, first served (arrival order);
* :class:`SJFScheduler` — shortest estimated job first, using the analytic
  per-request service-time estimate;
* :class:`RoundRobinScheduler` — one FIFO queue per tenant, served cyclically
  in first-seen tenant order, so no tenant can starve the others;
* :class:`PriorityScheduler` — higher priority tiers first, FCFS within a
  tier;
* :class:`SLOScheduler` — higher priority tiers first, earliest TTFT
  deadline (``arrival + ttft_slo_s``) first within a tier; requests without
  a deadline sort last in their tier.

All policies break ties on ``(arrival time, request id)``, which makes every
pop — and therefore the whole simulation, including preemption and resume
order — deterministic.  ``Scheduler`` remains as an alias of
:class:`BatchingPolicy` for the pre-batching API surface.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict, deque
from typing import Callable, List, Optional, Sequence, Tuple

from repro.policy_names import SCHEDULER_NAMES
from repro.serve.trace import Request

__all__ = [
    "BatchingPolicy",
    "Scheduler",
    "FCFSScheduler",
    "SJFScheduler",
    "RoundRobinScheduler",
    "PriorityScheduler",
    "SLOScheduler",
    "SCHEDULER_NAMES",
    "scheduler_by_name",
]


def preemption_key(request: Request) -> Tuple[int, float, int]:
    """Default victim ranking: the *largest* key is evicted first.

    The lowest priority tier loses first; within a tier the newest request
    (latest ``(arrival, id)``) is evicted, so an old request never loses its
    KV residency to a younger one and ties stay deterministic.
    """
    return (-request.priority, request.arrival_s, request.request_id)


class BatchingPolicy:
    """Base class: a waiting queue plus preemption-victim selection.

    ``push``/``peek``/``pop`` manage the policy-ordered waiting queue
    (``peek`` lets the simulator stop admission without disturbing the
    order when the head does not fit the KV budget or has not arrived at
    the admitting server's clock yet).  ``victim`` picks the running batch
    member to preempt; the default is shared by every built-in policy so
    preemption order is a property of the request metadata, not the
    admission policy.
    """

    #: Policy name used by the CLI and the report.
    name = "base"

    def push(self, request: Request) -> None:
        """Admit an arrived (or preempted) request into the waiting queue."""
        raise NotImplementedError

    def peek(self) -> Request:
        """Return (without removing) the next request ``pop`` would yield."""
        raise NotImplementedError

    def pop(self) -> Request:
        """Remove and return the next request to admit."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def victim(self, running: Sequence[Request]) -> Request:
        """Select the running request to preempt when the KV budget overflows."""
        if not running:
            raise ValueError("cannot select a preemption victim from an empty batch")
        return max(running, key=preemption_key)


#: Backward-compatible alias: the pre-batching scheduler API.
Scheduler = BatchingPolicy


class _HeapPolicy(BatchingPolicy):
    """Shared heap plumbing: subclasses define the ordering key."""

    def __init__(self) -> None:
        self._heap: List[Tuple] = []

    def _key(self, request: Request) -> Tuple:
        raise NotImplementedError

    def push(self, request: Request) -> None:
        heapq.heappush(self._heap, self._key(request) + (request,))

    def peek(self) -> Request:
        if not self._heap:
            raise IndexError("peek into an empty scheduler")
        return self._heap[0][-1]

    def pop(self) -> Request:
        if not self._heap:
            raise IndexError("pop from an empty scheduler")
        return heapq.heappop(self._heap)[-1]

    def __len__(self) -> int:
        return len(self._heap)


class FCFSScheduler(_HeapPolicy):
    """First come, first served: admit in arrival order."""

    name = "fcfs"

    def _key(self, request: Request) -> Tuple:
        return (request.arrival_s, request.request_id)


class SJFScheduler(_HeapPolicy):
    """Shortest (estimated) job first.

    ``estimator`` maps a request to its estimated service seconds; the queue
    orders by ``(service estimate, arrival, id)``.  Non-preemptive in
    request-level mode: a long request already running is never displaced.
    """

    name = "sjf"

    def __init__(self, estimator: Callable[[Request], float]) -> None:
        super().__init__()
        self._estimator = estimator

    def _key(self, request: Request) -> Tuple:
        return (self._estimator(request), request.arrival_s, request.request_id)


class PriorityScheduler(_HeapPolicy):
    """Strict priority tiers: higher ``priority`` first, FCFS within a tier."""

    name = "priority"

    def _key(self, request: Request) -> Tuple:
        return (-request.priority, request.arrival_s, request.request_id)


class SLOScheduler(_HeapPolicy):
    """SLO-aware admission: priority tiers, then earliest TTFT deadline.

    Within a tier, requests are ordered by their TTFT deadline
    ``arrival + ttft_slo_s`` (earliest-deadline-first); a request without a
    TTFT SLO has an infinite deadline and falls back to arrival order behind
    every deadlined request of its tier.
    """

    name = "slo"

    def _key(self, request: Request) -> Tuple:
        deadline = (request.arrival_s + request.ttft_slo_s
                    if request.ttft_slo_s is not None else float("inf"))
        return (-request.priority, deadline, request.arrival_s, request.request_id)


class RoundRobinScheduler(BatchingPolicy):
    """Round robin across tenants: per-tenant FIFO queues served cyclically.

    Tenants enter the rotation in first-seen order; empty queues are skipped.
    This is the fairness policy: one chatty tenant cannot monopolise the
    fleet, it only drains its own queue faster than it fills.  A preempted
    request re-enters its tenant queue ordered by ``(arrival, id)``, so
    resume never jumps a tenant-mate that arrived earlier.
    """

    name = "rr"

    def __init__(self) -> None:
        self._queues: "OrderedDict[str, deque[Request]]" = OrderedDict()
        self._rotation: List[str] = []
        self._cursor = 0
        self._size = 0

    def push(self, request: Request) -> None:
        if request.tenant not in self._queues:
            self._queues[request.tenant] = deque()
            self._rotation.append(request.tenant)
        queue = self._queues[request.tenant]
        queue.append(request)
        # A re-pushed (preempted) request carries its original arrival time;
        # restore FIFO order so resume cannot reorder a tenant's queue.
        if len(queue) > 1 and ((queue[-2].arrival_s, queue[-2].request_id)
                               > (queue[-1].arrival_s, queue[-1].request_id)):
            items = sorted(queue, key=lambda r: (r.arrival_s, r.request_id))
            queue.clear()
            queue.extend(items)
        self._size += 1

    def _next_tenant(self) -> int:
        """Rotation index of the next tenant with a non-empty queue."""
        if self._size == 0:
            raise IndexError("pop from an empty scheduler")
        for offset in range(len(self._rotation)):
            index = (self._cursor + offset) % len(self._rotation)
            if self._queues[self._rotation[index]]:
                return index
        raise AssertionError("size bookkeeping out of sync")  # pragma: no cover

    def peek(self) -> Request:
        return self._queues[self._rotation[self._next_tenant()]][0]

    def pop(self) -> Request:
        index = self._next_tenant()
        self._cursor = (index + 1) % len(self._rotation)
        self._size -= 1
        return self._queues[self._rotation[index]].popleft()

    def __len__(self) -> int:
        return self._size


def scheduler_by_name(
    name: str, estimator: Optional[Callable[[Request], float]] = None
) -> BatchingPolicy:
    """Build a batching policy by name (see :data:`SCHEDULER_NAMES`).

    ``sjf`` requires ``estimator`` (request -> estimated service seconds).
    """
    key = name.strip().lower()
    if key == "fcfs":
        return FCFSScheduler()
    if key == "sjf":
        if estimator is None:
            raise ValueError("the sjf policy needs a service-time estimator")
        return SJFScheduler(estimator)
    if key == "rr":
        return RoundRobinScheduler()
    if key == "priority":
        return PriorityScheduler()
    if key == "slo":
        return SLOScheduler()
    raise ValueError(f"unknown scheduler {name!r}; options: {list(SCHEDULER_NAMES)}")
