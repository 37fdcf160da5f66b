"""Request traces for the multi-tenant serving simulator.

A serving scenario starts from a :class:`RequestTrace`: a time-ordered list of
:class:`Request` arrivals, each tagged with a tenant and a model from the
workload registry (:mod:`repro.workloads.registry`).  Traces come from three
generators —

* :func:`poisson_trace` — independent Poisson arrivals per tenant (the
  classic open-loop serving assumption);
* :func:`bursty_trace` — an on/off modulated Poisson process (Lewis–Shedler
  thinning) that concentrates arrivals into periodic bursts while preserving
  the mean rate;
* :func:`replay_trace` — arrivals replayed from a JSON file or records, for
  reproducing production traces.

All generators are seeded and fully deterministic: every tenant draws from a
private ``random.Random`` seeded with a string (string seeding hashes through
SHA-512, so it is stable across processes and ``PYTHONHASHSEED`` values).

Storage is *columnar first*: the generators produce a :class:`TraceColumns`
record — parallel NumPy arrays of arrival times, tenant/workload ids,
priorities and SLO targets — so a million-request trace costs megabytes, not a
million dataclasses.  :class:`RequestTrace` wraps the columns and materialises
:class:`Request` objects lazily, only when someone actually iterates them.

The generators are vectorised but bit-equal to their per-request references
(:func:`poisson_trace_scalar` / :func:`bursty_trace_scalar`), which are kept
both as documentation and as the parity oracle for the tests.  Two facts make
exact equality possible: ``numpy``'s ``MT19937`` bit generator can be seeded
with the *state* of a ``random.Random`` and then reproduces its uniform stream
double for double, and ``np.log``/``np.cumsum`` evaluate element-wise
identically whether applied to one value or a chunk.  The scalar references
therefore route their single-value ``log`` through NumPy too, and the
vectorised paths consume the uniform stream in exactly the per-request order.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.gemm.precision import Precision
from repro.serve.report import TICKS_PER_SECOND
from repro.workloads.registry import workload_names

__all__ = [
    "Request",
    "TenantSpec",
    "TraceColumns",
    "RequestTrace",
    "default_tenants",
    "llm_tenants",
    "poisson_trace",
    "poisson_trace_scalar",
    "bursty_trace",
    "bursty_trace_scalar",
    "replay_trace",
]


@dataclass(frozen=True, slots=True)
class Request:
    """One inference request: a tenant asks for one model invocation.

    ``workload`` names an entry of the workload registry (``resnet50``,
    ``bert``, ``gpt3``); ``arrival_s`` is the arrival time in seconds from
    the start of the trace.  ``priority`` is the scheduling tier (larger is
    more important; the priority/slo policies serve higher tiers first and
    preempt lower ones), and ``ttft_slo_s``/``tpot_slo_s`` are the tenant's
    latency deadlines — time to first token and time per output token —
    against which the report scores SLO attainment and goodput (``None``
    means the request carries no deadline and always counts as met).
    """

    request_id: int
    tenant: str
    workload: str
    arrival_s: float
    precision: Precision = Precision.FP32
    priority: int = 0
    ttft_slo_s: Optional[float] = None
    tpot_slo_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError(f"arrival time cannot be negative, got {self.arrival_s}")
        if self.ttft_slo_s is not None and self.ttft_slo_s <= 0:
            raise ValueError(f"TTFT SLO must be positive, got {self.ttft_slo_s}")
        if self.tpot_slo_s is not None and self.tpot_slo_s <= 0:
            raise ValueError(f"TPOT SLO must be positive, got {self.tpot_slo_s}")


@dataclass(frozen=True)
class TenantSpec:
    """A tenant's traffic description: mean arrival rate and workload mix.

    ``mix`` is a tuple of ``(workload name, weight)`` pairs; weights are
    normalised when sampling, so they only need to be positive.
    ``priority`` and the TTFT/TPOT SLO targets are stamped onto every request
    the tenant generates (see :class:`Request`): priority tiers order
    admission and preemption under the priority/slo policies, and the
    deadlines feed the report's SLO-attainment and goodput figures.
    """

    name: str
    rate_rps: float = 8.0
    mix: Tuple[Tuple[str, float], ...] = (("bert", 1.0),)
    priority: int = 0
    ttft_slo_s: Optional[float] = None
    tpot_slo_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rate_rps <= 0:
            raise ValueError(f"tenant {self.name!r}: rate must be positive, got {self.rate_rps}")
        if not self.mix:
            raise ValueError(f"tenant {self.name!r}: workload mix cannot be empty")
        if any(weight <= 0 for _, weight in self.mix):
            raise ValueError(f"tenant {self.name!r}: mix weights must be positive")
        if self.ttft_slo_s is not None and self.ttft_slo_s <= 0:
            raise ValueError(f"tenant {self.name!r}: TTFT SLO must be positive")
        if self.tpot_slo_s is not None and self.tpot_slo_s <= 0:
            raise ValueError(f"tenant {self.name!r}: TPOT SLO must be positive")

    def with_rate(self, rate_rps: float) -> "TenantSpec":
        """Copy of this spec with a different mean arrival rate."""
        return replace(self, rate_rps=rate_rps)

    def with_slo(
        self,
        ttft_slo_s: Optional[float] = None,
        tpot_slo_s: Optional[float] = None,
        priority: Optional[int] = None,
    ) -> "TenantSpec":
        """Copy of this spec with SLO deadlines (and optionally a priority tier)."""
        return replace(
            self,
            ttft_slo_s=ttft_slo_s,
            tpot_slo_s=tpot_slo_s,
            priority=self.priority if priority is None else priority,
        )

    def _cumulative_weights(self) -> List[float]:
        """The running mix-weight sums, accumulated left to right.

        Both sampling paths compare draws against these exact partial sums —
        the scalar scan and the vectorised ``searchsorted`` therefore pick
        identical workloads for identical uniforms.
        """
        cumulative, partials = 0.0, []
        for _, weight in self.mix:
            cumulative += weight
            partials.append(cumulative)
        return partials

    def pick_workload(self, rng: random.Random) -> str:
        """Draw one workload name from the (normalised) mix."""
        total = sum(weight for _, weight in self.mix)
        draw = rng.random() * total
        cumulative = 0.0
        for name, weight in self.mix:
            cumulative += weight
            if draw < cumulative:
                return name
        return self.mix[-1][0]

    def mean_mix_weights(self) -> List[Tuple[str, float]]:
        """The mix with weights normalised to sum to 1."""
        total = sum(weight for _, weight in self.mix)
        return [(name, weight / total) for name, weight in self.mix]


@dataclass(frozen=True)
class TraceColumns:
    """Columnar request storage: parallel arrays plus interning tables.

    Row ``i`` describes one request; ``tenant_id``/``workload_id``/
    ``precision_id`` index the ``tenants``/``workloads``/``precisions``
    tables.  SLO targets use ``nan`` for "no deadline".  ``request_id``
    carries the public ids (``arange(n)`` for generated traces, arbitrary for
    hand-built ones), so a trace round-trips through columns losslessly.
    """

    tenants: Tuple[str, ...]
    workloads: Tuple[str, ...]
    precisions: Tuple[Precision, ...]
    request_id: np.ndarray
    arrival_s: np.ndarray
    tenant_id: np.ndarray
    workload_id: np.ndarray
    precision_id: np.ndarray
    priority: np.ndarray
    ttft_slo_s: np.ndarray
    tpot_slo_s: np.ndarray

    def __len__(self) -> int:
        return len(self.arrival_s)

    @property
    def nbytes(self) -> int:
        """Total array payload — the reason a 1M-request trace fits in MBs."""
        return sum(
            getattr(self, column).nbytes
            for column in ("request_id", "arrival_s", "tenant_id", "workload_id",
                           "precision_id", "priority", "ttft_slo_s", "tpot_slo_s")
        )

    @classmethod
    def from_requests(cls, requests: Sequence[Request]) -> "TraceColumns":
        """Intern a request list into columns (row order preserved)."""
        tenants = tuple(sorted({request.tenant for request in requests}))
        workloads = tuple(sorted({request.workload for request in requests}))
        precisions = tuple(sorted({request.precision for request in requests},
                                  key=lambda p: p.name))
        tenant_index = {name: i for i, name in enumerate(tenants)}
        workload_index = {name: i for i, name in enumerate(workloads)}
        precision_index = {p: i for i, p in enumerate(precisions)}
        n = len(requests)
        return cls(
            tenants=tenants,
            workloads=workloads,
            precisions=precisions,
            request_id=np.fromiter((r.request_id for r in requests), np.int64, n),
            arrival_s=np.fromiter((r.arrival_s for r in requests), np.float64, n),
            tenant_id=np.fromiter((tenant_index[r.tenant] for r in requests), np.int32, n),
            workload_id=np.fromiter((workload_index[r.workload] for r in requests), np.int32, n),
            precision_id=np.fromiter((precision_index[r.precision] for r in requests), np.int16, n),
            priority=np.fromiter((r.priority for r in requests), np.int32, n),
            ttft_slo_s=np.fromiter(
                (math.nan if r.ttft_slo_s is None else r.ttft_slo_s for r in requests),
                np.float64, n),
            tpot_slo_s=np.fromiter(
                (math.nan if r.tpot_slo_s is None else r.tpot_slo_s for r in requests),
                np.float64, n),
        )

    def materialize(self) -> List[Request]:
        """Build the :class:`Request` objects for every row (O(n) dataclasses)."""
        ttft = self.ttft_slo_s
        tpot = self.tpot_slo_s
        return [
            Request(
                request_id=int(self.request_id[i]),
                tenant=self.tenants[self.tenant_id[i]],
                workload=self.workloads[self.workload_id[i]],
                arrival_s=float(self.arrival_s[i]),
                precision=self.precisions[self.precision_id[i]],
                priority=int(self.priority[i]),
                ttft_slo_s=None if math.isnan(ttft[i]) else float(ttft[i]),
                tpot_slo_s=None if math.isnan(tpot[i]) else float(tpot[i]),
            )
            for i in range(len(self))
        ]

    def to_records(self) -> List[dict]:
        """JSON-able arrival records, identical to the request-list rendering."""
        records = []
        ttft = self.ttft_slo_s
        tpot = self.tpot_slo_s
        for i in range(len(self)):
            record = {
                "tenant": self.tenants[self.tenant_id[i]],
                "workload": self.workloads[self.workload_id[i]],
                "arrival_s": float(self.arrival_s[i]),
                "precision": self.precisions[self.precision_id[i]].name.lower(),
            }
            if self.priority[i]:
                record["priority"] = int(self.priority[i])
            if not math.isnan(ttft[i]):
                record["ttft_slo_s"] = float(ttft[i])
            if not math.isnan(tpot[i]):
                record["tpot_slo_s"] = float(tpot[i])
            records.append(record)
        return records


class RequestTrace:
    """A time-ordered request arrival trace for one serving scenario.

    Holds either a :class:`Request` list, a :class:`TraceColumns` record, or
    both; each view is derived lazily from the other, so the array engines
    read columns without ever materialising a million dataclasses, while
    code that iterates requests keeps working unchanged.
    """

    def __init__(
        self,
        name: str,
        requests: Optional[List[Request]] = None,
        duration_s: float = 0.0,
        columns: Optional[TraceColumns] = None,
    ) -> None:
        if duration_s < 0:
            raise ValueError("trace duration cannot be negative")
        if requests is None and columns is None:
            requests = []
        self.name = name
        self.duration_s = duration_s
        self._requests = requests
        self._columns = columns

    @property
    def requests(self) -> List[Request]:
        """The materialised request list (built from columns on first use)."""
        if self._requests is None:
            self._requests = self._columns.materialize()
        return self._requests

    @property
    def columns(self) -> TraceColumns:
        """The columnar view (interned from the request list on first use)."""
        if self._columns is None:
            self._columns = TraceColumns.from_requests(self._requests)
        return self._columns

    def __len__(self) -> int:
        if self._columns is not None:
            return len(self._columns)
        return len(self._requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    @property
    def tenants(self) -> List[str]:
        """Tenant names appearing in the trace, sorted."""
        if self._columns is not None:
            used = np.unique(self._columns.tenant_id)
            return sorted(self._columns.tenants[i] for i in used)
        return sorted({request.tenant for request in self._requests})

    @property
    def workloads(self) -> List[str]:
        """Distinct workload names appearing in the trace, sorted."""
        if self._columns is not None:
            used = np.unique(self._columns.workload_id)
            return sorted(self._columns.workloads[i] for i in used)
        return sorted({request.workload for request in self._requests})

    def to_records(self) -> List[dict]:
        """JSON-able arrival records (the :func:`replay_trace` input format).

        Priority and SLO fields are emitted only when set, so traces recorded
        before those fields existed keep their byte-identical JSON form.
        """
        if self._requests is None:
            return self._columns.to_records()
        records = []
        for request in self._requests:
            record = {
                "tenant": request.tenant,
                "workload": request.workload,
                "arrival_s": request.arrival_s,
                "precision": request.precision.name.lower(),
            }
            if request.priority != 0:
                record["priority"] = request.priority
            if request.ttft_slo_s is not None:
                record["ttft_slo_s"] = request.ttft_slo_s
            if request.tpot_slo_s is not None:
                record["tpot_slo_s"] = request.tpot_slo_s
            records.append(record)
        return records

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace as a JSON record list that :func:`replay_trace` reads back."""
        Path(path).write_text(json.dumps(self.to_records(), indent=2) + "\n")


#: Per-request scheduling metadata carried through trace generation:
#: ``(priority, ttft_slo_s, tpot_slo_s)``.
_SLOFields = Tuple[int, Optional[float], Optional[float]]

_NO_SLO: _SLOFields = (0, None, None)


def _slo_fields(spec: TenantSpec) -> _SLOFields:
    return (spec.priority, spec.ttft_slo_s, spec.tpot_slo_s)


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


def default_tenants(count: int, rate_rps: float = 8.0) -> List[TenantSpec]:
    """``count`` tenants with rotating workload mixes over the registry.

    Tenant ``i`` leans 70% on registry model ``i mod len(registry)`` with the
    remaining 30% spread over the other models, so multi-tenant traces mix
    models without any randomness in the specs themselves.
    """
    if count < 1:
        raise ValueError(f"tenant count must be >= 1, got {count}")
    names = workload_names()
    specs = []
    for index in range(count):
        dominant = names[index % len(names)]
        others = [name for name in names if name != dominant]
        mix = [(dominant, 0.7)] + [(name, 0.3 / len(others)) for name in others]
        specs.append(TenantSpec(name=f"tenant{index}", rate_rps=rate_rps, mix=tuple(mix)))
    return specs


def llm_tenants(count: int, rate_rps: float = 8.0, variant: str = "llama-7b") -> List[TenantSpec]:
    """``count`` LLM tenants alternating prefill-heavy and decode-heavy mixes.

    Even-indexed tenants lean 80% on the prompt-ingest phase graph
    (``variant@prefill``) and odd-indexed tenants 80% on token generation
    (``variant@decode``), so a multi-tenant trace exercises both ends of the
    prefill/decode spectrum against the same fleet.  The registry names are
    resolved through :func:`repro.workloads.workload_graph_by_name`, so any
    catalog LLM variant works.
    """
    if count < 1:
        raise ValueError(f"tenant count must be >= 1, got {count}")
    # ``variant`` may already carry an @spec (e.g. "llama-7b@layers=2"); the
    # phase tag then joins the existing parameter list instead.  It must not
    # already select phases, though — the tenants are defined by adding the
    # prefill/decode split on top.
    spec = variant.partition("@")[2]
    # The registry resolves names case-insensitively, so normalize before
    # matching phase tags.
    tokens = [token.strip().lower() for token in spec.split(",") if token.strip()]
    if any(token in ("prefill", "decode") or token.startswith("phases=") for token in tokens):
        raise ValueError(
            f"variant {variant!r} already selects phases; pass the base variant "
            f"(e.g. 'llama-7b' or 'llama-7b@layers=2') and llm_tenants will add "
            f"the prefill/decode split per tenant")
    separator = "," if "@" in variant else "@"
    prefill = f"{variant}{separator}prefill"
    decode = f"{variant}{separator}decode"
    specs = []
    for index in range(count):
        if index % 2 == 0:
            name, mix = f"tenant{index}-prefill", ((prefill, 0.8), (decode, 0.2))
        else:
            name, mix = f"tenant{index}-decode", ((decode, 0.8), (prefill, 0.2))
        specs.append(TenantSpec(name=name, rate_rps=rate_rps, mix=mix))
    return specs


# --------------------------------------------------------------- RNG plumbing
def _seeded_generator(seed_string: str) -> np.random.Generator:
    """A NumPy generator continuing ``random.Random(seed_string)``'s stream.

    ``random.Random`` and NumPy's ``MT19937`` share the same core generator
    and the same 53-bit uniform recipe, so installing the stdlib state into
    the bit generator makes ``Generator.random(n)`` reproduce the exact
    doubles ``rng.random()`` would have produced, one for one.  That is the
    bridge that lets the vectorised trace generators stay bit-identical to
    the scalar references while drawing whole arrays at once.
    """
    state = random.Random(seed_string).getstate()
    key = np.array(state[1][:-1], dtype=np.uint32)
    bit_generator = np.random.MT19937()
    bit_generator.state = {
        "bit_generator": "MT19937",
        "state": {"key": key, "pos": state[1][-1]},
    }
    return np.random.Generator(bit_generator)


def _exp_gap(uniform: float, rate: float) -> float:
    """One exponential inter-arrival gap from one uniform draw.

    Routed through ``np.log`` (not ``math.log``: the two can differ in the
    last ulp) so the scalar generators consume uniforms exactly like the
    vectorised ``-np.log(1 - u) / rate`` over a chunk.
    """
    return float(-np.log(1.0 - uniform) / rate)


def _merge_tenant_columns(
    name: str,
    duration_s: float,
    precision: Precision,
    per_tenant: List[Tuple[TenantSpec, np.ndarray, np.ndarray]],
) -> RequestTrace:
    """Merge per-tenant ``(spec, arrivals, workload ids)`` into a sorted trace.

    Reproduces :func:`_finalize`'s canonical ``(arrival, tenant name,
    per-tenant sequence)`` order with a single ``lexsort``, then assigns
    request ids by position.  Workload ids index each tenant's ``mix``; they
    are re-interned into the trace-wide sorted workload table here.
    """
    tenant_names = sorted({spec.name for spec, _, _ in per_tenant})
    tenant_rank = {tenant: rank for rank, tenant in enumerate(tenant_names)}
    workload_table = sorted({
        workload for spec, _, picks in per_tenant if len(picks) for workload, _ in spec.mix
    })
    workload_rank = {workload: rank for rank, workload in enumerate(workload_table)}

    chunks_arrival, chunks_tenant, chunks_workload = [], [], []
    chunks_sequence, chunks_priority, chunks_ttft, chunks_tpot = [], [], [], []
    for spec, arrivals, picks in per_tenant:
        count = len(arrivals)
        if not count:
            continue
        mix_ranks = np.array([workload_rank[w] for w, _ in spec.mix], dtype=np.int32)
        chunks_arrival.append(arrivals)
        chunks_tenant.append(np.full(count, tenant_rank[spec.name], dtype=np.int32))
        chunks_workload.append(mix_ranks[picks])
        chunks_sequence.append(np.arange(count, dtype=np.int64))
        chunks_priority.append(np.full(count, spec.priority, dtype=np.int32))
        ttft = math.nan if spec.ttft_slo_s is None else spec.ttft_slo_s
        tpot = math.nan if spec.tpot_slo_s is None else spec.tpot_slo_s
        chunks_ttft.append(np.full(count, ttft, dtype=np.float64))
        chunks_tpot.append(np.full(count, tpot, dtype=np.float64))

    if not chunks_arrival:
        columns = TraceColumns(
            tenants=(), workloads=(), precisions=(precision,),
            request_id=np.empty(0, np.int64), arrival_s=np.empty(0, np.float64),
            tenant_id=np.empty(0, np.int32), workload_id=np.empty(0, np.int32),
            precision_id=np.empty(0, np.int16), priority=np.empty(0, np.int32),
            ttft_slo_s=np.empty(0, np.float64), tpot_slo_s=np.empty(0, np.float64),
        )
        return RequestTrace(name=name, duration_s=duration_s, columns=columns)

    arrival = np.concatenate(chunks_arrival)
    tenant = np.concatenate(chunks_tenant)
    sequence = np.concatenate(chunks_sequence)
    order = np.lexsort((sequence, tenant, arrival))
    # Tenants that produced no arrivals drop out of the interning tables, so
    # the columns match what a per-request build would have seen.
    used = np.unique(tenant)
    if len(used) != len(tenant_names):
        remap = np.zeros(len(tenant_names), dtype=np.int32)
        remap[used] = np.arange(len(used), dtype=np.int32)
        tenant = remap[tenant]
        tenant_names = [tenant_names[i] for i in used]
    columns = TraceColumns(
        tenants=tuple(tenant_names),
        workloads=tuple(workload_table),
        precisions=(precision,),
        request_id=np.arange(len(arrival), dtype=np.int64),
        arrival_s=arrival[order],
        tenant_id=tenant[order],
        workload_id=np.concatenate(chunks_workload)[order],
        precision_id=np.zeros(len(arrival), dtype=np.int16),
        priority=np.concatenate(chunks_priority)[order],
        ttft_slo_s=np.concatenate(chunks_ttft)[order],
        tpot_slo_s=np.concatenate(chunks_tpot)[order],
    )
    return RequestTrace(name=name, duration_s=duration_s, columns=columns)


def _pick_workloads(spec: TenantSpec, uniforms: np.ndarray) -> np.ndarray:
    """Vectorised :meth:`TenantSpec.pick_workload` over a uniform array.

    ``searchsorted(side="right")`` against the exact running weight sums
    returns the first index whose cumulative weight exceeds the draw — the
    same comparison the scalar scan makes — and the clip reproduces its
    fall-through to the last mix entry.
    """
    cumulative = np.array(spec._cumulative_weights(), dtype=np.float64)
    total = sum(weight for _, weight in spec.mix)
    draws = uniforms * total
    picks = np.searchsorted(cumulative, draws, side="right")
    return np.minimum(picks, len(cumulative) - 1).astype(np.int32)


def poisson_trace(
    tenants: Sequence[TenantSpec],
    duration_s: float,
    seed: int = 0,
    precision: Precision = Precision.FP32,
) -> RequestTrace:
    """Independent Poisson arrivals per tenant over ``duration_s`` seconds.

    Vectorised: each tenant's whole uniform stream is drawn as one chunk
    (sized from the expected count plus six sigma of slack, doubled on the
    rare shortfall), split into the alternating gap/pick positions the scalar
    loop would have consumed, and turned into arrivals with one ``log``, one
    ``cumsum`` and one ``searchsorted``.  Bit-identical to
    :func:`poisson_trace_scalar` element for element.
    """
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    per_tenant = []
    for spec in tenants:
        expected = spec.rate_rps * duration_s
        draws = int(expected + 6.0 * math.sqrt(expected + 1.0)) + 16
        while True:
            rng = _seeded_generator(f"{seed}/poisson/{spec.name}")
            uniforms = rng.random(2 * draws)
            gaps = -np.log(1.0 - uniforms[0::2]) / spec.rate_rps
            arrivals = np.cumsum(gaps)
            # The scalar loop stops at the first clock >= duration; that
            # terminating draw must be inside the chunk or the count is a lie.
            count = int(np.searchsorted(arrivals, duration_s, side="left"))
            if count < len(gaps):
                break
            draws *= 2
        picks = _pick_workloads(spec, uniforms[1::2][:count])
        per_tenant.append((spec, arrivals[:count], picks))
    return _merge_tenant_columns(f"poisson-seed{seed}", duration_s, precision, per_tenant)


def poisson_trace_scalar(
    tenants: Sequence[TenantSpec],
    duration_s: float,
    seed: int = 0,
    precision: Precision = Precision.FP32,
) -> RequestTrace:
    """Per-request reference implementation of :func:`poisson_trace`.

    Kept as the parity oracle: the vectorised generator must reproduce this
    trace bit for bit (``to_records()`` equality) for every seed.
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
            pending.append((clock, spec.name, sequence, spec.pick_workload(rng), precision, slo))
            sequence += 1
    return _finalize(f"poisson-seed{seed}", pending, duration_s)


def _bursty_rates(spec: TenantSpec, burst_factor: float, burst_fraction: float) -> Tuple[float, float]:
    """(on rate, off rate) preserving the spec's mean rate exactly."""
    if burst_factor * burst_fraction >= 1.0:
        return spec.rate_rps / burst_fraction, 0.0
    on_rate = spec.rate_rps * burst_factor
    off_rate = spec.rate_rps * (1.0 - burst_factor * burst_fraction) / (1.0 - burst_fraction)
    return on_rate, off_rate


def bursty_trace(
    tenants: Sequence[TenantSpec],
    duration_s: float,
    seed: int = 0,
    precision: Precision = Precision.FP32,
    burst_factor: float = 8.0,
    burst_fraction: float = 0.2,
    cycle_s: float = 0.25,
) -> RequestTrace:
    """On/off modulated Poisson arrivals: periodic bursts, same mean rate.

    Each tenant's rate alternates between an elevated burst rate during the
    first ``burst_fraction`` of every ``cycle_s``-second cycle and a reduced
    off rate, chosen so the time-averaged rate equals ``rate_rps`` exactly:
    when ``burst_factor * burst_fraction >= 1`` all arrivals fall inside the
    bursts (burst rate ``rate / burst_fraction``), otherwise the burst rate is
    ``rate * burst_factor`` and the remainder spreads over the off phase.
    Sampling uses Lewis–Shedler thinning, which stays exact for any piecewise
    rate function and deterministic under the seeded generator.

    Thinning consumes a data-dependent number of uniforms per candidate (two,
    plus one more on acceptance), so the stream cannot be split into fixed
    positions like the Poisson case; instead the whole stream is drawn as one
    bulk chunk with every candidate gap ``-log(1-u)/on_rate`` precomputed in
    one vectorised pass, leaving only the accept/advance scan in Python.
    Bit-identical to :func:`bursty_trace_scalar`.
    """
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    if burst_factor < 1:
        raise ValueError(f"burst factor must be >= 1, got {burst_factor}")
    if not 0 < burst_fraction < 1:
        raise ValueError(f"burst fraction must be in (0, 1), got {burst_fraction}")
    if cycle_s <= 0:
        raise ValueError(f"cycle length must be positive, got {cycle_s}")
    per_tenant = []
    for spec in tenants:
        on_rate, off_rate = _bursty_rates(spec, burst_factor, burst_fraction)
        expected = on_rate * duration_s
        candidates = int(expected + 6.0 * math.sqrt(expected + 1.0)) + 16
        cumulative = spec._cumulative_weights()
        last_pick = len(spec.mix) - 1
        total = sum(weight for _, weight in spec.mix)
        while True:
            rng = _seeded_generator(f"{seed}/bursty/{spec.name}")
            uniforms = rng.random(3 * candidates)
            # Candidate gaps for *every* stream position: only the positions
            # the scan lands on are used, but precomputing all of them keeps
            # the log vectorised (and element-identical to the scalar calls).
            gaps = (-np.log(1.0 - uniforms) / on_rate).tolist()
            stream = uniforms.tolist()
            limit = len(stream)
            arrivals: List[float] = []
            picks: List[int] = []
            clock, position, exhausted = 0.0, 0, False
            while True:
                if position + 3 > limit:
                    exhausted = True
                    break
                clock += gaps[position]
                position += 1
                if clock >= duration_s:
                    break
                in_burst = (clock % cycle_s) / cycle_s < burst_fraction
                rate_now = on_rate if in_burst else off_rate
                accept = stream[position] * on_rate < rate_now  # thinning acceptance
                position += 1
                if accept:
                    draw = stream[position] * total
                    position += 1
                    arrivals.append(clock)
                    picks.append(min(bisect_right(cumulative, draw), last_pick))
            if not exhausted:
                break
            candidates *= 2
        per_tenant.append((spec,
                           np.array(arrivals, dtype=np.float64),
                           np.array(picks, dtype=np.int32)))
    return _merge_tenant_columns(f"bursty-seed{seed}", duration_s, precision, per_tenant)


def bursty_trace_scalar(
    tenants: Sequence[TenantSpec],
    duration_s: float,
    seed: int = 0,
    precision: Precision = Precision.FP32,
    burst_factor: float = 8.0,
    burst_fraction: float = 0.2,
    cycle_s: float = 0.25,
) -> RequestTrace:
    """Per-request reference implementation of :func:`bursty_trace`."""
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    if burst_factor < 1:
        raise ValueError(f"burst factor must be >= 1, got {burst_factor}")
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
                pending.append((clock, spec.name, sequence, spec.pick_workload(rng),
                                precision, slo))
                sequence += 1
    return _finalize(f"bursty-seed{seed}", pending, duration_s)


# ---------------------------------------------------------------- trace replay
def _iter_json_records(text: str) -> Iterator[object]:
    """Yield the elements of a top-level JSON array one at a time.

    An incremental ``raw_decode`` walk: each record is parsed and handed to
    the caller immediately, so a million-request replay file never exists as
    a simultaneous list-of-dicts in memory — the caller interns each record
    into column buffers and drops it.
    """
    decoder = json.JSONDecoder()
    position, end = 0, len(text)
    while position < end and text[position].isspace():
        position += 1
    if position >= end or text[position] != "[":
        raise ValueError("replay source must be a JSON list of arrival records")
    position += 1
    first = True
    while True:
        while position < end and text[position].isspace():
            position += 1
        if position >= end:
            raise ValueError("replay source ends before the closing ']'")
        if text[position] == "]":
            position += 1
            break
        if not first:
            if text[position] != ",":
                raise ValueError(f"malformed replay list near offset {position}")
            position += 1
            while position < end and text[position].isspace():
                position += 1
        record, position = decoder.raw_decode(text, position)
        first = False
        yield record
    while position < end and text[position].isspace():
        position += 1
    if position != end:
        raise ValueError("trailing data after the replay record list")


#: Exclusive bound on a replayed time in nanosecond ticks (about 146 years):
#: half the engines' int64 clock, so an arrival plus a TTFT deadline or a
#: service time cannot overflow it.
_TICK_LIMIT = 2**62


def replay_trace(source: Union[str, Path, Iterable[dict]], name: str = "replay") -> RequestTrace:
    """Rebuild a trace from a JSON file path or an iterable of arrival records.

    Each record needs ``tenant``, ``workload`` and ``arrival_s``;
    ``precision``, ``priority`` and the ``ttft_slo_s``/``tpot_slo_s``
    deadlines are optional (default fp32, priority 0, no deadlines), so
    traces recorded before those fields existed replay unchanged.  Times must
    be finite and below ``_TICK_LIMIT`` nanoseconds; a record that breaks
    this is rejected by index and field.  Records
    are re-sorted and re-numbered, so a hand-edited file stays valid — unless
    they carry explicit ``request_id`` fields, which must then be unique and
    increasing in file order (a duplicated or out-of-order id in a recorded
    trace means the file was corrupted or mis-merged, so it is an error, not
    something to silently renumber away).

    File input streams record by record straight into column buffers: no
    intermediate list of dicts is ever built, so replaying a million-request
    file costs the columns plus one parsed record at a time.
    """
    if isinstance(source, (str, Path)):
        records: Iterable[object] = _iter_json_records(Path(source).read_text())
        name = Path(source).stem
    else:
        records = source
        if isinstance(records, (dict, str, bytes)):
            raise ValueError("replay source must be a JSON list of arrival records")

    arrivals: List[float] = []
    tenant_ids: List[int] = []
    workload_ids: List[int] = []
    precision_ids: List[int] = []
    priorities: List[int] = []
    ttfts: List[float] = []
    tpots: List[float] = []
    tenant_index: dict = {}
    workload_index: dict = {}
    precision_index: dict = {}
    explicit_ids: List[int] = []
    last_id: Optional[int] = None

    for sequence, record in enumerate(records):
        if not isinstance(record, dict):
            raise ValueError(f"replay record {sequence} is malformed: {record!r}")
        try:
            arrival = float(record["arrival_s"])
            tenant = str(record["tenant"])
            workload = str(record["workload"])
            priority = int(record.get("priority", 0))
            ttft_slo = record.get("ttft_slo_s")
            tpot_slo = record.get("tpot_slo_s")
            ttft = math.nan if ttft_slo is None else float(ttft_slo)
            tpot = math.nan if tpot_slo is None else float(tpot_slo)
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(f"replay record {sequence} is malformed: {record!r}") from error
        if arrival < 0:
            raise ValueError(f"replay record {sequence}: arrival time cannot be negative")
        if (ttft_slo is not None and ttft <= 0) or (tpot_slo is not None and tpot <= 0):
            raise ValueError(f"replay record {sequence}: SLO targets must be positive")
        for key, value in (("arrival_s", arrival), ("ttft_slo_s", ttft), ("tpot_slo_s", tpot)):
            # The comparison is also false for NaN and inf.
            if record.get(key) is not None and not value * TICKS_PER_SECOND < _TICK_LIMIT:
                raise ValueError(
                    f"replay record {sequence}: {key} {value!r} is not a finite time "
                    f"below {_TICK_LIMIT // TICKS_PER_SECOND} s")
        if "request_id" in record:
            request_id = int(record["request_id"])
            if last_id is not None and request_id <= last_id:
                kind = "duplicate" if request_id == last_id else "out-of-order"
                raise ValueError(
                    f"replay record {sequence}: {kind} request_id {request_id} "
                    f"(previous id {last_id}); recorded ids must be unique and increasing")
            last_id = request_id
            explicit_ids.append(request_id)
        elif explicit_ids:
            raise ValueError(
                f"replay record {sequence} is missing request_id but earlier records "
                f"carry one; ids must be present on all records or none")
        precision = Precision.from_string(record.get("precision", "fp32"))
        arrivals.append(arrival)
        tenant_ids.append(tenant_index.setdefault(tenant, len(tenant_index)))
        workload_ids.append(workload_index.setdefault(workload, len(workload_index)))
        precision_ids.append(precision_index.setdefault(precision, len(precision_index)))
        priorities.append(priority)
        ttfts.append(ttft)
        tpots.append(tpot)
    if explicit_ids and len(explicit_ids) != len(arrivals):
        raise ValueError("replay records mix explicit request_id with records lacking one")

    count = len(arrivals)
    arrival_array = np.array(arrivals, dtype=np.float64)
    # Canonical _finalize order: (arrival, tenant name, file sequence), then
    # ids by position.  Interning gave tenants first-seen ids, so sort the
    # table first and remap.
    tenants = sorted(tenant_index)
    tenant_rank = {tenant: rank for rank, tenant in enumerate(tenants)}
    remap_tenant = np.array([tenant_rank[t] for t in tenant_index], dtype=np.int32)
    tenant_array = remap_tenant[np.array(tenant_ids, dtype=np.int32)] if count else \
        np.empty(0, np.int32)
    workloads = sorted(workload_index)
    workload_rank = {workload: rank for rank, workload in enumerate(workloads)}
    remap_workload = np.array([workload_rank[w] for w in workload_index], dtype=np.int32)
    workload_array = remap_workload[np.array(workload_ids, dtype=np.int32)] if count else \
        np.empty(0, np.int32)
    precisions = tuple(precision_index) if precision_index else (Precision.FP32,)

    order = np.lexsort((np.arange(count, dtype=np.int64), tenant_array, arrival_array)) \
        if count else np.empty(0, np.int64)
    columns = TraceColumns(
        tenants=tuple(tenants),
        workloads=tuple(workloads),
        precisions=precisions,
        request_id=np.arange(count, dtype=np.int64),
        arrival_s=arrival_array[order],
        tenant_id=tenant_array[order],
        workload_id=workload_array[order],
        precision_id=np.array(precision_ids, dtype=np.int16)[order] if count else
        np.empty(0, np.int16),
        priority=np.array(priorities, dtype=np.int32)[order] if count else
        np.empty(0, np.int32),
        ttft_slo_s=np.array(ttfts, dtype=np.float64)[order] if count else
        np.empty(0, np.float64),
        tpot_slo_s=np.array(tpots, dtype=np.float64)[order] if count else
        np.empty(0, np.float64),
    )
    duration = float(arrival_array.max()) if count else 0.0
    return RequestTrace(name=name, duration_s=duration, columns=columns)
