"""Mapping GEMM and GEMM+ workloads onto MACO's compute nodes (paper Section IV.B).

Two pieces are modelled:

* **multi-core GEMM partitioning** (Fig. 5(a)) — the output matrix Y is tiled
  and the tiles are distributed across the compute nodes.  The reproduction
  partitions the larger output dimension (rows or columns), which matches the
  figure's one-tile-column-per-node example for square matrices and keeps the
  per-node sub-GEMMs well shaped for the skewed layers of DL networks.  The
  operand that every node reads in full (B when rows are split, A when columns
  are split) is stashed and locked in the L3 once and shared.
* **GEMM+ scheduling** (Fig. 5(b)/(c)) — the CPU issues stash/lock requests
  ahead of the MMAE's tiles, distributes the non-GEMM tail operators of the
  previous layer across the CPU cores, and runs them while the MMAEs compute
  the next layer.  Without the mapping scheme the tail operators serialise
  after the GEMMs on the launching core and stream cold (unlocked) data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Literal, Tuple

from repro.gemm.workloads import GEMMShape, GEMMWorkload

SplitDimension = Literal["rows", "cols"]


@dataclass(frozen=True)
class NodeAssignment:
    """The slice of a GEMM one compute node executes."""

    node_id: int
    shape: GEMMShape
    dimension: SplitDimension
    start: int
    end: int

    @property
    def extent(self) -> int:
        """Number of columns (or rows) this node covers."""
        return self.end - self.start


@dataclass
class MappingPlan:
    """How one GEMM is split across compute nodes (Fig. 5(a))."""

    original: GEMMShape
    dimension: SplitDimension
    assignments: List[NodeAssignment] = field(default_factory=list)
    shared_operand_bytes: int = 0
    per_node_private_bytes: int = 0

    @property
    def num_nodes(self) -> int:
        """Nodes that actually received work (can be fewer than requested)."""
        return len(self.assignments)

    @property
    def stash_bytes(self) -> int:
        """Bytes stashed and locked in the L3 ahead of the computation."""
        return self.shared_operand_bytes + self.num_nodes * self.per_node_private_bytes

    def covers_output(self) -> bool:
        """True if the assignments exactly tile the split dimension of Y."""
        covered = sorted((a.start, a.end) for a in self.assignments)
        cursor = 0
        for start, end in covered:
            if start != cursor:
                return False
            cursor = end
        target = self.original.m if self.dimension == "rows" else self.original.n
        return cursor == target

    def total_assigned_flops(self) -> int:
        """FLOPs across all assignments (equals the source shape's FLOPs)."""
        return sum(assignment.shape.flops for assignment in self.assignments)


def partition_gemm(shape: GEMMShape, num_nodes: int) -> MappingPlan:
    """Split a GEMM's output across ``num_nodes`` compute nodes (Fig. 5(a)).

    The larger output dimension is partitioned so the per-node sub-GEMMs stay
    as square as possible; if there are more nodes than elements along that
    dimension, the surplus nodes receive no work.
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    element = shape.precision.bytes_per_element
    dimension: SplitDimension = "rows" if shape.m >= shape.n else "cols"
    extent = shape.m if dimension == "rows" else shape.n
    usable_nodes = min(num_nodes, extent)
    base, extra = divmod(extent, usable_nodes)

    assignments = []
    cursor = 0
    for node_id in range(usable_nodes):
        length = base + (1 if node_id < extra else 0)
        if dimension == "rows":
            sub_shape = GEMMShape(length, shape.n, shape.k, shape.precision)
        else:
            sub_shape = GEMMShape(shape.m, length, shape.k, shape.precision)
        assignments.append(
            NodeAssignment(
                node_id=node_id, shape=sub_shape, dimension=dimension,
                start=cursor, end=cursor + length,
            )
        )
        cursor += length

    largest = base + (1 if extra else 0)
    if dimension == "rows":
        # Every node reads the whole B; each node owns its A rows and C rows.
        shared_bytes = shape.k * shape.n * element
        private_bytes = largest * (shape.k + shape.n) * element
    else:
        # Every node reads the whole A; each node owns its B and C columns.
        shared_bytes = shape.m * shape.k * element
        private_bytes = largest * (shape.k + shape.m) * element

    return MappingPlan(
        original=shape,
        dimension=dimension,
        assignments=assignments,
        shared_operand_bytes=shared_bytes,
        per_node_private_bytes=private_bytes,
    )


@lru_cache(maxsize=4096)
def partition_shapes(shape: GEMMShape, num_nodes: int) -> Tuple[GEMMShape, ...]:
    """The distinct sub-shapes of :func:`partition_gemm`, in assignment order.

    A balanced split gives every node one of at most two extents, so a
    layer's slowest node is the slowest of these shapes.  Timing them instead
    of every assignment gives the same maximum with one estimate per shape.
    """
    plan = partition_gemm(shape, num_nodes)
    return tuple(dict.fromkeys(assignment.shape for assignment in plan.assignments))


@dataclass
class GemmPlusSchedule:
    """Timing of a GEMM+ workload on the compute nodes (Fig. 5(c)).

    ``mmae_seconds`` is the per-node MMAE busy time summed over the workload's
    GEMMs; ``cpu_seconds`` is the CPU time spent on the non-GEMM tail operators
    (already distributed across cores when the mapping scheme is on, on the
    single launching core when it is off).  With the mapping scheme the CPU
    work overlaps with the next layer's GEMM; without it every layer's tail
    serialises after its GEMM and streams cold data.
    """

    mmae_seconds: float
    cpu_seconds: float
    stash_seconds: float
    mapping_enabled: bool
    #: Fraction of the CPU tail that cannot be hidden even with the mapping
    #: scheme (the final layer's tail plus scheduling slack).
    exposed_tail_fraction: float = 0.08
    #: Bandwidth degradation of the CPU tail when its inputs are not locked in
    #: the L3 (cache misses to DRAM roughly halve the streaming rate).
    unmapped_cpu_slowdown: float = 2.0

    @property
    def total_seconds(self) -> float:
        """End-to-end workload time under the overlap model."""
        if self.mapping_enabled:
            hidden_cpu = self.cpu_seconds * (1.0 - self.exposed_tail_fraction)
            exposed_cpu = self.cpu_seconds * self.exposed_tail_fraction
            # Stash requests for weights are issued ahead of the tiles and overlap
            # with compute, but a dependent layer's activations can only be
            # stashed once the previous layer has produced them, so part of the
            # stash traffic stays on the critical path.
            exposed_stash = min(self.stash_seconds, 0.10 * self.mmae_seconds + 1e-9)
            return max(self.mmae_seconds, hidden_cpu) + exposed_cpu + exposed_stash
        # Without the mapping scheme: no stash (operands stream from DRAM on
        # demand), and the CPU tail serialises at degraded bandwidth.
        return self.mmae_seconds + self.cpu_seconds * self.unmapped_cpu_slowdown


def schedule_gemm_plus(
    mmae_seconds: float,
    cpu_seconds: float,
    stash_seconds: float,
    mapping_enabled: bool = True,
) -> GemmPlusSchedule:
    """Build the GEMM+ overlap schedule from the per-node component times."""
    for name, value in (("mmae", mmae_seconds), ("cpu", cpu_seconds), ("stash", stash_seconds)):
        if value < 0:
            raise ValueError(f"{name} time cannot be negative")
    return GemmPlusSchedule(
        mmae_seconds=mmae_seconds,
        cpu_seconds=cpu_seconds,
        stash_seconds=stash_seconds,
        mapping_enabled=mapping_enabled,
    )


def partition_workload(
    workload: GEMMWorkload, num_nodes: int
) -> List[List[GEMMShape]]:
    """Per-node GEMM lists for a full workload, partitioning every layer's GEMM.

    Layers execute in order (they are data dependent), so each layer's GEMM is
    split across all nodes rather than assigning whole layers to nodes.
    """
    per_node: List[List[GEMMShape]] = [[] for _ in range(num_nodes)]
    for shape in workload:
        plan = partition_gemm(shape, num_nodes)
        for assignment in plan.assignments:
            per_node[assignment.node_id].append(assignment.shape)
        # Nodes beyond the usable count simply skip this layer.
    return per_node
