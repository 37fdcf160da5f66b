"""The full MACO system: compute nodes, NoC, distributed L3, DDR controllers.

:class:`MACOSystem` is the top-level object users interact with.  It offers
three execution entry points matching the paper's experiments:

* :meth:`run_gemm` — one GEMM partitioned across the compute nodes with the
  Fig. 5(a) mapping (used by the examples and the DL workloads);
* :meth:`run_independent_gemms` — one independent GEMM per node (the Fig. 7
  scalability experiment);
* :meth:`run_workload` — a full GEMM+ workload (DL network) with or without
  the stash/lock + overlap mapping scheme (the Fig. 8 experiment and the
  Baseline-2 ablation).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.compute_node import ComputeNode
from repro.core.config import MACOConfig, maco_default_config
from repro.core.mapping import partition_gemm, schedule_gemm_plus
from repro.core.metrics import NodeResult, SystemResult, WorkloadResult
from repro.core.perf import (
    estimate_node_gemm,
    memory_environment,
    node_peak_gflops,
    slowest_partition_seconds,
    unmapped_memory_environment,
)
from repro.gemm.precision import Precision
from repro.gemm.workloads import GEMMShape, GEMMWorkload
from repro.mem.dram import DRAMModel
from repro.mem.hostmem import HostMemory
from repro.mem.l3cache import DistributedL3Cache
from repro.noc.network import MeshNetwork


class MACOSystem:
    """A configured MACO instance."""

    def __init__(self, config: Optional[MACOConfig] = None) -> None:
        self.config = config if config is not None else maco_default_config()
        self.host_memory = HostMemory()
        self.noc = MeshNetwork(self.config.noc)
        self.l3 = DistributedL3Cache(
            num_slices=self.config.memory.l3_slices,
            slice_size_bytes=self.config.memory.l3_slice_bytes,
            associativity=self.config.memory.l3_associativity,
            line_size=self.config.memory.line_size,
        )
        self.dram = DRAMModel(config=self.config.memory.dram)
        self.nodes: List[ComputeNode] = [
            ComputeNode(node_id, self.config, host_memory=self.host_memory, l3=self.l3)
            for node_id in range(self.config.num_nodes)
        ]

    # --------------------------------------------------------------------- peaks
    @property
    def num_nodes(self) -> int:
        """Number of compute nodes in this system."""
        return self.config.num_nodes

    def peak_gflops(self, precision: Precision, num_nodes: Optional[int] = None) -> float:
        """Aggregate MMAE peak of ``num_nodes`` nodes (default: all) at a precision."""
        nodes = num_nodes if num_nodes is not None else self.num_nodes
        return node_peak_gflops(self.config, precision) * nodes

    # ------------------------------------------------------------------ one GEMM
    def run_gemm(
        self,
        shape: GEMMShape,
        num_nodes: Optional[int] = None,
        prediction_enabled: Optional[bool] = None,
    ) -> SystemResult:
        """Run one GEMM partitioned across ``num_nodes`` compute nodes."""
        nodes = num_nodes if num_nodes is not None else self.num_nodes
        if not 1 <= nodes <= self.num_nodes:
            raise ValueError(f"num_nodes must be in 1..{self.num_nodes}")
        plan = partition_gemm(shape, nodes)
        active = plan.num_nodes
        env = memory_environment(self.config, active)
        node_results = []
        longest = 0.0
        for assignment in plan.assignments:
            timing = estimate_node_gemm(
                self.config, assignment.shape, active_nodes=active,
                prediction_enabled=prediction_enabled, env=env,
            )
            node_results.append(
                NodeResult(
                    node_id=assignment.node_id,
                    seconds=timing.seconds,
                    flops=assignment.shape.flops,
                    breakdowns=[timing],
                )
            )
            longest = max(longest, timing.seconds)
        return SystemResult(
            shape=shape,
            num_nodes=active,
            seconds=longest,
            flops=shape.flops,
            peak_gflops=self.peak_gflops(shape.precision, active),
            node_results=node_results,
            prediction_enabled=(
                prediction_enabled if prediction_enabled is not None else self.config.prediction_enabled
            ),
        )

    # --------------------------------------------------------- independent GEMMs
    def run_independent_gemms(
        self,
        shape: GEMMShape,
        num_nodes: Optional[int] = None,
        prediction_enabled: Optional[bool] = None,
    ) -> SystemResult:
        """Run the same GEMM independently on every active node (Fig. 7 setup)."""
        nodes = num_nodes if num_nodes is not None else self.num_nodes
        if not 1 <= nodes <= self.num_nodes:
            raise ValueError(f"num_nodes must be in 1..{self.num_nodes}")
        env = memory_environment(self.config, nodes)
        timing = estimate_node_gemm(
            self.config, shape, active_nodes=nodes,
            prediction_enabled=prediction_enabled, env=env,
        )
        node_results = [
            NodeResult(node_id=node_id, seconds=timing.seconds, flops=shape.flops, breakdowns=[timing])
            for node_id in range(nodes)
        ]
        return SystemResult(
            shape=shape,
            num_nodes=nodes,
            seconds=timing.seconds,
            flops=shape.flops * nodes,
            peak_gflops=self.peak_gflops(shape.precision, nodes),
            node_results=node_results,
            prediction_enabled=(
                prediction_enabled if prediction_enabled is not None else self.config.prediction_enabled
            ),
        )

    # ------------------------------------------------------------- full workload
    def run_workload(
        self,
        workload: GEMMWorkload,
        num_nodes: Optional[int] = None,
        mapping_enabled: Optional[bool] = None,
        prediction_enabled: Optional[bool] = None,
    ) -> WorkloadResult:
        """Run a GEMM+ workload (e.g. a DL network) across the compute nodes.

        Every layer's GEMM is column-partitioned across the active nodes; the
        per-layer time is the slowest node's time (layers are data dependent
        and execute in order).  The non-GEMM tail operators run on the CPU
        cores; the mapping scheme decides whether they overlap with the MMAEs
        and whether their inputs are still locked in the L3.
        """
        nodes = num_nodes if num_nodes is not None else self.num_nodes
        if not 1 <= nodes <= self.num_nodes:
            raise ValueError(f"num_nodes must be in 1..{self.num_nodes}")
        if mapping_enabled is None:
            mapping_enabled = self.config.mapping_scheme_enabled
        precision = workload.shapes[0].precision if workload.shapes else Precision.FP32

        env = memory_environment(self.config, nodes)
        if not mapping_enabled:
            env = unmapped_memory_environment(env)

        # The per-layer timings run through the memoized timing cache: DL
        # workloads repeat the same layer shapes many times (e.g. one GEMM set
        # per BERT encoder block), so most estimates are cache hits.
        mmae_seconds = 0.0
        gemm_flops = 0
        for shape in workload:
            mmae_seconds += slowest_partition_seconds(
                self.config, shape, nodes, env, prediction_enabled=prediction_enabled,
            )
            gemm_flops += shape.flops

        # Non-GEMM tail operators.  The mapping scheme distributes them across
        # the active CPU cores (each core post-processes its own output tiles);
        # without it the launching core runs the whole tail by itself.
        cpu = self.nodes[0].cpu
        tail_cores = nodes if mapping_enabled else 1
        per_core_flops = workload.non_gemm_flops / tail_cores
        per_core_bytes = workload.non_gemm_bytes / tail_cores
        cpu_seconds = cpu.run_elementwise(int(per_core_flops), int(per_core_bytes)).seconds

        # Stash traffic: the shared A panels plus each node's B/C columns are
        # prefetched from DRAM once per layer.
        stash_bytes = sum(partition_gemm(shape, nodes).stash_bytes for shape in workload)
        stash_seconds = stash_bytes / self.dram.effective_bandwidth(nodes)

        schedule = schedule_gemm_plus(
            mmae_seconds=mmae_seconds,
            cpu_seconds=cpu_seconds,
            stash_seconds=stash_seconds,
            mapping_enabled=mapping_enabled,
        )
        total_seconds = schedule.total_seconds
        return WorkloadResult(
            name=workload.name,
            system="maco" if mapping_enabled else "maco-nomap",
            num_nodes=nodes,
            seconds=total_seconds,
            gemm_flops=gemm_flops,
            total_flops=workload.total_flops,
            peak_gflops=self.peak_gflops(precision, nodes),
            gemm_seconds=mmae_seconds,
            non_gemm_seconds=cpu_seconds,
            overlap_enabled=mapping_enabled,
        )

    # ----------------------------------------------------------------- functional
    def node(self, node_id: int = 0) -> ComputeNode:
        """Access a compute node (e.g. to drive the functional MPAIS path)."""
        return self.nodes[node_id]
