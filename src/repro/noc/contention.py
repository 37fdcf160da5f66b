"""Closed-form NoC + memory-system contention model.

The Fig. 7 experiment runs an independent GEMM on 1..16 compute nodes and
observes an average per-node efficiency loss of up to ~10% at 16 nodes,
attributed by the paper to the NoC being unable to satisfy every node's
bandwidth demand simultaneously.  Simulating 16 nodes streaming tens of
gigabytes flit-by-flit is infeasible in Python, so the sweeps use this
closed-form model, which captures the two real bottlenecks:

* **link contention** — with X-Y routing and traffic uniformly spread over the
  distributed L3 slices, the most-loaded mesh link carries a growing multiple
  of a single node's traffic as more nodes become active; and
* **memory bandwidth** — the DDR controllers behind the CCMs bound the
  aggregate fill/writeback bandwidth.

The model computes, for ``n`` active nodes each demanding ``d`` bytes/s, the
sustained per-node bandwidth ``min(d, node_limit, link_limit, dram_share)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.mem.dram import DRAMModel
from repro.noc.mesh import MeshTopology, NocConfig
from repro.noc.routing import route_links


@dataclass
class NocContentionModel:
    """Estimates sustained per-node bandwidth under concurrent streaming."""

    config: NocConfig = field(default_factory=NocConfig)
    dram: DRAMModel = field(default_factory=DRAMModel)
    #: Fraction of each node's L3 traffic that misses and must also traverse DRAM.
    l3_miss_fraction: float = 0.35
    #: Protocol/header overhead on every transfer (flit headers, coherence messages).
    protocol_overhead: float = 0.08

    def __post_init__(self) -> None:
        if not 0.0 <= self.l3_miss_fraction <= 1.0:
            raise ValueError("l3_miss_fraction must be within [0, 1]")
        if self.protocol_overhead < 0:
            raise ValueError("protocol_overhead cannot be negative")
        self.topology = MeshTopology(self.config.width, self.config.height)

    # ------------------------------------------------------------------ link load
    def _active_nodes(self, num_active: int) -> List[int]:
        """The compute nodes activated for an ``num_active``-node run.

        Nodes are activated in id order, matching the paper's scaling experiments
        (1, 2, 4, 8, 16 nodes on the 4x4 mesh).
        """
        num_nodes = self.topology.num_nodes
        if not 1 <= num_active <= num_nodes:
            raise ValueError(f"num_active must be in 1..{num_nodes}")
        return list(range(num_active))

    def max_link_load_factor(self, num_active: int) -> float:
        """Traffic multiple carried by the most-loaded link, per unit of per-node demand.

        Each active node spreads its L3 traffic uniformly over all L3 slices
        (line-interleaved addresses), i.e. uniformly over all mesh nodes.  The
        returned factor is the worst-case sum over links of per-node demand
        fractions routed through that link.
        """
        active = self._active_nodes(num_active)
        num_slices = self.topology.num_nodes
        link_load: Dict[tuple, float] = {}
        share = 1.0 / num_slices
        for src in active:
            for dst in range(num_slices):
                if src == dst:
                    continue
                for link in route_links(self.topology, src, dst):
                    link_load[link] = link_load.get(link, 0.0) + share
        if not link_load:
            return 0.0
        return max(link_load.values())

    # -------------------------------------------------------------- bandwidth model
    def sustained_node_bandwidth(self, num_active: int, demand_bytes_per_s: float) -> float:
        """Per-node bandwidth sustained when ``num_active`` nodes each demand ``demand``.

        Returns a value in ``(0, demand]``.
        """
        if demand_bytes_per_s <= 0:
            raise ValueError("demand must be positive")
        effective_demand = demand_bytes_per_s * (1.0 + self.protocol_overhead)

        # 1. The node's own injection/ejection port.
        node_limit = self.config.node_bandwidth_bytes_per_s

        # 2. The most loaded mesh link.
        load_factor = self.max_link_load_factor(num_active)
        if load_factor > 0:
            link_limit = self.config.link_bandwidth_bytes_per_s / load_factor
        else:
            link_limit = float("inf")

        # 3. The DRAM subsystem (only the L3-miss portion reaches DRAM).
        if self.l3_miss_fraction > 0:
            dram_share = self.dram.effective_bandwidth(num_active) / num_active
            dram_limit = dram_share / self.l3_miss_fraction
        else:
            dram_limit = float("inf")

        sustained = min(effective_demand, node_limit, link_limit, dram_limit)
        # Remove the protocol overhead again to express payload bandwidth.
        return sustained / (1.0 + self.protocol_overhead)

    def slowdown(self, num_active: int, demand_bytes_per_s: float) -> float:
        """Demand / sustained bandwidth ratio (>= 1.0)."""
        sustained = self.sustained_node_bandwidth(num_active, demand_bytes_per_s)
        return demand_bytes_per_s / sustained if sustained > 0 else float("inf")

    def saturation_node_count(self, demand_bytes_per_s: float) -> int:
        """Smallest active-node count at which per-node bandwidth drops below demand."""
        for count in range(1, self.topology.num_nodes + 1):
            if self.sustained_node_bandwidth(count, demand_bytes_per_s) < demand_bytes_per_s * 0.999:
                return count
        return self.topology.num_nodes + 1
