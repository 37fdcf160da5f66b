"""Network-on-chip substrate: 4x4 2D mesh, X-Y routing, bandwidth model.

The paper's NoC is a classical 4x4 2D mesh running at 2 GHz with 256-bit links
(128 GB/s bidirectional per compute node) and X-Y dimension-order routing
(Section III.A).  :class:`NocConfig` holds those link parameters beside the
:class:`MeshTopology` they describe, and :mod:`repro.noc.routing` computes the
X-Y routes.  Two cost models consume them:

* the contention model (:class:`NocContentionModel`) estimates the sustained
  per-node bandwidth when ``n`` nodes stream to the distributed L3
  simultaneously — the quantity that drives the Fig. 7 scalability results;
* :mod:`repro.parallel`'s collective cost model prices ring all-reduce /
  all-gather / point-to-point transfers over the same X-Y routes for sharded
  multi-node execution.
"""

from repro.noc.mesh import MeshTopology, NocConfig, NodeCoordinate
from repro.noc.routing import xy_route, route_hops, route_links
from repro.noc.contention import NocContentionModel

__all__ = [
    "MeshTopology",
    "NocConfig",
    "NodeCoordinate",
    "xy_route",
    "route_hops",
    "route_links",
    "NocContentionModel",
]
