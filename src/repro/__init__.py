"""Reproduction of MACO: GEMM acceleration on a loosely-coupled multi-core processor.

The package is organised as a set of substrates (memory hierarchy,
network-on-chip, ISA, CPU core, MMAE accelerator, GEMM algorithms,
deep-learning workloads, baselines) topped by :mod:`repro.core`, which
assembles them into the MACO system described in the paper.

Quickstart::

    from repro.core import MACOSystem, maco_default_config
    from repro.gemm import GEMMShape, Precision

    system = MACOSystem(maco_default_config(num_nodes=4))
    result = system.run_gemm(GEMMShape(2048, 2048, 2048, Precision.FP64))
    print(result.gflops, result.efficiency)

The parallelism API (:class:`~repro.parallel.ParallelismSpec`, ``tp2d``
grids, :func:`~repro.parallel.plan_parallel`) is re-exported here lazily so
``import repro`` stays cheap.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.version import __version__

if TYPE_CHECKING:
    from repro.parallel import (
        OverheadBreakdown,
        PARALLELISM_STRATEGIES,
        ParallelPlan,
        ParallelismSpec,
        node_groups,
        plan_parallel,
    )

__getattr__, __dir__ = lazy_exports(__name__, __file__)

__all__ = [
    "__version__",
    "OverheadBreakdown",
    "PARALLELISM_STRATEGIES",
    "ParallelPlan",
    "ParallelismSpec",
    "node_groups",
    "plan_parallel",
]
