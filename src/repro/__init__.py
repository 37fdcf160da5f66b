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

from repro.version import __version__

#: Names resolved lazily from :mod:`repro.parallel` (PEP 562) so that bare
#: ``import repro`` does not pay for the planner's NumPy-backed dependencies.
_PARALLEL_EXPORTS = (
    "OverheadBreakdown",
    "PARALLELISM_STRATEGIES",
    "ParallelPlan",
    "ParallelismSpec",
    "node_groups",
    "plan_parallel",
)

__all__ = ["__version__", *_PARALLEL_EXPORTS]


def __getattr__(name: str):
    if name in _PARALLEL_EXPORTS:
        import repro.parallel as _parallel

        return getattr(_parallel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(globals()) | set(_PARALLEL_EXPORTS))
