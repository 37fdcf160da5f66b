"""Contract of :mod:`repro.conformance.reference`, the home of the scalar oracles.

The parity suites check each oracle against its fast path; this file checks
the seams around them: the reference serve engine is reached only through
:class:`ReferenceServeSimulator`, the production packages export no oracle,
and the reference policy queues order requests the way the engine expects.
"""

import importlib
from types import SimpleNamespace

import pytest

from repro.conformance import reference
from repro.conformance.reference import (
    ReferenceServeSimulator,
    _TupleHeapQueue,
    _reference_queue,
    run_segment_scalar,
)
from repro.serve import ServeSimulator
from repro.serve.engine import run_segment


def test_reference_simulator_swaps_only_the_segment_runner():
    assert ServeSimulator._segment_runner is run_segment
    assert ReferenceServeSimulator._segment_runner is run_segment_scalar
    assert issubclass(ReferenceServeSimulator, ServeSimulator)
    overridden = set(vars(ReferenceServeSimulator)) - {"__doc__", "__module__", "__qualname__"}
    assert overridden == {"_segment_runner"}


def test_serve_simulator_takes_no_engine_option():
    with pytest.raises(TypeError, match="engine"):
        ServeSimulator(engine="scalar")


@pytest.mark.parametrize("package", ["repro", "repro.serve", "repro.mmae"])
def test_production_packages_export_no_oracle(package):
    module = importlib.import_module(package)
    for name in reference.__all__:
        assert name not in getattr(module, "__all__", ())
        assert not hasattr(module, name), f"{package}.{name}"


def test_tuple_heap_queue_pops_by_key_then_rank():
    keys = {0: (5,), 1: (2,), 2: (5,), 3: (2,), 4: (1,)}
    queue = _TupleHeapQueue(lambda rank: keys[rank])
    for rank in (2, 0, 3, 1, 4):
        queue.push(rank)
    assert len(queue) == 5
    # Equal keys fall back to rank order: canonical (arrival tick, id) order.
    assert [queue.pop() for _ in range(5)] == [4, 1, 3, 0, 2]
    assert len(queue) == 0


def test_reference_queue_rejects_an_unknown_policy():
    with pytest.raises(ValueError, match="unknown scheduling policy 'lifo'"):
        _reference_queue(SimpleNamespace(policy="lifo"))
