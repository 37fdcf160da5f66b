"""The MMAE's on-chip scratchpad buffers.

The MMAE integrates 192 KB of high-capacity buffers for data reuse (paper
Section III.A), split into an A buffer, a B buffer and a C buffer feeding the
systolic array.  The buffer model tracks allocations so the accelerator
controller can reject tiles that do not fit (raising the BUFFER_OVERFLOW
exception of Table III) and so the double-buffering occupancy is explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.gemm.precision import Precision


class BufferAllocationError(Exception):
    """Raised when a tile does not fit in its scratchpad buffer."""


@dataclass
class ScratchpadBuffer:
    """A single software-managed scratchpad (no tags, explicit allocation)."""

    name: str
    capacity_bytes: int
    used_bytes: int = 0
    allocations: Dict[str, int] = field(default_factory=dict)
    peak_used_bytes: int = 0

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(f"{self.name}: capacity must be positive")

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    @property
    def occupancy(self) -> float:
        return self.used_bytes / self.capacity_bytes

    def can_fit(self, size_bytes: int) -> bool:
        return size_bytes <= self.free_bytes

    def allocate(self, label: str, size_bytes: int) -> None:
        """Reserve ``size_bytes`` under ``label``; raises if it does not fit."""
        if size_bytes <= 0:
            raise ValueError(f"{self.name}: allocation size must be positive")
        if label in self.allocations:
            raise BufferAllocationError(f"{self.name}: label {label!r} already allocated")
        if not self.can_fit(size_bytes):
            raise BufferAllocationError(
                f"{self.name}: cannot fit {size_bytes} bytes (free: {self.free_bytes})"
            )
        self.allocations[label] = size_bytes
        self.used_bytes += size_bytes
        self.peak_used_bytes = max(self.peak_used_bytes, self.used_bytes)

    def release(self, label: str) -> None:
        if label not in self.allocations:
            raise BufferAllocationError(f"{self.name}: no allocation named {label!r}")
        self.used_bytes -= self.allocations.pop(label)

    def release_all(self) -> None:
        self.allocations.clear()
        self.used_bytes = 0


class BufferSet:
    """The A/B/C buffer triple of one MMAE (192 KB total by default)."""

    def __init__(
        self,
        a_capacity: int = 64 * 1024,
        b_capacity: int = 64 * 1024,
        c_capacity: int = 64 * 1024,
    ) -> None:
        self.a = ScratchpadBuffer("a_buffer", a_capacity)
        self.b = ScratchpadBuffer("b_buffer", b_capacity)
        self.c = ScratchpadBuffer("c_buffer", c_capacity)

    @property
    def total_capacity_bytes(self) -> int:
        return self.a.capacity_bytes + self.b.capacity_bytes + self.c.capacity_bytes

    def check_tile_fits(
        self,
        ttr: int,
        ttc: int,
        ttk: int,
        precision: Precision,
        double_buffered: bool = True,
    ) -> None:
        """Verify a second-level tile fits the buffers; raises on overflow.

        With double buffering, the A and B buffers must hold two in-flight
        blocks each (the one being computed and the one being fetched); the C
        buffer holds a single accumulator tile for the duration of the K loop.
        """
        element = precision.bytes_per_element
        factor = 2 if double_buffered else 1
        a_bytes = ttr * ttk * element * factor
        b_bytes = ttk * ttc * element * factor
        c_bytes = ttr * ttc * precision.accumulate_bytes
        if a_bytes > self.a.capacity_bytes:
            raise BufferAllocationError(
                f"A tile ({ttr}x{ttk}, {a_bytes} bytes incl. double buffering) exceeds "
                f"the {self.a.capacity_bytes}-byte A buffer"
            )
        if b_bytes > self.b.capacity_bytes:
            raise BufferAllocationError(
                f"B tile ({ttk}x{ttc}, {b_bytes} bytes incl. double buffering) exceeds "
                f"the {self.b.capacity_bytes}-byte B buffer"
            )
        if c_bytes > self.c.capacity_bytes:
            raise BufferAllocationError(
                f"C tile ({ttr}x{ttc}, {c_bytes} bytes) exceeds the "
                f"{self.c.capacity_bytes}-byte C buffer"
            )

    def max_tile_dim(self, precision: Precision, double_buffered: bool = True) -> int:
        """Largest square second-level tile the buffers support for a precision."""
        dim = 1
        while True:
            candidate = dim * 2
            try:
                self.check_tile_fits(candidate, candidate, candidate, precision, double_buffered)
            except BufferAllocationError:
                break
            dim = candidate
        # Refine linearly between dim and 2*dim.
        step = max(1, dim // 8)
        best = dim
        candidate = dim
        while True:
            candidate += step
            try:
                self.check_tile_fits(candidate, candidate, candidate, precision, double_buffered)
                best = candidate
            except BufferAllocationError:
                break
        return best

    def release_all(self) -> None:
        self.a.release_all()
        self.b.release_all()
        self.c.release_all()
