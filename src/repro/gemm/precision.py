"""Floating-point precisions supported by the MACO MMAE.

The MMAE's systolic array natively computes FP64 MACs; the paper extends the
classical dataflow with SIMD-like compute modes that pack two FP32 or four
FP16 operations into each PE lane (Fig. 2(c)/(d)).  The :class:`Precision`
enum captures the element width, the NumPy dtype used by the functional
models, and the SIMD packing factor of each mode.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_BYTES_PER_ELEMENT = {"fp64": 8, "fp32": 4, "fp16": 2}
_SIMD_WAYS = {"fp64": 1, "fp32": 2, "fp16": 4}
#: FP16 inputs accumulate in FP32; the other precisions accumulate in kind.
_ACCUMULATOR = {"fp64": "fp64", "fp32": "fp32", "fp16": "fp32"}


class Precision(enum.Enum):
    """Element precision of a GEMM operand."""

    FP64 = "fp64"
    FP32 = "fp32"
    FP16 = "fp16"

    def __init__(self, value: str) -> None:
        # Plain per-member attributes: read on every GEMM byte count, so no
        # per-call table build or enum hash.
        #: Storage size of one element in bytes.
        self.bytes_per_element: int = _BYTES_PER_ELEMENT[value]
        #: Number of MAC lanes one PE provides in this mode (Fig. 2(b)-(d)).
        self.simd_ways: int = _SIMD_WAYS[value]
        #: Storage size of one accumulator element in bytes.
        self.accumulate_bytes: int = _BYTES_PER_ELEMENT[_ACCUMULATOR[value]]

    @property
    def dtype(self) -> np.dtype:
        """NumPy dtype used by the functional models."""
        import numpy as np

        return {
            Precision.FP64: np.dtype(np.float64),
            Precision.FP32: np.dtype(np.float32),
            Precision.FP16: np.dtype(np.float16),
        }[self]

    @property
    def accumulate_dtype(self) -> np.dtype:
        """Accumulator dtype: FP16 inputs accumulate in FP32, others in kind."""
        return Precision(_ACCUMULATOR[self.value]).dtype

    @classmethod
    def from_string(cls, name: str) -> "Precision":
        """Parse a precision from names like ``"fp32"``, ``"FP32"`` or ``"float32"``."""
        normalized = name.strip().lower().replace("float", "fp")
        for member in cls:
            if member.value == normalized:
                return member
        raise ValueError(f"unknown precision {name!r}; expected one of fp64/fp32/fp16")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value.upper()
