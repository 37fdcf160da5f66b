"""GEMM workload descriptions and generators.

The paper evaluates MACO on two kinds of GEMM workloads:

* synthetic square GEMMs of sizes 256 .. 9216 taken from an HPL-style
  benchmark package (Fig. 6 and Fig. 7), and
* the GEMM streams of ResNet-50, BERT and GPT-3 inference (Fig. 8), which are
  produced by :mod:`repro.workloads` on top of the :class:`GEMMShape` type
  defined here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence

from repro.gemm.precision import Precision

#: Matrix sizes swept by Fig. 6 of the paper (single-node address translation study).
FIG6_MATRIX_SIZES: tuple[int, ...] = (256, 512, 1024, 2048, 4096, 9216)

#: Matrix sizes swept by Fig. 7 of the paper (multi-node scalability study).
FIG7_MATRIX_SIZES: tuple[int, ...] = (
    256, 512, 1024, 2048, 3072, 4096, 5120, 6144, 7168, 8192, 9216,
)


@dataclass(frozen=True)
class GEMMShape:
    """Shape of a single GEMM: C[M,N] += A[M,K] @ B[K,N].

    The shape is the unit of work the MACO runtime schedules; everything the
    performance models need (FLOP count, operand footprints) derives from it.
    """

    m: int
    n: int
    k: int
    precision: Precision = Precision.FP64

    def __post_init__(self) -> None:
        for dim_name in ("m", "n", "k"):
            value = getattr(self, dim_name)
            if not isinstance(value, int) or value <= 0:
                raise ValueError(f"GEMM dimension {dim_name} must be a positive integer, got {value!r}")

    @property
    def flops(self) -> int:
        """Floating point operations (multiply + add counted separately)."""
        return 2 * self.m * self.n * self.k

    @property
    def macs(self) -> int:
        """Multiply-accumulate operations."""
        return self.m * self.n * self.k

    @property
    def bytes_a(self) -> int:
        return self.m * self.k * self.precision.bytes_per_element

    @property
    def bytes_b(self) -> int:
        return self.k * self.n * self.precision.bytes_per_element

    @property
    def bytes_c(self) -> int:
        return self.m * self.n * self.precision.bytes_per_element

    @property
    def total_bytes(self) -> int:
        """Total unique operand bytes (A + B + C)."""
        return self.bytes_a + self.bytes_b + self.bytes_c

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per unique byte touched, the classic roofline metric."""
        return self.flops / self.total_bytes

    def with_precision(self, precision: Precision) -> "GEMMShape":
        return GEMMShape(self.m, self.n, self.k, precision)

    def split_rows(self, parts: int) -> List["GEMMShape"]:
        """Split along M into ``parts`` nearly equal shapes (used by multi-node mapping)."""
        if parts <= 0:
            raise ValueError("parts must be positive")
        if parts > self.m:
            raise ValueError(f"cannot split M={self.m} into {parts} parts")
        base, extra = divmod(self.m, parts)
        shapes = []
        for index in range(parts):
            rows = base + (1 if index < extra else 0)
            shapes.append(GEMMShape(rows, self.n, self.k, self.precision))
        return shapes

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"GEMM(M={self.m}, N={self.n}, K={self.k}, {self.precision})"


@dataclass
class GEMMWorkload:
    """A named collection of GEMM shapes plus optional non-GEMM work.

    ``non_gemm_flops`` and ``non_gemm_bytes`` describe the element-wise tail
    operators (activation, normalisation, softmax) that follow the GEMMs in a
    GEMM+ workload (paper Section IV.B); they are executed by the CPU cores.
    """

    name: str
    shapes: List[GEMMShape] = field(default_factory=list)
    non_gemm_flops: int = 0
    non_gemm_bytes: int = 0

    def __post_init__(self) -> None:
        if self.non_gemm_flops < 0 or self.non_gemm_bytes < 0:
            raise ValueError("non-GEMM work cannot be negative")

    def __iter__(self) -> Iterator[GEMMShape]:
        return iter(self.shapes)

    def __len__(self) -> int:
        return len(self.shapes)

    @property
    def gemm_flops(self) -> int:
        return sum(shape.flops for shape in self.shapes)

    @property
    def total_flops(self) -> int:
        return self.gemm_flops + self.non_gemm_flops

    def add(self, shape: GEMMShape) -> None:
        self.shapes.append(shape)

    def scaled(self, repeat: int) -> "GEMMWorkload":
        """Return a workload with every GEMM repeated ``repeat`` times (e.g. batching)."""
        if repeat <= 0:
            raise ValueError("repeat must be positive")
        return GEMMWorkload(
            name=f"{self.name}x{repeat}",
            shapes=list(self.shapes) * repeat,
            non_gemm_flops=self.non_gemm_flops * repeat,
            non_gemm_bytes=self.non_gemm_bytes * repeat,
        )


def paper_matrix_sizes(figure: int = 7) -> Sequence[int]:
    """Return the matrix sizes swept by Fig. 6 (``figure=6``) or Fig. 7 (``figure=7``)."""
    if figure == 6:
        return FIG6_MATRIX_SIZES
    if figure == 7:
        return FIG7_MATRIX_SIZES
    raise ValueError(f"no matrix-size sweep defined for figure {figure}")


def square_workload(size: int, precision: Precision = Precision.FP64) -> GEMMShape:
    """A single square GEMM of the given size (the unit of Figs. 6 and 7)."""
    return GEMMShape(size, size, size, precision)


def sweep_square_sizes(
    sizes: Iterable[int], precision: Precision = Precision.FP64
) -> List[GEMMShape]:
    """Square GEMMs for every size in ``sizes``."""
    return [square_workload(size, precision) for size in sizes]


def random_workloads(
    count: int,
    min_dim: int = 64,
    max_dim: int = 4096,
    precision: Precision = Precision.FP32,
    seed: Optional[int] = None,
) -> List[GEMMShape]:
    """Random rectangular GEMM shapes, useful for fuzzing the schedulers."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if min_dim <= 0 or max_dim < min_dim:
        raise ValueError("invalid dimension bounds")
    rng = random.Random(seed)
    shapes = []
    for _ in range(count):
        m = rng.randint(min_dim, max_dim)
        n = rng.randint(min_dim, max_dim)
        k = rng.randint(min_dim, max_dim)
        shapes.append(GEMMShape(m, n, k, precision))
    return shapes


def hpl_like_workloads(
    max_size: int = 9216, step: int = 1024, precision: Precision = Precision.FP64
) -> GEMMWorkload:
    """An HPL-style workload: a ladder of square GEMMs up to ``max_size``.

    The paper sources its GEMM problems from the HPL benchmark package [7];
    HPL's LU factorisation spends its time in trailing-matrix updates whose
    GEMM sizes shrink as the factorisation proceeds, which this ladder mimics.
    """
    if max_size <= 0 or step <= 0:
        raise ValueError("max_size and step must be positive")
    sizes = list(range(step, max_size + 1, step))
    if not sizes:
        sizes = [max_size]
    shapes = [GEMMShape(size, size, size, precision) for size in reversed(sizes)]
    return GEMMWorkload(name=f"hpl-like-{max_size}", shapes=shapes)
