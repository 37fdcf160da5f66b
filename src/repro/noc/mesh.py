"""2D mesh topology and link parameters: coordinates, neighbours, links, bandwidth."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple


@dataclass(frozen=True)
class NocConfig:
    """NoC parameters from the paper: 4x4 mesh, 256-bit links at 2 GHz."""

    width: int = 4
    height: int = 4
    link_width_bytes: int = 32
    frequency_hz: float = 2.0e9
    router_pipeline_cycles: int = 3

    def __post_init__(self) -> None:
        if self.link_width_bytes <= 0 or self.frequency_hz <= 0:
            raise ValueError("invalid NoC configuration")

    @property
    def cycle_time_s(self) -> float:
        return 1.0 / self.frequency_hz

    @property
    def link_bandwidth_bytes_per_s(self) -> float:
        """Unidirectional bandwidth of one link."""
        return self.link_width_bytes * self.frequency_hz

    @property
    def node_bandwidth_bytes_per_s(self) -> float:
        """Bidirectional injection/ejection bandwidth available to one node (128 GB/s)."""
        return 2 * self.link_bandwidth_bytes_per_s


@dataclass(frozen=True)
class NodeCoordinate:
    """(x, y) position of a node in the mesh; x grows to the east, y to the north."""

    x: int
    y: int

    def manhattan_distance(self, other: "NodeCoordinate") -> int:
        return abs(self.x - other.x) + abs(self.y - other.y)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.x},{self.y})"


class MeshTopology:
    """A ``width x height`` 2D mesh with bidirectional links between neighbours.

    Node ids are assigned row-major: ``node_id = y * width + x``, matching the
    compute-node numbering used by the MACO mapping scheme.
    """

    def __init__(self, width: int = 4, height: int = 4) -> None:
        if width <= 0 or height <= 0:
            raise ValueError("mesh dimensions must be positive")
        self.width = width
        self.height = height

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    def node_id(self, coord: NodeCoordinate) -> int:
        """The row-major node id at ``coord`` (raises if outside the mesh)."""
        self._check_coordinate(coord)
        return coord.y * self.width + coord.x

    def coordinate(self, node_id: int) -> NodeCoordinate:
        """The (x, y) position of ``node_id`` (raises if out of range)."""
        if not 0 <= node_id < self.num_nodes:
            raise ValueError(f"node id {node_id} out of range 0..{self.num_nodes - 1}")
        return NodeCoordinate(node_id % self.width, node_id // self.width)

    def _check_coordinate(self, coord: NodeCoordinate) -> None:
        if not (0 <= coord.x < self.width and 0 <= coord.y < self.height):
            raise ValueError(f"coordinate {coord} outside {self.width}x{self.height} mesh")

    def neighbors(self, node_id: int) -> List[int]:
        """Node ids adjacent to ``node_id`` (2 to 4 of them)."""
        coord = self.coordinate(node_id)
        candidates = [
            NodeCoordinate(coord.x + 1, coord.y),
            NodeCoordinate(coord.x - 1, coord.y),
            NodeCoordinate(coord.x, coord.y + 1),
            NodeCoordinate(coord.x, coord.y - 1),
        ]
        result = []
        for candidate in candidates:
            if 0 <= candidate.x < self.width and 0 <= candidate.y < self.height:
                result.append(self.node_id(candidate))
        return result

    def links(self) -> Iterator[Tuple[int, int]]:
        """All directed links (u, v) between adjacent nodes."""
        for node in range(self.num_nodes):
            for neighbor in self.neighbors(node):
                yield (node, neighbor)

    @property
    def num_links(self) -> int:
        return sum(1 for _ in self.links())

    def hop_distance(self, src: int, dst: int) -> int:
        """Manhattan distance between two nodes — the X-Y route's hop count."""
        return self.coordinate(src).manhattan_distance(self.coordinate(dst))

    def average_hop_distance(self) -> float:
        """Average Manhattan distance over all ordered node pairs (src != dst)."""
        total = 0
        pairs = 0
        for src in range(self.num_nodes):
            for dst in range(self.num_nodes):
                if src == dst:
                    continue
                total += self.hop_distance(src, dst)
                pairs += 1
        return total / pairs if pairs else 0.0
