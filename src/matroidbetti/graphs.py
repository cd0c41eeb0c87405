"""Graphs, their cycle matroids, and cactus recognition.

A connected graph is a cactus when the blocks of its cycle matroid are all
cycles, self-loops and bridges. ``is_cactus`` checks connectivity and returns
that ``BlockPartition``, whose ``Block.kind`` is the one classification that
the recognition, the ``cactus`` route and the closed form all read.

Internally vertices are 0-indexed; the JSON and edge-list text formats are
1-indexed because that is how such inputs are usually written by hand. The
ground set of the cycle matroid is the edge list in order, so everything the
rest of the library computes (Betti tables, weights, block decompositions)
is indexed by edge positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .errors import ValidationError
from .matroid import BlockPartition, Matroid, _Graph, _presented


@dataclass(frozen=True)
class Graph:
    """A finite multigraph; parallel edges and self-loops are allowed."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.vertex_count, int) or isinstance(self.vertex_count, bool):
            raise ValueError(f"vertex_count must be an int, got {self.vertex_count!r}")
        if self.vertex_count < 1:
            raise ValueError(f"vertex_count must be >= 1, got {self.vertex_count}")
        norm = []
        for e in self.edges:
            pair = tuple(e)
            if len(pair) != 2 or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in pair
            ):
                raise ValueError(f"edge {e!r} is not a pair of vertex indices")
            u, v = pair
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(
                    f"edge {e!r} out of range for {self.vertex_count} vertices"
                )
            norm.append((u, v))
        object.__setattr__(self, "edges", tuple(norm))

    def _with_edges(self, pairs: list[tuple[int, int]]) -> "Graph":
        """This edgeless graph given ``pairs``, 0-indexed int pairs already
        checked against its vertex count, without checking them again."""
        object.__setattr__(self, "edges", tuple(pairs))
        return self

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @staticmethod
    def from_json_dict(data: dict, label: str = "graph JSON") -> "Graph":
        if not isinstance(data, dict):
            raise ValueError(f"{label}: expected a JSON object, got {type(data).__name__}")
        try:
            vertices = data["vertices"]
            edges = data["edges"]
        except KeyError as exc:
            raise ValueError(f"{label}: missing the {exc.args[0]!r} key") from None
        if not isinstance(vertices, int) or isinstance(vertices, bool):
            raise ValueError(f"{label}: 'vertices' must be an int, got {vertices!r}")
        if not isinstance(edges, list):
            raise ValueError(f"{label}: 'edges' must be a list of [u, v] pairs")
        zero_indexed = []
        for e in edges:
            if not isinstance(e, (list, tuple)) or len(e) != 2:
                raise ValueError(f"{label}: edge {e!r} is not a [u, v] pair")
            u, v = e
            if not all(isinstance(x, int) and not isinstance(x, bool) for x in (u, v)):
                raise ValueError(f"{label}: edge {e!r} has non-integer endpoints")
            if not (1 <= u <= vertices and 1 <= v <= vertices):
                raise ValueError(
                    f"{label}: edge {e!r} out of range 1..{vertices} (the format is 1-indexed)"
                )
            zero_indexed.append((u - 1, v - 1))
        return Graph(vertices, ())._with_edges(zero_indexed)

    def to_json_dict(self) -> dict:
        return {
            "vertices": self.vertex_count,
            "edges": [[u + 1, v + 1] for u, v in self.edges],
        }

    @staticmethod
    def from_edge_text(text: str) -> "Graph":
        """Parse a 1-indexed edge list: one ``u v`` pair per line, ``#``
        comments and blank lines ignored; the vertex count is the largest
        label that appears."""
        pairs = []
        top = 0
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer vertex in {raw!r}") from None
            if u < 1 or v < 1:
                raise ValueError(f"line {lineno}: vertices are 1-indexed, got {raw!r}")
            top = max(top, u, v)
            pairs.append((u - 1, v - 1))
        if not pairs:
            raise ValueError("edge list is empty")
        return Graph(top, ())._with_edges(pairs)


def cycle_matroid(graph: Graph) -> Matroid:
    """The cycle matroid on the edge set: the rank of an edge subset is the
    size of a spanning forest of the subgraph it induces, counted by
    union-find. The matroid keeps the edges as its presentation, from which
    it lists its bases and finds its greedy basis, fundamental circuits and
    closures with no rank call (see ``matroid``)."""
    return _presented(graph.edge_count, _Graph(graph.edges), "cycle_matroid")


def is_cactus(graph: Graph) -> BlockPartition:
    """The blocks of the cycle matroid of a connected graph; the graph is a
    cactus (every edge lies on at most one cycle) when the partition's
    ``is_cactus`` holds.

    Raises ValidationError when the graph is not connected, since the notion
    is only defined for connected graphs here. The message names at most ten
    of the unreachable vertices.
    """
    reached = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for a, b in graph.edges:
            if a == u and b not in reached:
                reached.add(b)
                frontier.append(b)
            elif b == u and a not in reached:
                reached.add(a)
                frontier.append(a)
    unreached = graph.vertex_count - len(reached)
    if unreached:
        missing = islice((v + 1 for v in range(graph.vertex_count) if v not in reached), 10)
        more = f" and {unreached - 10} more" if unreached > 10 else ""
        raise ValidationError(
            f"graph is not connected: vertices {list(missing)}{more} are "
            "unreachable from vertex 1"
        )
    return cycle_matroid(graph).blocks()


def _ring(k: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % k) for i in range(k)]


_FIXTURES: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {
    "g1": (10, tuple(_ring(10) + [(0, 2), (0, 5), (0, 8), (8, 6)])),
    "g2": (10, tuple(_ring(10) + [(0, 3), (0, 4), (0, 8), (8, 6)])),
    "g3": (7, tuple(_ring(7) + [(0, 3), (0, 5)])),
    "g4": (7, tuple(_ring(7) + [(0, 2), (0, 5)])),
}


def fixture(name: str) -> Graph:
    """The four chorded-ring benchmark graphs g1..g4."""
    key = name.lower()
    if key not in _FIXTURES:
        raise ValueError(
            f"unknown fixture {name!r}; available: {', '.join(sorted(_FIXTURES))}"
        )
    vertices, edges = _FIXTURES[key]
    return Graph(vertices, edges)

