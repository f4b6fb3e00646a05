"""Directed-graph invariant for the {0, 1/2} array family.

The graph of an array has vertices v_1..v_n and an arrow v_i -> v_j exactly
when entry (i, j) equals 1/2.  Every such graph determines its own vertex
labels: v_n is the unique vertex with a self-loop, the walk back along the
forced subdiagonal arrows recovers v_{n-1}, ..., v_1.  So two members'
graphs are isomorphic iff their arrays are equal, and no isomorphism test
is needed.
"""

from __future__ import annotations

from .bieberbach import Record
from .families import GhwArray


class GhwGraph(Record):
    """Directed graph on vertices 1..n with edge set E (1-based pairs)."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges: frozenset[tuple[int, int]]):
        for i, j in edges:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge ({i},{j}) outside vertex range 1..{n}")
        super().__init__(n, edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.sorted_edges()]}


def graph_of(array: GhwArray) -> GhwGraph:
    """Arrow v_i -> v_j iff the (i, j) entry of the array is 1/2 (2 quarter
    units; the only other entry value is 0)."""
    edges = {
        (r + 1, c + 1)
        for r in range(array.n)
        for c in range(array.n)
        if array.entries[r][c]
    }
    return GhwGraph(array.n, frozenset(edges))


def to_dot(graph: GhwGraph) -> str:
    """Deterministic DOT text: vertices in order, edges sorted."""
    lines = ["digraph ghw {"]
    for v in range(1, graph.n + 1):
        lines.append(f"  v{v};")
    for i, j in graph.sorted_edges():
        lines.append(f"  v{i} -> v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
