"""Directed-graph invariant for the {0, 1/2} array family.

The graph of an array has vertices v_1..v_n and an arrow v_i -> v_j exactly
when entry (i, j) equals 1/2.  Every such graph determines its own vertex
labels: v_n is the unique vertex with a self-loop, the walk back along the
forced subdiagonal arrows recovers v_{n-1}, ..., v_1.  Isomorphism of two
family graphs therefore collapses to equality of canonical edge sets.
"""

from __future__ import annotations

from .bieberbach import Record
from .families import GhwArray


class GraphShapeError(ValueError):
    """The graph is not of the array family's shape."""


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


def array_of(graph: GhwGraph) -> GhwArray:
    """Inverse of graph_of; raises if the edge set violates the array shape."""
    rows = [
        [2 if (r + 1, c + 1) in graph.edges else 0 for c in range(graph.n)]
        for r in range(graph.n)
    ]
    try:
        return GhwArray(graph.n, tuple(tuple(row) for row in rows))
    except ValueError as exc:
        raise GraphShapeError(str(exc)) from exc


def canonical_vertex_order(graph: GhwGraph) -> tuple[int, ...]:
    """Recover the forced labeling: result[k] is the vertex playing v_{k+1}.

    v_n is the unique self-loop; from each identified v_i the unique arrow
    into a not-yet-identified vertex leads to v_{i-1}.  Any failure of
    uniqueness means the graph is not of the family shape.
    """
    return _canonical_labeling(graph)[0]


def canonical_edges(graph: GhwGraph) -> frozenset[tuple[int, int]]:
    """Edge set after the forced relabeling."""
    return _canonical_labeling(graph)[1]


def _canonical_labeling(graph: GhwGraph):
    """(canonical_vertex_order, canonical_edges), shape-checked once."""
    n = graph.n
    out: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for i, j in graph.edges:
        out[i].add(j)
    loops = [v for v in range(1, n + 1) if (v, v) in graph.edges]
    if len(loops) != 1:
        raise GraphShapeError(f"expected exactly one self-loop, found {len(loops)}")
    order = [0] * n
    order[n - 1] = loops[0]
    identified = {loops[0]}
    current = loops[0]
    for position in range(n - 2, -1, -1):
        candidates = out[current] - identified
        if len(candidates) != 1:
            raise GraphShapeError(
                f"vertex {current} has {len(candidates)} arrows into unidentified "
                "vertices; expected exactly one"
            )
        (current,) = candidates
        order[position] = current
        identified.add(current)
    relabel = {vertex: position + 1 for position, vertex in enumerate(order)}
    relabeled = frozenset((relabel[i], relabel[j]) for i, j in graph.edges)
    array_of(GhwGraph(n, relabeled))  # full shape check, raises GraphShapeError
    return tuple(order), relabeled


def graphs_isomorphic(left: GhwGraph, right: GhwGraph) -> bool:
    """Directed-graph isomorphism, decided via canonical labelings."""
    if left.n != right.n:
        return False
    return canonical_edges(left) == canonical_edges(right)


def to_dot(graph: GhwGraph) -> str:
    """Deterministic DOT text: vertices in order, edges sorted."""
    lines = ["digraph ghw {"]
    for v in range(1, graph.n + 1):
        lines.append(f"  v{v};")
    for i, j in graph.sorted_edges():
        lines.append(f"  v{i} -> v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
