"""Directed-graph invariant: construction, canonical labeling, isomorphism."""

import itertools

import pytest

from oracles import (
    GraphShapeError,
    array_of,
    canonical_edges,
    canonical_vertex_order,
    graphs_isomorphic,
)

from flatspec.families import GhwArray, kn_arrays
from flatspec.graphs import GhwGraph, graph_of, to_dot


def brute_force_isomorphic(left: GhwGraph, right: GhwGraph) -> bool:
    """All-permutations oracle for directed graph isomorphism."""
    if left.n != right.n or len(left.edges) != len(right.edges):
        return False
    for image in itertools.permutations(range(1, left.n + 1)):
        relabel = dict(zip(range(1, left.n + 1), image))
        if {(relabel[i], relabel[j]) for i, j in left.edges} == set(right.edges):
            return True
    return False


def test_graph_of_klein_bottle():
    graph = graph_of(GhwArray.from_bits(2, ()))
    assert graph.edges == frozenset({(2, 1), (2, 2)})


def test_graph_of_first_amphidicosm():
    graph = graph_of(GhwArray.from_bits(3, (0,)))
    assert graph.edges == frozenset({(2, 1), (2, 3), (3, 2), (3, 3)})


def test_graph_of_chain_member_has_backbone_plus_last_column():
    n = 5
    graph = graph_of(GhwArray.from_bits(n, (0,) * 6))
    backbone = {(i + 1, i) for i in range(1, n)}
    last_column = {(i, n) for i in range(2, n + 1)}
    assert graph.edges == frozenset(backbone | last_column)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_family_graph_contains_the_forced_edges(n):
    for array in kn_arrays(n):
        graph = graph_of(array)
        for i in range(1, n):
            assert (i + 1, i) in graph.edges
        assert (n, n) in graph.edges
        # even out-degree at every vertex (row parity)
        for v in range(1, n + 1):
            assert sum(1 for i, _ in graph.edges if i == v) % 2 == 0


def test_canonical_order_is_identity_on_family_graphs():
    for array in kn_arrays(4):
        graph = graph_of(array)
        assert canonical_vertex_order(graph) == (1, 2, 3, 4)


def test_canonical_order_recovers_permuted_klein_graph():
    # relabel the Klein bottle graph by swapping the two vertices
    graph = GhwGraph(2, frozenset({(1, 2), (1, 1)}))
    assert canonical_vertex_order(graph) == (2, 1)
    assert canonical_edges(graph) == frozenset({(2, 1), (2, 2)})


def test_canonical_order_on_scrambled_family_graph():
    array = GhwArray.from_bits(4, (1, 0, 1))
    graph = graph_of(array)
    relabel = {1: 3, 2: 1, 3: 4, 4: 2}
    scrambled = GhwGraph(4, frozenset((relabel[i], relabel[j]) for i, j in graph.edges))
    order = canonical_vertex_order(scrambled)
    assert order == (relabel[1], relabel[2], relabel[3], relabel[4])
    assert canonical_edges(scrambled) == graph.edges
    assert graphs_isomorphic(scrambled, graph)


def test_two_self_loops_is_a_shape_error():
    graph = GhwGraph(2, frozenset({(1, 1), (2, 2)}))
    with pytest.raises(GraphShapeError):
        canonical_vertex_order(graph)


def test_no_self_loop_is_a_shape_error():
    graph = GhwGraph(2, frozenset({(2, 1)}))
    with pytest.raises(GraphShapeError):
        canonical_vertex_order(graph)


def test_non_family_edge_set_is_rejected():
    # correct walk structure but an arrow into the forbidden lower region
    graph = GhwGraph(4, frozenset({(2, 1), (3, 2), (4, 3), (4, 4), (3, 1), (3, 4)}))
    with pytest.raises(GraphShapeError):
        canonical_vertex_order(graph)


def test_isomorphism_examples():
    plus = graph_of(GhwArray.from_bits(3, (0,)))
    minus = graph_of(GhwArray.from_bits(3, (1,)))
    assert graphs_isomorphic(plus, plus)
    assert not graphs_isomorphic(plus, minus)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_family_graphs_pairwise_non_isomorphic(n):
    graphs = [graph_of(a) for a in kn_arrays(n)]
    for left, right in itertools.combinations(graphs, 2):
        assert not graphs_isomorphic(left, right)


@pytest.mark.parametrize("n", [3, 4])
def test_isomorphism_agrees_with_brute_force(n):
    graphs = [graph_of(a) for a in kn_arrays(n)]
    for left in graphs:
        for right in graphs:
            assert graphs_isomorphic(left, right) == brute_force_isomorphic(left, right)


def test_isomorphism_agrees_with_brute_force_under_relabeling():
    array = GhwArray.from_bits(4, (1, 1, 0))
    graph = graph_of(array)
    for image in itertools.permutations(range(1, 5)):
        relabel = dict(zip(range(1, 5), image))
        moved = GhwGraph(4, frozenset((relabel[i], relabel[j]) for i, j in graph.edges))
        assert graphs_isomorphic(moved, graph)
        assert brute_force_isomorphic(moved, graph)


def test_array_graph_round_trip():
    for array in kn_arrays(4):
        assert array_of(graph_of(array)) == array


def test_graph_json_and_dot():
    graph = graph_of(GhwArray.from_bits(2, ()))
    assert graph.to_json() == {"n": 2, "edges": [[2, 1], [2, 2]]}
    assert to_dot(graph) == "digraph ghw {\n  v1;\n  v2;\n  v2 -> v1;\n  v2 -> v2;\n}\n"


def test_dot_of_chain_member_dimension_four():
    graph = graph_of(GhwArray.from_bits(4, (0, 0, 0)))
    dot = to_dot(graph)
    assert dot.count("->") == 6  # 3 backbone + 3 into the last vertex
    assert "v2 -> v4;" in dot and "v4 -> v4;" in dot
