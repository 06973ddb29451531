"""Validity screens for candidate trees, cross-checked against exhaustive
enumeration on every graph small enough to brute-force."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesample import (
    DfsCondition,
    Graph,
    GraphSpec,
    Task,
    TiebreakMode,
    check_bf_valid,
    check_dfs_valid,
    enumerate_dfs_trees,
    enumerate_shortest_path_trees,
    generate_graph,
)

from conftest import brute_force_shortest_path_trees


def test_two_tree_graph_verdicts(two_tree_digraph):
    g = two_tree_digraph
    for pi in [(0, 0, 1), (0, 2, 0)]:
        verdict = check_dfs_valid(g, pi)
        assert verdict.valid
        assert verdict.tags() == []
    # 1 and 2 both claim to be roots, but both are reachable from 0.
    verdict = check_dfs_valid(g, (0, 2, 2))
    assert not verdict.valid
    assert verdict.tags() == ["RootUnreachableFromLower"]
    # 1 and 2 are siblings under 0 yet connected in both directions: a first
    # search out of either would have adopted the other before backtracking.
    verdict = check_dfs_valid(g, (0, 0, 0))
    assert not verdict.valid
    assert verdict.tags() == ["ParentReachableFromMinAncestor"]


def test_missing_edge_and_cycle_tags(two_tree_digraph):
    g = two_tree_digraph
    verdict = check_dfs_valid(g, (0, 2, 1))  # parent pointers loop 1 <-> 2
    assert DfsCondition.NO_CYCLE in verdict.failed_conditions
    verdict = check_dfs_valid(Graph.from_edges(3, [(0, 1, 1)], directed=True), (0, 0, 0))
    assert DfsCondition.EDGES in verdict.failed_conditions


def test_start_vertex_must_parent_itself(two_tree_digraph):
    verdict = check_dfs_valid(two_tree_digraph, (1, 0, 0))
    assert DfsCondition.START_NODE in verdict.failed_conditions


def test_valid_iff_no_tags(two_tree_digraph):
    for pi in product(range(3), repeat=3):
        verdict = check_dfs_valid(two_tree_digraph, pi)
        assert verdict.valid == (not verdict.failed_conditions)
        assert verdict.valid == (verdict.tags() == [])


def test_dfs_check_input_validation(two_tree_digraph):
    with pytest.raises(ValueError, match="length"):
        check_dfs_valid(two_tree_digraph, (0, 0))
    with pytest.raises(ValueError, match="out-of-range"):
        check_dfs_valid(two_tree_digraph, (0, 0, 7))


def test_mutual_parent_child_edges_are_fine():
    # A 2-cycle between parent and child is normal: the child's back edge
    # points at an ancestor. Only sibling pairs are constrained.
    g = Graph.from_edges(2, [(0, 1, 1), (1, 0, 1)], directed=True)
    assert check_dfs_valid(g, (0, 0)).valid


def test_sibling_mutual_edges_rejected_nonroot_parent():
    # 0 -> 1, 1 -> {2, 3}, 2 <-> 3: a forest parenting both 2 and 3 under 1
    # is impossible, whichever sibling is explored first would adopt the other.
    edges = [(0, 1, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1), (3, 2, 1)]
    g = Graph.from_edges(4, edges, directed=True)
    verdict = check_dfs_valid(g, (0, 0, 1, 1))
    assert not verdict.valid
    assert verdict.tags() == ["ParentReachableFromMinAncestor"]
    # With only one direction present the same shape is legitimate: explore 3
    # first (adopting nothing), backtrack, then 2 sees 3 already visited.
    one_way = Graph.from_edges(4, edges[:-1], directed=True)
    assert check_dfs_valid(one_way, (0, 0, 1, 1)).valid


def test_every_enumerated_dfs_tree_passes_screen():
    for seed in range(25):
        for n in (3, 4, 5, 6):
            g = generate_graph(GraphSpec(n=n, task=Task.DFS, seed=seed * 31 + n))
            for mode in TiebreakMode:
                for pi in enumerate_dfs_trees(g, mode=mode):
                    verdict = check_dfs_valid(g, pi)
                    assert verdict.valid, (seed, n, pi, verdict.tags())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 5))
def test_dfs_screen_never_rejects_true_forests(seed, n):
    g = generate_graph(GraphSpec(n=n, task=Task.DFS, seed=seed))
    for pi in enumerate_dfs_trees(g):
        assert check_dfs_valid(g, pi).valid


def test_bf_check_matches_enumeration_on_fixtures(unit_square, third_weight_line):
    for g in (unit_square, third_weight_line):
        assert brute_force_shortest_path_trees(g) == enumerate_shortest_path_trees(g)


def test_bf_check_on_disconnected_graph():
    # Vertex 0 is isolated; 1 and 2 form their own component. The only
    # accepted array roots each unreachable vertex at itself, the edge inside
    # the far component must not smuggle in a parent.
    g = Graph.from_edges(3, [(1, 2, 1)], directed=False, source=0)
    assert brute_force_shortest_path_trees(g) == {(0, 1, 2)}
    assert not check_bf_valid(g, (0, 1, 1))
    assert not check_bf_valid(g, (0, 2, 2))


def test_bf_check_rejects_wrong_cost_chain(unit_square):
    # (0,0,1,1): vertex 2 parented to 1 costs 0-1-... no edge (1,2); and
    # (0,0,0,0): no edge (0,3).
    assert not check_bf_valid(unit_square, (0, 0, 1, 1))
    assert not check_bf_valid(unit_square, (0, 0, 0, 0))
    # Pointer cycle between 1 and 3 never reaches the source.
    assert not check_bf_valid(unit_square, (0, 3, 0, 1))


def test_bf_check_input_validation(unit_square, two_tree_digraph):
    with pytest.raises(ValueError, match="length"):
        check_bf_valid(unit_square, (0, 0))
    for wrapped in ((0, 0, 0, -3), (0, 0, 0, 4)):  # -3 would wrap to vertex 1
        with pytest.raises(ValueError, match="out-of-range"):
            check_bf_valid(unit_square, wrapped)
    with pytest.raises(ValueError, match="source"):
        check_bf_valid(two_tree_digraph, (0, 0, 1))


def test_bf_check_source_must_self_parent(third_weight_line):
    assert not check_bf_valid(third_weight_line, (1, 0, 1))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 5), dense=st.booleans())
def test_bf_check_equals_enumeration_everywhere(seed, n, dense):
    p = 0.7 if dense else None
    g = generate_graph(GraphSpec(n=n, task=Task.BF, seed=seed, edge_probability=p))
    assert brute_force_shortest_path_trees(g) == enumerate_shortest_path_trees(g)
