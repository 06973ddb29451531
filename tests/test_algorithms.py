"""Randomized runners against exhaustive enumeration on hand-checked graphs."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesample import (
    Graph,
    GraphSpec,
    INFINITE_COST,
    Task,
    TiebreakMode,
    bellman_ford_costs,
    enumerate_dfs_trees,
    enumerate_shortest_path_trees,
    generate_graph,
    randomized_bellman_ford,
    randomized_dfs,
)

from treesample.seeding import derive_rng

from conftest import path_cost_from_source, relax


def test_two_tree_digraph_enumeration(two_tree_digraph):
    # Hand-derived: root 0 adopts one of {1, 2} first, which then adopts the
    # other, so each of the two trees carries exactly half the tiebreak mass.
    expected = {(0, 0, 1): Fraction(1, 2), (0, 2, 0): Fraction(1, 2)}
    for mode in TiebreakMode:
        assert enumerate_dfs_trees(two_tree_digraph, mode=mode) == expected


def test_mode_changes_tree_weights(tiebreak_sensitive_digraph):
    # Hand-derived by walking all tiebreak orders. Per-run ranking weights the
    # branch at vertex 1 by how the whole permutation ranks {2, 3}; a fresh
    # uniform coin at that branch splits it evenly instead.
    per_run = enumerate_dfs_trees(tiebreak_sensitive_digraph, mode=TiebreakMode.PER_RUN_GLOBAL)
    per_node = enumerate_dfs_trees(tiebreak_sensitive_digraph, mode=TiebreakMode.PER_NODE)
    assert per_run == {
        (0, 0, 0, 2): Fraction(1, 2),
        (0, 0, 1, 1): Fraction(1, 3),
        (0, 0, 1, 2): Fraction(1, 6),
    }
    assert per_node == {
        (0, 0, 0, 2): Fraction(1, 2),
        (0, 0, 1, 1): Fraction(1, 4),
        (0, 0, 1, 2): Fraction(1, 4),
    }


@pytest.mark.parametrize(
    "n, edges, tree",
    [(1, [], (0,)), (2, [], (0, 1)), (2, [(0, 1, 1)], (0, 0)), (2, [(1, 0, 1)], (0, 1))],
)
def test_dfs_on_one_and_two_vertices(n, edges, tree):
    # With at most one vertex besides the root there is no tie to break: the
    # permutation of V \ {0} is empty or a single vertex.
    g = Graph.from_edges(n, edges, directed=True)
    for mode in TiebreakMode:
        assert {randomized_dfs(g, derive_rng(seed), mode) for seed in range(5)} == {tree}
        assert enumerate_dfs_trees(g, mode=mode) == {tree: Fraction(1)}


def test_enumeration_weights_sum_to_one():
    for seed in range(8):
        g = generate_graph(GraphSpec(n=6, task=Task.DFS), seed)
        supports = []
        for mode in TiebreakMode:
            trees = enumerate_dfs_trees(g, mode=mode)
            assert sum(trees.values()) == 1
            assert all(w > 0 for w in trees.values())
            supports.append(set(trees))
        # The modes weight the forests differently but reach the same ones.
        assert supports[0] == supports[1]


def test_enumeration_rejects_large_graphs():
    g = generate_graph(GraphSpec(n=9, task=Task.DFS), 0)
    with pytest.raises(ValueError, match="n <= 8"):
        enumerate_dfs_trees(g)
    gb = generate_graph(GraphSpec(n=9, task=Task.BF), 0)
    with pytest.raises(ValueError, match="n <= 8"):
        enumerate_shortest_path_trees(gb)


def test_edgeless_graph_has_identity_forest():
    g = Graph.from_edges(4, [], directed=True)
    assert enumerate_dfs_trees(g) == {(0, 1, 2, 3): Fraction(1)}
    assert randomized_dfs(g, derive_rng(5)) == (0, 1, 2, 3)


def test_randomized_dfs_deterministic_and_in_support(two_tree_digraph, unit_square):
    # An undirected graph is searched along both directions of every edge.
    for g in (two_tree_digraph, unit_square):
        support = set(enumerate_dfs_trees(g))
        for mode in TiebreakMode:
            for seed in range(50):
                pi = randomized_dfs(g, derive_rng(seed), mode)
                assert pi == randomized_dfs(g, derive_rng(seed), mode)
                assert pi in support


def test_randomized_dfs_frequencies_match_enumeration(two_tree_digraph):
    counts = Counter(randomized_dfs(two_tree_digraph, derive_rng(s)) for s in range(1000))
    assert set(counts) == {(0, 0, 1), (0, 2, 0)}
    assert abs(counts[(0, 0, 1)] / 1000 - 0.5) < 0.05


def test_costs_exact_on_fixtures(unit_square, third_weight_line):
    assert bellman_ford_costs(unit_square) == [0, 1, 1, 2]
    assert bellman_ford_costs(third_weight_line) == [0, Fraction(1, 3), Fraction(2, 3)]


def test_costs_mark_unreachable_infinite():
    g = Graph.from_edges(3, [(1, 2, 1)], directed=False, source=0)
    assert bellman_ford_costs(g) == [0, INFINITE_COST, INFINITE_COST]


def test_costs_require_source():
    g = Graph.from_edges(2, [(0, 1, 1)], directed=False)
    with pytest.raises(ValueError, match="source"):
        bellman_ford_costs(g)
    with pytest.raises(ValueError, match="source"):
        randomized_bellman_ford(g, derive_rng(0))


def test_shortest_path_tree_enumeration(unit_square, third_weight_line):
    assert enumerate_shortest_path_trees(unit_square) == {(0, 0, 0, 1), (0, 0, 0, 2)}
    assert enumerate_shortest_path_trees(third_weight_line) == {(0, 0, 1)}


def test_enumeration_keeps_unreachable_vertices_rooted():
    g = Graph.from_edges(3, [(1, 2, 1)], directed=False, source=0)
    assert enumerate_shortest_path_trees(g) == {(0, 1, 2)}


def test_randomized_bf_deterministic_and_covers_both_trees(unit_square):
    trees = enumerate_shortest_path_trees(unit_square)
    seen = set()
    for seed in range(40):
        pi = randomized_bellman_ford(unit_square, derive_rng(seed))
        assert pi == randomized_bellman_ford(unit_square, derive_rng(seed))
        assert pi in trees
        seen.add(pi)
    assert seen == trees


def test_randomized_bf_equals_the_relaxation_replay():
    # The event-time runner must give the tree, and sp_costs the costs, of the
    # pass-by-pass loop (conftest.relax) for the same seed, on every kind of graph.
    graphs = [generate_graph(GraphSpec(n), seed) for n in (1, 2, 3, 5, 8, 16, 64) for seed in range(3)]
    sparse = [generate_graph(GraphSpec(16, 0.08), seed) for seed in range(6)]
    assert any(INFINITE_COST in g.sp_costs for g in sparse)  # some are disconnected
    directed = Graph.from_edges(
        6, [(3, 0, 1), (3, 1, 1), (0, 2, 1), (1, 2, 1), (2, 4, 1), (0, 4, 2), (5, 0, 1)],
        directed=True, source=3,
    )
    huge = Graph.from_edges(
        5, [(0, 1, "1/3"), (1, 2, "2/3"), (0, 2, 1), (0, 4, "1e400"), (4, 3, 1), (2, 3, "1e400")],
        directed=False, source=0,
    )
    arcless = Graph.from_edges(3, [], directed=False, source=1)
    # Costs settle one hop per pass from 63 down to 0: the pass loop's worst case.
    path = Graph.from_edges(64, [(v, v + 1, 1) for v in range(63)], directed=False, source=63)

    def trees(g: Graph) -> set[tuple[int, ...]]:
        out = set()
        for seed in range(100 if g.n <= 6 else 20):  # small graphs: see every tree
            pi = randomized_bellman_ford(g, derive_rng(seed))
            costs, parents = relax(g, np.random.default_rng(seed))
            assert pi == tuple(parents), (g, seed)
            assert g.sp_costs == tuple(costs), g
            out.add(pi)
        return out

    for g in [*graphs, *sparse]:
        trees(g)
    assert trees(directed) == {(3, 3, p2, 3, p4, 5) for p2 in (0, 1) for p4 in (0, 2)}
    assert len(trees(huge)) == 4  # 2 ties 0 and 1, 3 ties 4 and 2
    assert trees(arcless) == {(0, 1, 2)}
    assert trees(path) == {(*range(1, 64), 63)}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 6))
def test_random_dfs_output_is_always_enumerated(seed, n):
    g = generate_graph(GraphSpec(n=n, task=Task.DFS), seed)
    for mode in TiebreakMode:
        support = set(enumerate_dfs_trees(g, mode=mode))
        pi = randomized_dfs(g, derive_rng(seed), mode)
        assert pi in support


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 6))
def test_random_bf_output_is_always_enumerated(seed, n):
    g = generate_graph(GraphSpec(n=n, task=Task.BF), seed)
    pi = randomized_bellman_ford(g, derive_rng(seed))
    assert pi in enumerate_shortest_path_trees(g)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 7))
def test_bf_chain_costs_telescope_to_true_costs(seed, n):
    """Walking any output's parent chain reproduces the true cost per vertex."""
    g = generate_graph(GraphSpec(n=n, task=Task.BF), seed)
    pi = randomized_bellman_ford(g, derive_rng(seed + 1))
    costs = bellman_ford_costs(g)
    for v in range(n):
        assert path_cost_from_source(g, pi, v) == costs[v]
