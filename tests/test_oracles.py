"""The exact runner laws of `oracles.py` against brute force."""

from fractions import Fraction

import pytest

from treesample import Graph, GraphSpec, Task, TiebreakMode, generate_graph
from treesample.seeding import derive_seed

from conftest import arc_list
from oracles import BF_ARC_LIMIT, bf_parent_law, bf_parent_law_by_replay, exact_parent_law


def tiny_bf_graphs():
    """Generated BF graphs with at most 6 arcs, weights 1 and 2, so that ties
    are common and the replay's 720 orders per pass stay cheap."""
    for n in (3, 4, 5, 6):
        for index in range(40):
            g = generate_graph(GraphSpec(n, task=Task.BF, weight_set=(1, 2)), derive_seed(5, "tiny", n, index))
            if len(arc_list(g)) <= 6:
                yield g


def test_bf_programme_equals_the_replay_of_every_pass_order(unit_square):
    # A triangle where 2 ties between 0 and 1, next to an unreachable vertex 3.
    # 2 keeps parent 1 only in pass orders where (0, 1), (1, 2), (0, 2) fire
    # in that order: 1 in 6.
    triangle = Graph.from_edges(4, [(0, 1, 1), (1, 2, 1), (0, 2, 2)], False, 0)
    graphs = [unit_square, triangle, *tiny_bf_graphs()]
    assert len(graphs) > 100 and max(len(g.sp_arcs) for g in graphs) >= 4
    for g in graphs:
        law = bf_parent_law(g)
        assert law == bf_parent_law_by_replay(g), g.to_dict()
        assert all(sum(row) == 1 for row in law)
    assert bf_parent_law(triangle)[2:] == [[Fraction(5, 6), Fraction(1, 6), 0, 0], [0, 0, 0, 1]]
    assert bf_parent_law(unit_square)[3] == [0, Fraction(1, 2), Fraction(1, 2), 0]


def test_bf_programme_refuses_more_tight_arcs_than_its_guard():
    # A complete graph with unit weights: every arc out of the source is tight,
    # and so is no other.
    n = BF_ARC_LIMIT + 2
    g = Graph.from_edges(n, [(u, v, 1) for u in range(n) for v in range(u + 1, n)], False, 0)
    with pytest.raises(ValueError, match=f"at most {BF_ARC_LIMIT} tight arcs, got {n - 1}"):
        bf_parent_law(g)


def test_dfs_law_sums_the_enumerated_forests(two_tree_digraph):
    # Each of (0, 0, 1) and (0, 2, 0) has probability 1/2 in both modes.
    for mode in TiebreakMode:
        law = exact_parent_law(two_tree_digraph, Task.DFS, mode)
        assert law.probs.tolist() == [[1, 0, 0], [0.5, 0, 0.5], [0.5, 0.5, 0]]
