"""Validity checks for candidate trees, cross-checked against exhaustive
enumeration on every graph small enough to brute-force."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesample import (
    DfsCondition,
    Graph,
    GraphSpec,
    SamplerConfig,
    Task,
    TiebreakMode,
    bellman_ford_costs,
    build_empirical,
    check_bf_valid,
    check_dfs_valid,
    draw_samples,
    enumerate_dfs_trees,
    enumerate_shortest_path_trees,
    generate_graph,
    randomized_dfs,
)
from treesample.algorithms import _dfs_forest, _ranked_pick
from treesample.seeding import derive_rng, derive_seed

from conftest import brute_force_shortest_path_trees, path_cost_from_source, tight_parent_trees
from oracles import dfs_witness


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
    assert verdict.tags() == ["SiblingOrder"]


def test_missing_edge_and_cycle_tags(two_tree_digraph):
    g = two_tree_digraph
    verdict = check_dfs_valid(g, (0, 2, 1))  # parent pointers loop 1 <-> 2
    assert verdict.tags() == ["NoCycle"]
    # A looping array is no forest: only StartNode and Edges join NoCycle.
    assert check_dfs_valid(g, (1, 0, 0)).tags() == ["Edges", "NoCycle", "StartNode"]
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
    assert verdict.tags() == ["SiblingOrder"]
    # With only one direction present the same shape is legitimate: explore 3
    # first (adopting nothing), backtrack, then 2 sees 3 already visited.
    one_way = Graph.from_edges(4, edges[:-1], directed=True)
    assert check_dfs_valid(one_way, (0, 0, 1, 1)).valid


def test_sibling_order_cycle_rejected():
    # 0 -> {1, 2, 3} and 1 -> 2 -> 3 -> 1. No two siblings are joined both
    # ways, yet each of 1, 2, 3 must be explored after the one it points to,
    # and those three constraints form a cycle: whichever child of 0 is
    # entered first adopts the other two.
    edges = [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (2, 3, 1), (3, 1, 1)]
    g = Graph.from_edges(4, edges, directed=True)
    verdict = check_dfs_valid(g, (0, 0, 0, 0))
    assert not verdict.valid
    assert verdict.tags() == ["SiblingOrder"]
    # 0 -> {1, 2, 3}, 3 -> 2 and 2 -> 1: the constraint chain takes two rounds
    # to peel, and exploring 1, then 2, then 3 builds the star.
    chain = Graph.from_edges(4, [*edges[:3], (3, 2, 1), (2, 1, 1)], directed=True)
    assert check_dfs_valid(chain, (0, 0, 0, 0)).valid
    assert (0, 0, 0, 0) in enumerate_dfs_trees(chain)
    # The cycle again, plus 4 -> 1: branch 4 must follow one that never peels.
    edges = [(0, v, 1) for v in (1, 2, 3, 4)] + [(1, 2, 1), (2, 3, 1), (3, 1, 1), (4, 1, 1)]
    tail = Graph.from_edges(5, edges, directed=True)
    assert check_dfs_valid(tail, (0, 0, 0, 0, 0)).tags() == ["SiblingOrder"]


def test_every_accepted_dfs_candidate_at_scale_replays_its_witness():
    # Only exhaustion at n <= 6 (test_07) shows that an accepted array is a
    # real DFS forest; at scale the proof is a search order that rebuilds it.
    replayed = 0
    for n in (8, 20, 64):
        for gi in range(4):
            g = generate_graph(GraphSpec(n=n, task=Task.DFS), derive_seed(0, "witness", n, gi))
            runs = [
                randomized_dfs(g, derive_rng(n, gi, mode.value, run), mode)
                for mode in TiebreakMode
                for run in range(10)
            ]
            dist = build_empirical(g, Task.DFS, runs=20, seed=gi)
            draws = [
                pi
                for method in ("upwards", "alt-upwards", "argmax", "random")
                for pi in draw_samples(method, dist, g, SamplerConfig(), 5, derive_rng(n, gi, method))
            ]
            rng = derive_rng(n, gi, "mutants")
            mutants = []
            for pi in map(list, runs):
                v, p = rng.integers(n), int(rng.integers(n - 1))
                pi[v] = p + (p >= pi[v])  # any parent but the old one
                mutants.append(tuple(pi))
            for pi in runs + draws + mutants:
                if check_dfs_valid(g, pi).valid:
                    order = dfs_witness(g, pi)
                    assert _dfs_forest(g.n, g.adjacency, _ranked_pick(g.n, order)) == pi, (n, gi, pi)
                    replayed += 1
    assert replayed >= 240


def test_dfs_check_accepts_exactly_the_enumerated_forests(
    two_tree_digraph, tiebreak_sensitive_digraph
):
    for g in (two_tree_digraph, tiebreak_sensitive_digraph):
        accepted = {pi for pi in product(range(g.n), repeat=g.n) if check_dfs_valid(g, pi).valid}
        for mode in TiebreakMode:
            assert accepted == set(enumerate_dfs_trees(g, mode=mode))


def test_every_enumerated_dfs_tree_passes_screen():
    for seed in range(25):
        for n in (3, 4, 5, 6):
            g = generate_graph(GraphSpec(n=n, task=Task.DFS), seed * 31 + n)
            for mode in TiebreakMode:
                for pi in enumerate_dfs_trees(g, mode=mode):
                    verdict = check_dfs_valid(g, pi)
                    assert verdict.valid, (seed, n, pi, verdict.tags())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 5))
def test_dfs_screen_never_rejects_true_forests(seed, n):
    g = generate_graph(GraphSpec(n=n, task=Task.DFS), seed)
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
    for not_int in ((0, 0, 0, 1.0), (0, 0, 0, True), (0, 0, 0, "a")):  # 1.0, True equal 1
        with pytest.raises(ValueError, match="ints"):
            check_bf_valid(unit_square, not_int)
    with pytest.raises(ValueError, match="source"):
        check_bf_valid(two_tree_digraph, (0, 0, 1))


def test_bf_check_source_must_self_parent(third_weight_line):
    assert not check_bf_valid(third_weight_line, (1, 0, 1))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 5), dense=st.booleans())
def test_bf_check_equals_enumeration_everywhere(seed, n, dense):
    p = 0.7 if dense else None
    g = generate_graph(GraphSpec(n=n, task=Task.BF, edge_probability=p), seed)
    accepted = brute_force_shortest_path_trees(g)
    assert accepted == enumerate_shortest_path_trees(g) == tight_parent_trees(g)


def _split_graph(n: int, directed: bool, rng: random.Random) -> Graph:
    """Random graph whose source is its last vertex and whose first vertices
    (at least one, when n > 1) form a component the source cannot reach.
    Weights of 1/3 and 2/3 make cost ties, and so several trees, common."""
    far = rng.randint(1, max(1, (n - 1) // 2)) if n > 1 else 0
    edges = []
    for u, v in product(range(n), repeat=2):
        if u == v or (not directed and u > v):
            continue
        same_side = (u < far) == (v < far)
        # Directed arcs may leave the far component, never enter it.
        if (same_side and rng.random() < 0.8) or (directed and u < far <= v and rng.random() < 0.3):
            edges.append((u, v, rng.choice((Fraction(1, 3), Fraction(1, 3), Fraction(2, 3)))))
    return Graph.from_edges(n, edges, directed=directed, source=n - 1)


def test_bf_check_equals_chain_cost_definition_on_every_array():
    # Independent oracle: an array is a shortest-path tree exactly when every
    # vertex's parent chain costs what Bellman-Ford says, counting an
    # unreachable self-parent as infinite (path_cost_from_source's convention).
    rng = random.Random(4)
    for n in range(1, 6):
        for directed in (False, True):
            for _ in range(20):
                g = _split_graph(n, directed, rng)
                costs = bellman_ford_costs(g)
                accepted = 0
                for pi in product(range(n), repeat=n):
                    chain = all(path_cost_from_source(g, pi, v) == costs[v] for v in range(n))
                    assert check_bf_valid(g, pi) == chain, (g, pi)
                    accepted += chain
                assert accepted >= 1


def test_no_cycle_tag_equals_self_return_within_n_steps():
    def returns_to_itself(pi: tuple[int, ...], v: int) -> bool:
        cur = v
        for _ in range(len(pi)):
            cur = pi[cur]
            if cur == v:
                return True
        return False

    for n in range(1, 7):
        g = Graph.from_edges(n, [], directed=True)
        for pi in product(range(n), repeat=n):
            cycle = any(pi[v] != v and returns_to_itself(pi, v) for v in range(n))
            assert (DfsCondition.NO_CYCLE in check_dfs_valid(g, pi).failed_conditions) == cycle, pi


def test_a_non_int_is_reported_before_an_out_of_range_entry(unit_square):
    for pi in ((0, 9, 0, "a"), (0, -1, 0.0, 0), (7, 0, 0, True)):
        with pytest.raises(ValueError, match="ints"):
            check_bf_valid(unit_square, pi)
