"""Shared fixtures: small hand-built graphs with exhaustively known solutions."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from treesample import INFINITE_COST, Graph, GraphSpec, Task, check_bf_valid, validate_predecessors
from treesample import samplers


@pytest.fixture
def two_tree_digraph() -> Graph:
    """Directed triangle-ish graph with exactly two depth-first trees.

    Edges 0->1, 0->2, 1->2, 2->1. Ascending restarts force root 0; whichever
    of {1, 2} is entered first adopts the other, so the only trees are
    (0, 0, 1) and (0, 2, 0), each reached by half the tiebreak orders.
    """
    one = Fraction(1)
    return Graph.from_edges(3, [(0, 1, one), (0, 2, one), (1, 2, one), (2, 1, one)], directed=True)


@pytest.fixture
def unit_square() -> Graph:
    """Undirected 4-cycle 0-1-3-2-0 with unit weights, source 0.

    Costs are (0, 1, 1, 2); vertex 3 is reached at cost 2 through either 1 or
    2, so exactly two shortest-path trees exist: (0,0,0,1) and (0,0,0,2).
    """
    one = Fraction(1)
    return Graph.from_edges(4, [(0, 1, one), (0, 2, one), (1, 3, one), (2, 3, one)], directed=False, source=0)


@pytest.fixture
def third_weight_line() -> Graph:
    """Undirected path 0-1-2 with weights 1/3; unique shortest-path tree (0,0,1)."""
    w = Fraction(1, 3)
    return Graph.from_edges(3, [(0, 1, w), (1, 2, w)], directed=False, source=0)


@pytest.fixture
def tiebreak_sensitive_digraph() -> Graph:
    """Digraph whose two tiebreak modes give different tree distributions.

    Edges 0->1, 0->2, 1->2, 1->3, 2->3. Both modes can reach the same three
    trees but weight them differently (per-run ranking vs per-expansion
    uniform choice).
    """
    one = Fraction(1)
    return Graph.from_edges(
        4, [(0, 1, one), (0, 2, one), (1, 2, one), (1, 3, one), (2, 3, one)], directed=True
    )


@pytest.fixture
def fallbacks(monkeypatch) -> list[tuple[str, int, str]]:
    """Every beam and greedy fallback taken during the test, in order, as
    (method, v, kind): kind "parent" when v has an in-edge to fall back to,
    else "self". A spy on `samplers._per_vertex` wraps each search and
    records each v for which it returns None."""
    taken: list[tuple[str, int, str]] = []
    per_vertex = samplers._per_vertex

    def spy(g: Graph, method: str, search):
        def recorded(v: int) -> int | None:
            parent = search(v)
            if parent is None:
                in_edge = any(row[v] for row in g.weights)
                taken.append((method, v, "parent" if in_edge else "self"))
            return parent

        return per_vertex(g, method, recorded)

    monkeypatch.setattr(samplers, "_per_vertex", spy)
    return taken


def brute_force_shortest_path_trees(g: Graph) -> set[tuple[int, ...]]:
    """All length-n arrays the validity check accepts; exponential, tests only."""
    return {pi for pi in product(range(g.n), repeat=g.n) if check_bf_valid(g, pi)}


def arc_list(g: Graph) -> list[tuple[int, int, int]]:
    """g's directed arcs (u, v, integer weight), read from g.weights alone in
    row-major order: the order whose positions the BF runner permutes and
    Graph.sp_arcs names. An undirected edge is two arcs."""
    return [(u, v, w) for u, row in enumerate(g.weights) for v, w in enumerate(row) if w]


def edge_list(g: Graph) -> list[tuple[int, int, Fraction]]:
    """g's directed arcs (u, v, w) with exact Fraction weights, in arc_list order."""
    return [(u, v, Fraction(w, g.denominator)) for u, v, w in arc_list(g)]


def path_cost_from_source(g: Graph, pi: tuple[int, ...], v: int) -> Fraction | float | None:
    """Cost of the predecessor chain from v back to the source.

    Returns the exact Fraction cost when the chain reaches the source, the
    infinite sentinel when v is its own non-source parent (unreachable-vertex
    convention), and None when the chain is undefined: a pointer cycle, a
    traversed edge absent from g, or termination at some other vertex's
    non-source self-parent.
    """
    if g.source is None:
        raise ValueError("path costs need a graph with a source")
    validate_predecessors(g, pi)
    if pi[v] == v and v != g.source:
        return INFINITE_COST
    total = 0
    cur = v
    for _ in range(g.n):
        parent = pi[cur]
        if parent == cur:
            return Fraction(total, g.denominator) if cur == g.source else None
        weight = g.weights[parent][cur]
        if not weight:
            return None
        total += weight
        cur = parent
    return None  # walked n steps without terminating: pointer cycle


def fraction_graph(spec: GraphSpec, seed: int) -> Graph:
    """generate_graph's reference build: the same rng calls in the same order,
    each edge a Fraction, then Graph.from_edges."""
    rng = np.random.default_rng(seed)
    probability = spec.edge_probability
    directed = spec.task is Task.DFS
    choices = sorted(spec.weight_set)
    scale = Fraction(1, max(choices)) if spec.normalize else Fraction(1)
    if directed:
        pairs = [(u, v) for u in range(spec.n) for v in range(spec.n) if u != v]
    else:
        pairs = [(u, v) for u in range(spec.n) for v in range(u + 1, spec.n)]
    edges = []
    for u, v in pairs:
        if rng.random() < probability:
            w = Fraction(1) if directed else Fraction(choices[rng.integers(len(choices))]) * scale
            edges.append((u, v, w))
    return Graph.from_edges(spec.n, edges, directed, None if directed else 0)


def relax(g: Graph, rng: np.random.Generator) -> tuple[list, list[int]]:
    """Randomized Bellman-Ford from the source, the oracle of
    randomized_bellman_ford's parents and of Graph.sp_costs: (integer costs,
    parents).

    Each pass relaxes every arc in a fresh rng.permutation of the arc
    indices, drawn at the start of the pass; a vertex is updated
    only on a strictly smaller cost. Stops after a pass that changes
    nothing (at most n-1 passes). Unreachable vertices keep infinite cost
    and themselves as parents. Inside the loop they hold an int above every
    path cost, so no int is ever added to a float infinity (a sum that
    overflows for weights beyond float range).
    """
    if g.source is None:
        raise ValueError("bellman-ford needs a graph with a source")
    arcs = arc_list(g)
    unreached = 1 + sum(map(sum, g.weights))
    dist = [unreached] * g.n
    dist[g.source] = 0
    pi = list(range(g.n))
    for _ in range(g.n - 1):
        changed = False
        for idx in rng.permutation(len(arcs)).tolist():
            u, v, w = arcs[idx]
            cand = dist[u] + w
            if cand < dist[v]:
                dist[v] = cand
                pi[v] = u
                changed = True
        if not changed:
            break
    return [INFINITE_COST if d == unreached else d for d in dist], pi


def tight_parent_trees(g: Graph) -> set[tuple[int, ...]]:
    """Every shortest-path tree of g, from relax()'s costs and no Graph.sp_*
    table: the product over v of {u : cost[u] + w(u, v) == cost[v]}, with the
    source and the unreachable vertices as their own parents."""
    cost, _ = relax(g, np.random.default_rng(0))
    choices = []
    for v in range(g.n):
        if v == g.source or cost[v] == INFINITE_COST:
            choices.append([v])
        else:
            choices.append([
                u for u, row in enumerate(g.weights)
                if row[v] and cost[u] != INFINITE_COST and cost[u] + row[v] == cost[v]
            ])
    return set(product(*choices))
