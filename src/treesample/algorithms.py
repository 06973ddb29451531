"""Reference algorithms with randomized tie-breaking, plus exhaustive oracles.

The randomized runners produce one predecessor array per (graph, seed); the
enumerate_* functions exhaust every tie-break choice on small graphs and return
the full solution set with exact frequency weights, for use as ground truth.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from fractions import Fraction

import numpy as np

from .graphs import Graph, INFINITE_COST

ENUMERATION_LIMIT = 8


class TiebreakMode(Enum):
    # one shuffle of V \ {0} per run, reused at every expansion
    PER_RUN_GLOBAL = "per-run-global"
    # fresh uniform choice among eligible children at every expansion
    PER_NODE = "per-node"


def _dfs_forest(n: int, adjacency, pick) -> tuple[int, ...]:
    """DFS with restarts at unvisited vertices in ascending index order.

    pick(current, eligible) chooses which unvisited out-neighbor to adopt;
    eligible is ascending and non-empty. A vertex backtracks only once all its
    out-neighbors are visited.
    """
    color = [False] * n
    pi = list(range(n))
    for root in range(n):
        if color[root]:
            continue
        color[root] = True
        stack = [root]
        while stack:
            u = stack[-1]
            eligible = [v for v in adjacency[u] if not color[v]]
            if eligible:
                child = pick(u, eligible)
                color[child] = True
                pi[child] = u
                stack.append(child)
            else:
                stack.pop()
    return tuple(pi)


def randomized_dfs(
    g: Graph, seed: int, mode: TiebreakMode = TiebreakMode.PER_RUN_GLOBAL
) -> tuple[int, ...]:
    """One DFS forest with randomized child tie-breaking.

    The weight matrix is treated as a directed adjacency structure, so an
    undirected graph is searched along both directions of every edge.
    """
    rng = np.random.default_rng(seed)
    if mode is TiebreakMode.PER_RUN_GLOBAL:
        order = rng.permutation(np.arange(1, g.n)) if g.n > 1 else np.empty(0, dtype=int)
        rank = [0] * g.n
        for position, vertex in enumerate(order.tolist()):
            rank[vertex] = position
        pick = lambda u, eligible: min(eligible, key=rank.__getitem__)
    else:
        pick = lambda u, eligible: eligible[rng.integers(len(eligible))]
    return _dfs_forest(g.n, g.adjacency, pick)


def randomized_bellman_ford(g: Graph, seed: int) -> tuple[int, ...]:
    """One shortest-path tree with randomized relaxation order.

    Runs up to n-1 passes, reshuffling the arc order before each pass and
    relaxing only on strictly smaller cost; stops early once a pass changes
    nothing (the state is a fixed point, so the output is unaffected).
    Unreachable vertices keep themselves as parents.
    """
    if g.source is None:
        raise ValueError("bellman-ford needs a graph with a source")
    rng = np.random.default_rng(seed)
    arcs = g.arcs
    dist: list[float | int] = [INFINITE_COST] * g.n
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
    return tuple(pi)


def bellman_ford_costs(g: Graph) -> list[Fraction | float]:
    """Exact shortest-path costs from the source; unreachable -> infinity."""
    return [c if c == INFINITE_COST else Fraction(c, g.denominator) for c in g.sp_costs]


def _check_enumerable(n: int) -> None:
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration supports n <= {ENUMERATION_LIMIT}, got n={n}")


def enumerate_dfs_trees(
    g: Graph, mode: TiebreakMode = TiebreakMode.PER_RUN_GLOBAL
) -> dict[tuple[int, ...], Fraction]:
    """Every DFS forest reachable under the tie-break mode, with exact frequency.

    Global mode runs all (n-1)! orders of V \\ {0}; per-node mode branches over
    each eligible child with weight 1/len(eligible) at every expansion.
    """
    _check_enumerable(g.n)
    n = g.n
    adjacency = g.adjacency
    outcomes: dict[tuple[int, ...], Fraction] = {}

    if mode is TiebreakMode.PER_RUN_GLOBAL:
        orders = list(itertools.permutations(range(1, n))) or [()]
        total = len(orders)
        for order in orders:
            rank = [0] * n
            for position, vertex in enumerate(order):
                rank[vertex] = position
            tree = _dfs_forest(n, adjacency, lambda u, elig: min(elig, key=rank.__getitem__))
            outcomes[tree] = outcomes.get(tree, Fraction(0)) + Fraction(1, total)
        return outcomes

    def branch(color: list[bool], pi: list[int], stack: list[int], root: int, weight: Fraction):
        while True:
            if not stack:
                nxt = root
                while nxt < n and color[nxt]:
                    nxt += 1
                if nxt == n:
                    tree = tuple(pi)
                    outcomes[tree] = outcomes.get(tree, Fraction(0)) + weight
                    return
                color[nxt] = True
                stack = [nxt]
                root = nxt
                continue
            u = stack[-1]
            eligible = [v for v in adjacency[u] if not color[v]]
            if not eligible:
                stack = stack[:-1]
                continue
            if len(eligible) == 1:
                child = eligible[0]
                color[child] = True
                pi[child] = u
                stack = stack + [child]
                continue
            share = weight / len(eligible)
            for child in eligible:
                color2 = list(color)
                pi2 = list(pi)
                color2[child] = True
                pi2[child] = u
                branch(color2, pi2, stack + [child], root, share)
            return

    branch([False] * n, list(range(n)), [], 0, Fraction(1))
    return outcomes


def enumerate_shortest_path_trees(g: Graph) -> set[tuple[int, ...]]:
    """All predecessor arrays encoding a shortest-path tree from the source.

    Reachable non-source vertices choose independently among their shortest-path
    DAG parents (cost[u] + w(u,v) = cost[v], exactly); unreachable vertices and
    the source are fixed to themselves.
    """
    _check_enumerable(g.n)
    if g.source is None:
        raise ValueError("shortest-path enumeration needs a graph with a source")
    costs = g.sp_costs
    choice_sets: list[list[int]] = []
    for v in range(g.n):
        if v == g.source or costs[v] == INFINITE_COST:
            choice_sets.append([v])
            continue
        parents = (u for u, t, w in g.arcs if t == v and costs[u] + w == costs[v])
        choice_sets.append(sorted(parents))
    return {tuple(combo) for combo in itertools.product(*choice_sets)}


__all__ = [
    "ENUMERATION_LIMIT",
    "TiebreakMode",
    "bellman_ford_costs",
    "enumerate_dfs_trees",
    "enumerate_shortest_path_trees",
    "randomized_bellman_ford",
    "randomized_dfs",
]
