"""Reference algorithms with randomized tie-breaking, plus exhaustive oracles.

The randomized runners draw one predecessor array per (graph, Generator); the
enumerate_* functions exhaust every tie-break choice on small graphs and return
the full solution set with exact frequency weights, for use as ground truth.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from .config import TiebreakMode
from .graphs import Graph, INFINITE_COST
from .seeding import member

ENUMERATION_LIMIT = 8


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


def _ranked_pick(n: int, order):
    """The _dfs_forest pick for one global priority order of V \\ {0}: adopt
    the eligible child that comes first in order."""
    rank = [0] * n
    for position, vertex in enumerate(order):
        rank[vertex] = position
    return lambda u, eligible: min(eligible, key=rank.__getitem__)


def randomized_dfs(
    g: Graph, rng: np.random.Generator, mode: TiebreakMode = TiebreakMode.PER_RUN_GLOBAL
) -> tuple[int, ...]:
    """One DFS forest with child tie-breaks drawn from rng.

    The weight matrix is treated as a directed adjacency structure, so an
    undirected graph is searched along both directions of every edge.
    """
    member(mode, TiebreakMode, "mode")
    if mode is TiebreakMode.PER_RUN_GLOBAL:
        order = rng.permutation(np.arange(1, g.n))
        pick = _ranked_pick(g.n, order.tolist())
    else:
        pick = lambda u, eligible: eligible[rng.integers(len(eligible))]
    return _dfs_forest(g.n, g.adjacency, pick)


def randomized_bellman_ford(g: Graph, rng: np.random.Generator) -> tuple[int, ...]:
    """One shortest-path tree with its relaxation order drawn from rng.

    The tree Bellman-Ford builds when each pass relaxes every arc in a fresh
    `rng.permutation(g.arc_count)` and updates only on a strictly smaller
    cost, computed without replaying the passes. v reaches its final cost,
    and keeps its parent, at the first firing of a tight arc (u, v) after u
    reached its own, so v's parent is the tight parent with the earliest such
    firing. Walking `g.sp_arcs` in order settles every u before the arcs out
    of it. Only the tight arcs' positions in each permutation are read, and a
    pass's permutation is drawn only once some arc has to wait for that
    pass: the same permutations as the replay's first passes, so the same
    tree. Unreachable vertices keep themselves as parents.
    """
    dag = g.sp_arcs
    pi = list(range(g.n))
    m = g.arc_count
    index = np.array([k for k, _, _ in dag], dtype=np.intp)
    # fires[p][i]: the time tight arc dag[i] is relaxed in pass p, p * (m + 1)
    # + its position + 1; time 0, before every firing, is when the source settles.
    fires: list[list[int]] = []

    def draw_pass() -> None:
        start = len(fires) * (m + 1) + 1
        when = np.empty(m, dtype=np.int64)
        when[rng.permutation(m)] = np.arange(start, start + m)
        fires.append(when[index].tolist())

    draw_pass()
    settled = [math.inf] * g.n
    settled[g.source] = 0
    for i, (_, u, v) in enumerate(dag):
        after = settled[u]
        p = after // (m + 1)
        fire = fires[p][i]
        if fire < after:  # already relaxed in u's pass: it fires in the next one
            if p + 1 == len(fires):
                draw_pass()
            fire = fires[p + 1][i]
        if fire < settled[v]:
            settled[v], pi[v] = fire, u
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
    member(mode, TiebreakMode, "mode")
    n = g.n
    adjacency = g.adjacency

    if mode is TiebreakMode.PER_RUN_GLOBAL:
        orders = itertools.permutations(range(1, n))
        counts = Counter(_dfs_forest(n, adjacency, _ranked_pick(n, order)) for order in orders)
        return {tree: Fraction(count, math.factorial(n - 1)) for tree, count in counts.items()}

    # Replay the search once per leaf of the choice tree. A script lists the
    # eligible-list index of each pick; a pick past its end takes index 0 and
    # queues one script per other child, lowest index on top, so leaves come
    # in depth-first order.
    outcomes: dict[tuple[int, ...], Fraction] = {}
    scripts: list[tuple[int, ...]] = [()]
    while scripts:
        choices = list(scripts.pop())
        sizes: list[int] = []

        def pick(u, eligible):
            if len(sizes) == len(choices):
                scripts.extend((*choices, c) for c in range(len(eligible) - 1, 0, -1))
                choices.append(0)
            sizes.append(len(eligible))
            return eligible[choices[len(sizes) - 1]]

        tree = _dfs_forest(n, adjacency, pick)
        outcomes[tree] = outcomes.get(tree, Fraction(0)) + Fraction(1, math.prod(sizes))
    return outcomes


def enumerate_shortest_path_trees(g: Graph) -> set[tuple[int, ...]]:
    """All predecessor arrays encoding a shortest-path tree from the source.

    Every vertex chooses independently among its Graph.sp_parents: reachable
    non-source vertices among their tight parents, the source and unreachable
    vertices only themselves.
    """
    _check_enumerable(g.n)
    return set(itertools.product(*g.sp_parents))


__all__ = [
    "ENUMERATION_LIMIT",
    "TiebreakMode",
    "bellman_ford_costs",
    "enumerate_dfs_trees",
    "enumerate_shortest_path_trees",
    "randomized_bellman_ford",
    "randomized_dfs",
]
