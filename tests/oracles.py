"""Exact laws of the randomized runners, and a DFS witness, for tests only.

`exact_parent_law(g, task, mode)` is the limit of `build_empirical` as its run
count grows: row v gives, for each vertex, the probability that it is v's
parent in one run. It is computed from the graph alone, by code that shares
nothing with the runners' random streams.

`dfs_witness(g, pi)` is a search order that rebuilds a DFS forest the checker
accepts, read with `graphlib` rather than the checker's own peel.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from graphlib import TopologicalSorter

import numpy as np

from treesample import INFINITE_COST, Graph, ParentDistribution, Task, TiebreakMode, enumerate_dfs_trees

from conftest import arc_list

# The BF programme's states grow exponentially with the tight arcs, so it is
# guarded by their count, not by n: in Fractions, 10 tight arcs took up to
# 0.16 s and 12 up to 2 s (n = 6-12, weights 1 and 2).
BF_ARC_LIMIT = 10

Law = list[list[Fraction]]


def exact_parent_law(
    g: Graph, task: Task, mode: TiebreakMode = TiebreakMode.PER_RUN_GLOBAL
) -> ParentDistribution:
    """The exact per-vertex parent law of the task's runner on g.

    DFS (n <= 8, either mode): the parent marginals of `enumerate_dfs_trees`.
    BF (at most BF_ARC_LIMIT tight arcs; mode is ignored): `bf_parent_law`.
    """
    law = _dfs_parent_law(g, mode) if task is Task.DFS else bf_parent_law(g)
    return ParentDistribution(g.n, np.array(law, dtype=float))


def _zero_law(n: int) -> Law:
    return [[Fraction(0)] * n for _ in range(n)]


def _dfs_parent_law(g: Graph, mode: TiebreakMode) -> Law:
    law = _zero_law(g.n)
    for tree, weight in enumerate_dfs_trees(g, mode).items():
        for v, u in enumerate(tree):
            law[v][u] += weight
    return law


def bf_parent_law(g: Graph) -> Law:
    """randomized_bellman_ford's exact parent law, by a dynamic programme.

    v keeps the tight parent u whose arc (u, v) is the first to fire after u
    settles, and only the order of the tight arcs within each pass matters:
    uniform, and fresh every pass. A state is (settled, waiting), waiting being
    the tight arcs into unsettled heads that have not fired in this pass; the
    next to fire is uniform in waiting. If its tail is settled, its head
    settles with that parent and every arc into the head leaves waiting. When
    waiting empties, the next pass starts with every tight arc into an
    unsettled head. The source and unreachable vertices are their own parents.
    """
    tight = [(u, v) for _, u, v in g.sp_arcs]
    if len(tight) > BF_ARC_LIMIT:
        raise ValueError(f"the BF law supports at most {BF_ARC_LIMIT} tight arcs, got {len(tight)}")
    law = _zero_law(g.n)
    reachable = frozenset(v for v, c in enumerate(g.sp_costs) if c != INFINITE_COST)
    for v in range(g.n):
        if v == g.source or v not in reachable:
            law[v][v] = Fraction(1)
    # Every pass settles a vertex, so a pass that starts from a smallest
    # settled set has received all its probability.
    starts = {frozenset([g.source]): Fraction(1)}
    while starts:
        start = min(starts, key=len)
        first = frozenset(arc for arc in tight if arc[1] not in start)
        # Each firing shrinks waiting, so states are complete in descending size.
        by_size: list[dict] = [{} for _ in range(len(first) + 1)]
        by_size[-1][start, first] = starts.pop(start)
        for size in range(len(first), 0, -1):
            for (settled, waiting), mass in by_size[size].items():
                share = mass / size
                for u, v in waiting:
                    if u in settled:
                        law[v][u] += share
                        state = settled | {v}, frozenset(a for a in waiting if a[1] != v)
                    else:
                        state = settled, waiting - {(u, v)}
                    bucket = by_size[len(state[1])]
                    bucket[state] = bucket.get(state, 0) + share
        for (settled, _), mass in by_size[0].items():
            if settled != reachable:
                starts[settled] = starts.get(settled, 0) + mass
    return law


def bf_parent_law_by_replay(g: Graph) -> Law:
    """The same law by brute force: Bellman-Ford replayed over every order of
    every arc (tight or not) in every pass, updating on a strictly smaller
    cost, until a pass changes nothing. Costs (arcs)! per pass state."""
    orders = list(itertools.permutations(arc_list(g)))
    law = _zero_law(g.n)
    start = tuple(0 if v == g.source else None for v in range(g.n)), tuple(range(g.n))
    passes = {start: Fraction(1)}
    while passes:
        following: dict = {}
        for (cost, pi), mass in passes.items():
            outcomes = Counter()
            for order in orders:
                c, p = list(cost), list(pi)
                for u, v, w in order:
                    if c[u] is not None and (c[v] is None or c[u] + w < c[v]):
                        c[v], p[v] = c[u] + w, u
                outcomes[tuple(c), tuple(p)] += 1
            for state, count in outcomes.items():
                share = mass * Fraction(count, len(orders))
                if state == (cost, pi):
                    for v, u in enumerate(pi):
                        law[v][u] += share
                else:
                    following[state] = following.get(state, 0) + share
        passes = following
    return law


def dfs_witness(g: Graph, pi: tuple[int, ...]) -> list[int]:
    """The preorder of pi, each vertex's children in a topological order of
    the sibling-order constraints (Tarjan 1972).

    An arc x -> y between unrelated vertices of one tree puts y's branch below
    their lowest common ancestor before x's; arcs between trees are skipped.
    When `check_dfs_valid` accepts pi, this order, fed to `_dfs_forest` as a
    `_ranked_pick` order, rebuilds pi.
    """
    ancestry: list[list[int]] = []  # ancestry[v] runs from v's root down to v
    for v in range(g.n):
        path = [v]
        while pi[path[-1]] != path[-1]:
            path.append(pi[path[-1]])
        ancestry.append(path[::-1])
    order = TopologicalSorter({v: () for v in range(g.n)})
    for x, y, _ in arc_list(g):
        ax, ay = ancestry[x], ancestry[y]
        m = min(len(ax), len(ay))
        k = bisect_left(range(m), True, key=lambda i: ax[i] != ay[i])  # shared head
        if 0 < k < m:  # one tree, neither end above the other
            order.add(ax[k], ay[k])  # x's branch starts after y's
    children: list[list[int]] = [[] for _ in pi]
    for v in order.static_order():
        if pi[v] != v:
            children[pi[v]].append(v)
    preorder, stack = [], [v for v in reversed(range(g.n)) if pi[v] == v]
    while stack:
        preorder.append(stack.pop())
        stack.extend(reversed(children[preorder[-1]]))
    return preorder
