"""Validity checks for candidate predecessor arrays.

DFS candidates are screened by a set of necessary conditions (tagged, so
failures are diagnosable); Bellman-Ford candidates are exact: every parent
edge must be tight against the true shortest-path costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graphs import Graph, Task, validate_predecessors


class DfsCondition(Enum):
    START_NODE = "StartNode"
    EDGES = "Edges"
    NO_CYCLE = "NoCycle"
    ROOT_UNREACHABLE_FROM_LOWER = "RootUnreachableFromLower"
    PARENT_REACHABLE_FROM_MIN_ANCESTOR = "ParentReachableFromMinAncestor"


@dataclass(frozen=True)
class DfsVerdict:
    valid: bool
    failed_conditions: frozenset[DfsCondition]

    def tags(self) -> list[str]:
        return sorted(c.value for c in self.failed_conditions)


def _has_pointer_cycle(pi: tuple[int, ...]) -> bool:
    """Whether some parent chain loops instead of ending at a self-parent.

    After n steps every chain sits on the cycle it runs into, and that cycle
    is a self-parent exactly when the chain ends. ends[v] holds the vertex
    reached from v; each round doubles the steps taken, so a few rounds pass n.
    """
    ends = list(pi)
    for _ in range((len(pi) - 1).bit_length()):
        ends = [ends[v] for v in ends]
    return any(pi[v] != v for v in ends)


def check_dfs_valid(g: Graph, pi: tuple[int, ...]) -> DfsVerdict:
    """Screen a candidate DFS forest with necessary structural conditions.

    Checks, in tag order: vertex 0 is its own parent; every parent edge exists;
    parent pointers are acyclic; a self-parent is never reachable from a
    lower-index vertex; and ancestry is consistent with exploration order (the
    parent of t must be reachable from the lowest-index vertex that reaches t,
    and siblings cannot have graph edges in both directions between them: the
    sibling explored first finishes before the other starts, yet a search never
    retreats from a vertex with an unvisited out-neighbour).

    The conditions are necessary, not sufficient: every true DFS forest passes,
    and some impostors may too.
    """
    validate_predecessors(g, pi)
    failed: set[DfsCondition] = set()
    n = g.n
    reach = g.reach_matrix

    if pi[0] != 0:
        failed.add(DfsCondition.START_NODE)

    if any(pi[t] != t and not g.has_edge(pi[t], t) for t in range(n)):
        failed.add(DfsCondition.EDGES)

    if _has_pointer_cycle(pi):
        failed.add(DfsCondition.NO_CYCLE)

    for t in range(n):
        if pi[t] == t:
            if t > 0 and bool(reach[:t, t].any()):
                failed.add(DfsCondition.ROOT_UNREACHABLE_FROM_LOWER)
                break

    for t in range(n):
        if pi[t] != t:
            lowest = int(np.argmax(reach[:, t]))  # reflexive, so some reacher exists
            if not reach[lowest, pi[t]]:
                failed.add(DfsCondition.PARENT_REACHABLE_FROM_MIN_ANCESTOR)
                break

    if DfsCondition.PARENT_REACHABLE_FROM_MIN_ANCESTOR not in failed:
        done = False
        for u in range(n):
            if pi[u] == u:
                continue
            for v in range(u + 1, n):
                if pi[v] != pi[u] or pi[v] == v:
                    continue
                if g.has_edge(u, v) and g.has_edge(v, u):
                    failed.add(DfsCondition.PARENT_REACHABLE_FROM_MIN_ANCESTOR)
                    done = True
                    break
            if done:
                break

    return DfsVerdict(not failed, frozenset(failed))


def check_bf_valid(g: Graph, pi: tuple[int, ...]) -> bool:
    """Whether pi encodes a shortest-path tree of g from its source.

    The source and every unreachable vertex must be their own parents (the
    reference algorithm never assigns an unreachable vertex a parent); every
    other vertex's parent edge must exist and be tight, cost[p] + w(p, v) ==
    cost[v]. This is exact: weights are positive, so costs fall strictly along
    tight parent edges, which rules out pointer cycles and any root other than
    the source, and every chain then sums to its vertex's true cost.
    """
    validate_predecessors(g, pi)
    for p, parents in zip(pi, g.sp_parents):
        if p not in parents:
            return False
    return True


def verdict(g: Graph, task: Task, pi: tuple[int, ...]) -> tuple[bool, list[str]]:
    """The task's checker verdict and its failed-condition tags (none for bf)."""
    if task is Task.DFS:
        dfs = check_dfs_valid(g, pi)
        return dfs.valid, dfs.tags()
    return check_bf_valid(g, pi), []


__all__ = ["DfsCondition", "DfsVerdict", "check_bf_valid", "check_dfs_valid", "verdict"]
