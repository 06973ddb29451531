"""Validity checks for candidate predecessor arrays.

DFS candidates are screened by a set of necessary conditions (tagged, so
failures are diagnosable); Bellman-Ford candidates are exact: the parent chain
of every vertex must reproduce the true shortest-path cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graphs import Graph, INFINITE_COST, validate_predecessors


class DfsCondition(Enum):
    START_NODE = "StartNode"
    EDGES = "Edges"
    NO_CYCLE = "NoCycle"
    ROOT_UNREACHABLE_FROM_LOWER = "RootUnreachableFromLower"
    PARENT_REACHABLE_FROM_MIN_ANCESTOR = "ParentReachableFromMinAncestor"


_UNDEFINED = object()


@dataclass(frozen=True)
class DfsVerdict:
    valid: bool
    failed_conditions: frozenset[DfsCondition]

    def tags(self) -> list[str]:
        return sorted(c.value for c in self.failed_conditions)


def _has_pointer_cycle(pi: tuple[int, ...]) -> bool:
    """Whether following parent pointers from any vertex revisits a vertex."""
    n = len(pi)
    for v in range(n):
        seen = {v}
        cur = v
        for _ in range(n):
            parent = pi[cur]
            if parent == cur:
                break
            if parent in seen:
                return True
            seen.add(parent)
            cur = parent
        else:
            return True
    return False


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

    Requires: the source is its own parent, every parent edge exists, parent
    pointers are acyclic, the parent-chain cost of every vertex equals the
    true shortest-path cost, and an unreachable vertex is its own parent (the
    reference algorithm never assigns one a parent, and without this rule
    edges inside an unreachable component would let infinite-cost chains pass
    the cost comparison).
    """
    if g.source is None:
        raise ValueError("bellman-ford validity needs a graph with a source")
    validate_predecessors(g, pi)
    source = g.source
    if pi[source] != source:
        return False
    weights, true_costs = g.weights, g.sp_costs
    n = g.n
    for t in range(n):
        p = pi[t]
        if p != t and weights[p][t] == 0:
            return False

    # chain costs with memoization; _UNDEFINED marks pointer cycles and chains
    # ending at an unreachable root, whose vertices would pass the cost
    # comparison at infinity although they are not their own parents
    known: list[object] = [None] * n
    known[source] = 0
    for v0 in range(n):
        if known[v0] is not None:
            continue
        path = []
        cur = v0
        while True:
            if known[cur] is not None:
                base = known[cur]
                break
            if pi[cur] == cur:
                base = INFINITE_COST  # non-source self-parent: unreachable root
                known[cur] = base
                break
            path.append(cur)
            nxt = pi[cur]
            if nxt in path:
                base = _UNDEFINED
                break
            cur = nxt
        if base == INFINITE_COST:
            base = _UNDEFINED
        for node in reversed(path):
            if base is _UNDEFINED:
                known[node] = _UNDEFINED
            else:
                base = base + weights[pi[node]][node]
                known[node] = base

    for model, truth in zip(known, true_costs):
        if model is _UNDEFINED or model != truth:
            return False
    return True


__all__ = ["DfsCondition", "DfsVerdict", "check_bf_valid", "check_dfs_valid"]
