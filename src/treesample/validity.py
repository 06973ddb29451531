"""Validity checks for candidate predecessor arrays.

Both checks are exact. A DFS candidate passes when some run of the search
builds it, and a failure carries diagnostic tags; a Bellman-Ford candidate
passes when every parent edge is tight against the true shortest-path costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .graphs import Graph, Task, validate_predecessors
from .seeding import member


class DfsCondition(Enum):
    START_NODE = "StartNode"
    EDGES = "Edges"
    NO_CYCLE = "NoCycle"
    ROOT_UNREACHABLE_FROM_LOWER = "RootUnreachableFromLower"
    SIBLING_ORDER = "SiblingOrder"


@dataclass(frozen=True)
class DfsVerdict:
    failed_conditions: frozenset[DfsCondition]

    @property
    def valid(self) -> bool:
        return not self.failed_conditions

    def tags(self) -> list[str]:
        return sorted(c.value for c in self.failed_conditions)


def check_dfs_valid(g: Graph, pi: tuple[int, ...]) -> DfsVerdict:
    """Whether pi is a DFS forest of g, with a tag for each failed condition.

    The search restarts at the lowest unvisited vertex and takes children in
    any order; pi is one of its forests exactly when no condition fails:

    - StartNode: vertex 0 is its own parent.
    - Edges: every parent edge exists in g.
    - NoCycle: a walk down from the self-parents reaches every vertex. A
      looping array is no forest, so the conditions below are not checked.
    - RootUnreachableFromLower: every tree's root is its lowest vertex, and
      no arc enters a tree with a higher root (the earlier search would have).
    - SiblingOrder: an arc x -> y between unrelated vertices of one tree
      needs y's branch below their lowest common ancestor explored before
      x's. Each round peels every branch whose predecessors are all peeled
      (Kahn 1962); a round that peels nothing leaves a cycle.

    This is the classic arc classification (Tarjan 1972): in a child order
    that meets the constraints, every non-tree arc is a back, forward or
    cross arc into an earlier branch, so the search builds pi.
    """
    validate_predecessors(g, pi)
    failed: set[DfsCondition] = set()
    if pi[0] != 0:
        failed.add(DfsCondition.START_NODE)
    if any(p != t and not g.weights[p][t] for t, p in enumerate(pi)):
        failed.add(DfsCondition.EDGES)
    children: list[list[int]] = [[] for _ in pi]
    reached: list[int] = []
    for v, p in enumerate(pi):
        (reached if p == v else children[p]).append(v)
    depth, root = [0] * g.n, list(range(g.n))
    for u in reached:
        for v in children[u]:
            depth[v], root[v] = depth[u] + 1, root[u]
        reached.extend(children[u])
    if len(reached) < g.n:
        failed.add(DfsCondition.NO_CYCLE)
        return DfsVerdict(frozenset(failed))

    if any(root[v] > v for v in range(g.n)):
        failed.add(DfsCondition.ROOT_UNREACHABLE_FROM_LOWER)

    before: dict[int, set[int]] = {}  # x -> the siblings whose branches precede x's
    arcs = ((x, y) for x, heads in enumerate(g.adjacency) for y in heads)
    for x, y in arcs:
        if root[x] != root[y]:
            if root[x] < root[y]:
                failed.add(DfsCondition.ROOT_UNREACHABLE_FROM_LOWER)
            continue
        while depth[x] > depth[y]:
            x = pi[x]
        while depth[y] > depth[x]:
            y = pi[y]
        if x == y:  # one end is an ancestor of the other
            continue
        while pi[x] != pi[y]:
            x, y = pi[x], pi[y]
        before.setdefault(x, set()).add(y)  # x's branch starts after y's
    while before:  # each round peels every branch whose predecessors are all peeled
        left = {x: ys for x, ys in before.items() if not before.keys().isdisjoint(ys)}
        if len(left) == len(before):  # nothing peeled: what is left contains a cycle
            failed.add(DfsCondition.SIBLING_ORDER)
            break
        before = left

    return DfsVerdict(frozenset(failed))


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
    member(task, Task, "task")
    if task is Task.DFS:
        dfs = check_dfs_valid(g, pi)
        return dfs.valid, dfs.tags()
    return check_bf_valid(g, pi), []


__all__ = ["DfsCondition", "DfsVerdict", "check_bf_valid", "check_dfs_valid", "verdict"]
