"""Graphs over integer vertices with exact rational weights.

Weights are stored as an n x n matrix of plain ints over one common
denominator: the weight of arc (u, v) is weights[u][v] / denominator, zero
means "no edge" and present weights are strictly positive. The denominator is
the least common multiple of the reduced edge denominators, so two graphs
compare equal exactly when they have the same edges and rational weights.
Undirected graphs keep the matrix symmetric. Path costs are integer sums, so
shortest-path cost comparisons are exact and never need a floating tolerance;
Fractions appear only where edges come in (`Graph.from_edges`) and go out
(`Graph.to_dict` and `algorithms.bellman_ford_costs`).
"""

from __future__ import annotations

import heapq
import json
import math
import os
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .seeding import derive_rng, member, positive_int, probability

INFINITE_COST = math.inf
# Input bounds, checked before anything is built. A graph of MAX_VERTICES (16x
# the studies' largest, 64) builds in about 0.25 s and 40 MB; a weight string's
# exponent stays within Python's default int-string digit limit.
MAX_VERTICES = 1024
MAX_WEIGHT_EXPONENT = 4300


class Task(Enum):
    """Which reference algorithm a graph is meant for."""

    DFS = "dfs"
    BF = "bf"


@dataclass(frozen=True)
class Graph:
    """Immutable weighted graph; derived structure is computed once, on first use.

    Attributes:
        n: vertex count; vertices are 0..n-1.
        directed: whether the weight matrix is interpreted as directed.
        weights: n x n non-negative ints (0 = no edge, 0 diagonal), stored as tuple rows.
        source: distinguished source vertex for shortest-path tasks, or None.
        denominator: a Python int; every weight is weights[u][v] / denominator.
    """

    n: int
    directed: bool
    weights: tuple[tuple[int, ...], ...]
    source: int | None = None
    denominator: int = 1

    def __post_init__(self) -> None:
        positive_int(self.n, "graph needs at least one vertex")
        if type(self.directed) is not bool:
            raise ValueError(f"directed must be true or false, got {self.directed!r}")
        object.__setattr__(self, "weights", weights := tuple(map(tuple, self.weights)))
        if len(weights) != self.n or any(len(row) != self.n for row in weights):
            raise ValueError("weight matrix shape does not match n")
        if self.source is not None and not (type(self.source) is int and 0 <= self.source < self.n):
            raise ValueError(f"source {self.source!r} out of range for n={self.n}")
        if not self.directed and weights != tuple(zip(*weights)):
            raise ValueError("undirected graph requires a symmetric matrix")
        flat = [w for row in weights for w in row]
        if not all(type(w) is int and w >= 0 for w in flat):
            raise ValueError("weights must be non-negative ints")
        if any(weights[v][v] for v in range(self.n)):
            raise ValueError("weight matrix diagonal must be zero (no self-loops)")
        d = self.denominator
        if type(d) is not int or d < 1 or math.gcd(d, *flat) != 1:
            raise ValueError("denominator must be the smallest positive common denominator")

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int, Fraction | int]],
        directed: bool,
        source: int | None = None,
    ) -> "Graph":
        """Graph from (u, v, weight) edges: distinct int endpoints in 0..n-1, and
        a positive int, Fraction or string weight ("2/3"; never a bool or float).
        No edge may be listed twice; an undirected graph's (v, u) repeats (u, v).
        """
        if type(n) is not int or n > MAX_VERTICES:
            raise ValueError(f"graph needs an int vertex count up to {MAX_VERTICES}, got n={n!r}")
        arcs: dict[tuple[int, int], Fraction] = {}
        for u, v, w in edges:
            if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u!r},{v!r}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"edge ({u},{v}) is a self-loop")
            if type(w) not in (int, str, Fraction):
                raise ValueError(f"edge ({u},{v}) weight {w!r} is not an int, Fraction or string")
            try:
                w = _parse_weight(w) if type(w) is str else Fraction(w)
            except ValueError as exc:
                raise ValueError(f"edge ({u},{v}) {exc}") from None
            if w <= 0:
                raise ValueError(f"edge ({u},{v}) must have positive weight, got {w}")
            if (u, v) in arcs:
                raise ValueError(f"edge ({u},{v}) is listed twice")
            arcs[u, v] = w
            if not directed:
                arcs[v, u] = w
        denominator = math.lcm(*(w.denominator for w in arcs.values()))
        rows = [[0] * n for _ in range(n)]
        for (u, v), w in arcs.items():
            rows[u][v] = w.numerator * (denominator // w.denominator)
        return cls(n, directed, rows, source, denominator)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Ascending out-neighbor lists: the one cached arc list."""
        return tuple(
            tuple(v for v, w in enumerate(row) if w != 0) for row in self.weights
        )

    @cached_property
    def arc_count(self) -> int:
        """The number of directed arcs (an undirected edge is two), counted in
        the weight rows: the length of the BF runner's arc permutations."""
        return self.n * self.n - sum(row.count(0) for row in self.weights)

    @cached_property
    def sp_costs(self) -> tuple[int | float, ...]:
        """Integer shortest-path costs from the source; unreachable -> infinity.

        Dijkstra over the weight rows, which fills no cached adjacency: weights
        are positive, so a vertex popped at its current cost is settled. Only a
        settled, finite cost ever has a weight added to it, so an unreached
        vertex can hold INFINITE_COST; comparing an int with a float infinity
        is exact even beyond float range.
        """
        if self.source is None:
            raise ValueError("bellman-ford needs a graph with a source")
        cost: list[int | float] = [INFINITE_COST] * self.n
        cost[self.source] = 0
        heap = [(0, self.source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d == cost[u]:
                for v, w in enumerate(self.weights[u]):
                    if w and d + w < cost[v]:
                        cost[v] = d + w
                        heapq.heappush(heap, (cost[v], v))
        return tuple(cost)

    @cached_property
    def sp_arcs(self) -> tuple[tuple[int, int, int], ...]:
        """The tight arcs (k, u, v), cost[v] - w(u, v) == cost[u]: the arcs of
        the shortest-path DAG, by ascending cost of v (stable), found in one
        scan of the weight rows. k is the arc's row-major position among all
        arcs, the index that the BF runner's permutations order.

        Weights are positive, so no arc into the source is tight and every arc
        into u comes before every arc out of u. The guard on v's finite cost
        matters, since infinity - w == infinity between unreachables; the test
        subtracts from the finite cost[v], so an unreachable u's infinite cost
        is only compared, never added to.
        """
        costs, tight, k = self.sp_costs, [], 0
        for u, row in enumerate(self.weights):
            for v, w in enumerate(row):
                if w:
                    if costs[v] != INFINITE_COST and costs[v] - w == costs[u]:
                        tight.append((k, u, v))
                    k += 1
        return tuple(sorted(tight, key=lambda arc: costs[arc[2]]))

    @cached_property
    def sp_parents(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, its ascending tight parents (the tails of its sp_arcs);
        the source and every unreachable vertex have only themselves."""
        parents: list[list[int]] = [[] for _ in range(self.n)]
        for _, u, v in self.sp_arcs:
            parents[v].append(u)
        return tuple(tuple(p) if p else (v,) for v, p in enumerate(parents))

    def to_dict(self) -> dict:
        """The file form: each edge once, row-major (undirected: u < v), read
        from the weight rows, so it fills no cached table."""
        d = self.denominator
        edges = [
            [u, v, str(Fraction(w, d))]
            for u, row in enumerate(self.weights)
            for v, w in enumerate(row)
            if w and (self.directed or u < v)
        ]
        return {"n": self.n, "directed": self.directed, "source": self.source, "edges": edges}

    @classmethod
    def from_dict(cls, data: dict) -> "Graph":
        if not isinstance(data, dict) or not isinstance(data["edges"], list):
            raise ValueError(f"graph entry must be an object with an 'edges' list, got {data!r}")
        if not all(isinstance(edge, list) and len(edge) == 3 for edge in data["edges"]):
            raise ValueError("every edge must be a [u, v, weight] list")
        return cls.from_edges(data["n"], data["edges"], data["directed"], data.get("source"))


# Default edge densities per task, calibrated so the stock evaluation studies
# land in their expected regimes. DFS: density trades off against how often
# independently sampled parents form impossible sibling/cycle patterns. BF:
# sparse enough that size-5 graphs almost always have a unique shortest-path
# tree, while size-64 graphs still carry plenty of cost ties.
DFS_EDGE_PROBABILITY = 0.44
BF_EDGE_PROBABILITY = 0.3


@dataclass(frozen=True)
class GraphSpec:
    """Recipe for random graphs; the seed is generate_graph's argument.

    Task conventions: DFS graphs are directed and unweighted (weight 1), BF
    graphs are undirected, weighted from weight_set, source 0. A spec is
    checked and settled when it is made: n is an int in 1..MAX_VERTICES,
    edge_probability None is stored as the task's default density, a
    probability is an int or float (not a bool) in (0, 1], and weight_set
    (non-empty positive ints) is stored as a sorted tuple, so two spellings of
    one recipe compare equal.
    """

    n: int
    edge_probability: float | None = None
    task: Task = Task.BF
    weight_set: tuple[int, ...] = (1, 2, 3)
    normalize: bool = True

    def __post_init__(self) -> None:
        if type(self.n) is not int or not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(
                f"graph size must be positive and at most {MAX_VERTICES}, got {self.n}"
            )
        member(self.task, Task, "task")
        if self.edge_probability is None:
            default = DFS_EDGE_PROBABILITY if self.task is Task.DFS else BF_EDGE_PROBABILITY
            object.__setattr__(self, "edge_probability", default)
        probability(self.edge_probability, "edge probability", allow_zero=False)
        if not self.weight_set or not all(type(w) is int and w > 0 for w in self.weight_set):
            raise ValueError("weight_set must be non-empty positive ints")
        object.__setattr__(self, "weight_set", tuple(sorted(self.weight_set)))


def generate_graph(spec: GraphSpec, seed: int) -> Graph:
    """Sample an Erdos-Renyi graph according to spec, deterministically in seed.

    Each vertex pair gets an edge independently with the spec's edge
    probability; weights are uniform over weight_set, divided by
    max(weight_set) when normalize is set. DFS-task graphs are unweighted
    (every present edge 1). A BF weight c/m, m being max(weight_set) or 1, is
    stored as c/g over the denominator m/g, g = gcd(m, every chosen c).
    """
    rng = derive_rng(seed)
    n, probability, choices = spec.n, spec.edge_probability, spec.weight_set
    directed = spec.task is Task.DFS
    scale = choices[-1] if spec.normalize and not directed else 1
    rows = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(n) if directed else range(u + 1, n):
            if u != v and rng.random() < probability:
                if directed:
                    rows[u][v] = 1
                else:
                    rows[u][v] = rows[v][u] = choices[rng.integers(len(choices))]
    common = math.gcd(scale, *(c for row in rows for c in row))
    weights = tuple(tuple(c // common for c in row) for row in rows)
    return Graph(n, directed, weights, None if directed else 0, scale // common)


@lru_cache(maxsize=1024)
def _parse_weight(text: str) -> Fraction:
    """A weight string's Fraction, parsed once per distinct string (a generated
    file holds a handful). The exponent of "<m>e<e>" is bounded before Fraction
    expands it (an e that int() cannot read fails Fraction too); a refusal
    raises ValueError, which the caller prefixes with the edge."""
    try:
        exponent = abs(int(text.lower().partition("e")[2] or 0))
    except ValueError:
        exponent = 0
    if exponent > MAX_WEIGHT_EXPONENT:
        raise ValueError(f"weight {text!r}: |exponent| > {MAX_WEIGHT_EXPONENT}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"weight {text!r} has a zero denominator") from None


def tree_edges(pi: tuple[int, ...]) -> set[tuple[int, int]]:
    """(parent, child) pairs of a predecessor array, self-parents excluded."""
    return {(p, c) for c, p in enumerate(pi) if p != c}


def validate_predecessors(g: Graph, pi: tuple[int, ...]) -> None:
    """Raise ValueError unless pi holds one int parent per vertex, each in 0..n-1."""
    n = g.n
    if len(pi) != n:
        raise ValueError(f"predecessor array has length {len(pi)}, expected {n}")
    in_range = True
    for p in pi:  # a non-int anywhere is reported before a range error
        if type(p) is not int:
            raise ValueError(f"predecessor array entries must be ints, got {list(pi)!r}")
        if not 0 <= p < n:
            in_range = False
    if not in_range:
        raise ValueError(f"predecessor array mentions out-of-range vertices for n={n}")


def write_entries(path: Path | str, entries: Iterable, head: str = "", tail: str = "") -> int:
    """Write head, the entries as a JSON list, tail and a newline to path; the
    count of entries written. The list has one compact `json.dumps` entry per
    line, `[\n{...},\n{...}\n]`, or `[]` for none. Each entry is encoded as
    it arrives, so writing never holds the document. The text goes to a
    sibling temporary file that replaces path only once every entry is
    written, so a failure leaves no file behind (and path may be an input
    that entries are still being read from)."""
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "w") as fh:
            fh.write(head)
            count = 0
            for count, entry in enumerate(entries, 1):
                fh.write(",\n" if count > 1 else "[\n")
                fh.write(json.dumps(entry))
            fh.write(("\n]" if count else "[]") + tail + "\n")
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)
    return count


# JSON's four whitespace characters, skipped between the tokens of a list.
_WHITESPACE = re.compile(r"[ \t\n\r]*")
_AFTER_ENTRY = frozenset(" \t\n\r,]")
_CHUNK = 1 << 12
_decode = json.JSONDecoder().raw_decode


class _Window:
    """The unread text of a file, read in chunks: text[pos:] is what the
    decoder has not consumed yet."""

    def __init__(self, fh: TextIO) -> None:
        self.fh, self.text, self.pos, self.eof = fh, "", 0, False
        self.last = 0  # the length of the last entry decoded

    def read(self) -> None:
        """Drop the consumed text and append the next chunk: at least
        _CHUNK, as much again as is left (so a long entry is retried a
        logarithmic number of times) and as long as the last entry, read on
        to the end of its line. In the writer's layout of one entry per line,
        an entry no longer than the one before is then decoded once."""
        size = max(_CHUNK, len(self.text) - self.pos, self.last)
        chunk = self.fh.read(size)
        if chunk[-1:] not in ("", "\n"):
            chunk += self.fh.readline(size)
        self.text, self.pos, self.eof = self.text[self.pos :] + chunk, 0, not chunk

    def peek(self) -> str:
        """The next character after whitespace, or "" at the end of the file."""
        while True:
            self.pos = _WHITESPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text) or self.eof:
                return self.text[self.pos : self.pos + 1]
            self.read()

    def value(self):
        """Decode the list entry after whitespace. Unless the file has ended,
        a decode counts only when whitespace, `,` or `]` follows it in the
        window ("1" may be the start of "1e5"); else, as on an error, the
        window grows and the decode is retried."""
        self.peek()
        while True:
            try:
                value, end = _decode(self.text, self.pos)
                if self.eof or self.text[end : end + 1] in _AFTER_ENTRY:
                    self.pos, self.last = end, end - self.pos
                    return value
            except json.JSONDecodeError:
                if self.eof:
                    raise
            self.read()


def read_entries(path: Path | str, what: str) -> Iterator:
    """Yield the entries of the JSON list a data file holds, decoding one at
    a time, so neither the file's text nor its parsed document is ever held
    whole. A file that does not start with `[` is parsed whole by
    `json.loads`: a JSONDecodeError if it is no JSON, else a ValueError. Data
    after the list's `]` is a JSONDecodeError once every entry is yielded."""
    with open(path) as fh:
        window = _Window(fh)
        if window.peek() != "[":
            json.loads(window.text[window.pos :] + fh.read())
            raise ValueError(f"{what} file must hold a JSON list of {what}")
        window.pos += 1
        if window.peek() == "]":
            window.pos += 1
        else:
            yield window.value()
            while (token := window.peek()) != "]":
                if token != ",":
                    raise json.JSONDecodeError("Expecting ',' delimiter", window.text, window.pos)
                window.pos += 1
                yield window.value()
            window.pos += 1
        if window.peek():
            raise json.JSONDecodeError("Extra data", window.text, window.pos)


def graphs_to_json(graphs: Iterable[Graph], path: Path | str) -> int:
    """Write the graphs' file forms through `write_entries`, one per line; the count."""
    return write_entries(path, (g.to_dict() for g in graphs))


def graphs_from_json(path: Path | str) -> list[Graph]:
    return [Graph.from_dict(entry) for entry in read_entries(path, "graphs")]


__all__ = [
    "BF_EDGE_PROBABILITY",
    "DFS_EDGE_PROBABILITY",
    "Graph",
    "GraphSpec",
    "INFINITE_COST",
    "Task",
    "generate_graph",
    "graphs_from_json",
    "graphs_to_json",
    "tree_edges",
    "validate_predecessors",
]
