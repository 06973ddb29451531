"""Extract candidate predecessor arrays from a parent distribution.

Six strategies with different diversity/validity trade-offs:

* argmax: row-wise most likely parent, deterministic.
* upwards: process vertices leafiest-first, walk sampled parent chains, and
  mask consumed vertices out of parent candidacy.
* alt-upwards: same walk without the masking.
* beam: per vertex, grow backward paths toward the source by sampling
  predecessors, keep the cheapest few, adopt the first hop of the best
  completed path.
* greedy: sample a handful of parents per vertex and keep the cheapest one
  whose edge exists.
* random: uniform baseline.

Beam and greedy read both the graph (weights, source) and the distribution,
and share one per-vertex loop that alone applies their fallback (lightest
in-edge, else the vertex itself); random reads only the graph (n, source);
argmax and the two upward walks read only the distribution. All samplers
return a full predecessor array for any input.
Every weighted draw, masked or not, is a `bisect_right` of choice's CDF at one
`rng.random()`, as in `Generator.choice`, so the streams match choice's. The
draws of beam, greedy and both upward walks read the distribution's draw table
in plain Python; numpy builds a CDF only for an `upwards` draw whose mask
keeps three or more of the row's support entries, since numpy's pairwise row
sum fixes that CDF.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate, compress

import numpy as np

from .config import METHODS, SamplerConfig
from .distributions import ParentDistribution, choice_cdf
from .graphs import Graph
from .seeding import positive_int


def argmax_extract(dist: ParentDistribution) -> tuple[int, ...]:
    """Most likely parent per row; ties resolve to the lowest index."""
    return tuple(int(j) for j in np.argmax(dist.probs, axis=1))


def _masked_draw(
    dist: ParentDistribution, v: int, keep: Sequence[float], rng: np.random.Generator
) -> int:
    """upwards' draw of v's parent: choice's rule on v's row times keep (a
    sequence of 0.0 at masked columns, else 1.0), or a uniform kept vertex when
    no mass is left (v itself is never masked). With keep all ones it is a
    bisection of draw_table.cdf[v].

    Only the kept support columns are read. None kept: the total is exactly
    0.0, so the uniform fallback. One kept: any uniform picks it. Two kept, a
    and b: a sum with two nonzero terms is the same float in any order, so
    a / (a + b) and the division by the last cumulative sum give choice's CDF
    at the first column. Three or more: the total is numpy's pairwise
    `row.sum()`, so that CDF alone is still built by numpy.
    """
    table = dist.draw_table
    cols, mass = table.cols[v], table.mass[v]
    kept = [i for i, c in enumerate(cols) if keep[c]]
    if not kept:
        open_vertices = list(compress(range(dist.n), keep))
        return open_vertices[rng.integers(len(open_vertices))]
    x = rng.random()
    if len(kept) == 1:
        return cols[kept[0]]
    if len(kept) == 2:
        i, j = kept
        total = mass[i] + mass[j]
        first = mass[i] / total
        return cols[i] if first / (first + mass[j] / total) > x else cols[j]
    row = dist.probs[v] * keep
    return bisect_right(choice_cdf(row / row.sum()), x)


def _upwards(dist: ParentDistribution, rng: np.random.Generator, mask_parents: bool) -> tuple[int, ...]:
    cdf = dist.draw_table.cdf
    pi: list[int | None] = [None] * dist.n
    keep = [1.0] * dist.n
    for v in dist.draw_table.order:
        while pi[v] is None:  # walk v's chain up to an assigned vertex
            if mask_parents:
                pi[v] = _masked_draw(dist, v, keep, rng)
                keep[v] = 0.0
            else:
                pi[v] = bisect_right(cdf[v], rng.random())
            v = pi[v]
    return tuple(pi)


def upwards_sample(dist: ParentDistribution, rng: np.random.Generator) -> tuple[int, ...]:
    """Leafiest-first parent sampling; consumed vertices stop being candidates.

    Walks each sampled parent chain until it reaches a vertex whose parent is
    already assigned. Masking can empty a row's support, in which case the
    vertex gets a random non-masked parent.
    """
    return _upwards(dist, rng, mask_parents=True)


def alt_upwards_sample(dist: ParentDistribution, rng: np.random.Generator) -> tuple[int, ...]:
    """upwards_sample without the parent masking; rows keep their support."""
    return _upwards(dist, rng, mask_parents=False)


def _distinct_parents(
    dist: ParentDistribution, v: int, k: int, rng: np.random.Generator
) -> list[int]:
    """Up to k distinct positive-mass parents of v, drawn weighted by v's row.

    This is `Generator.choice` without replacement written out: each round
    draws one uniform per missing parent, bisects the CDF and keeps each
    parent's first hit. The first round bisects draw_table.cdf[v]. A further
    round zeroes the parents found so far and rebuilds the CDF from what is
    left, as numpy does, but over v's support in plain Python: np.cumsum adds
    left to right and adding 0.0 changes no float, so accumulating the weights
    left and dividing by their total gives choice's CDF at the columns left.
    """
    table = dist.draw_table
    cols, weights = table.cols[v], table.weights[v]
    size = min(k, len(cols))
    cdf, at = table.cdf[v], range(dist.n)  # at maps a CDF index to its column
    found: list[int] = []
    while True:
        for _ in range(size - len(found)):
            q = at[bisect_right(cdf, rng.random())]
            if q not in found:
                found.append(q)
        if len(found) == size:
            return found
        at = [c for c in cols if c not in found]
        sums = list(accumulate(w for c, w in zip(cols, weights) if c not in found))
        cdf = [s / sums[-1] for s in sums]


def _per_vertex(g: Graph, method: str, search) -> tuple[int, ...]:
    """The source keeps itself; each other v, in index order, takes search(v) or,
    when that is None (the fallback), its parent on its lightest in-edge (lowest
    index on ties), else itself."""
    if g.source is None:
        raise ValueError(f"{method} extraction needs a graph with a source")
    pi = [0] * g.n
    for v in range(g.n):
        parent = v if v == g.source else search(v)
        if parent is None:
            parents = [(g.weights[u][v], u) for u in range(g.n) if g.weights[u][v] > 0]
            parent = min(parents)[1] if parents else v
        pi[v] = parent
    return tuple(pi)


def beam_extract(
    dist: ParentDistribution,
    g: Graph,
    cfg: SamplerConfig,
    rng: np.random.Generator,
) -> tuple[int, ...]:
    """Per-vertex backward beam search toward the source.

    Each frontier path samples up to beam_branch distinct positive-mass
    predecessors of its last vertex; only the beam_width cheapest partial paths
    survive a round, and paths stop at the source or at length n. The vertex
    adopts its immediate predecessor on the cheapest completed path (cost ties
    resolve to the lowest parent index). A first-step self-sample counts as a
    completed root claim at infinite cost, so unreachable vertices can keep
    themselves; with no completion it takes its lightest in-edge, else itself.
    """
    weight = g.weights
    def search(v: int) -> int | None:
        completed: list[tuple[float | int, int]] = []
        # A path is (cost, first hop, last vertex); first hop None means it is still at v.
        frontier: list[tuple[float | int, int | None, int]] = [(0, None, v)]
        for _ in range(dist.n):
            candidates: list[tuple[float | int, int | None, int]] = []
            for cost, first_hop, last in frontier:
                for q in _distinct_parents(dist, last, cfg.beam_branch, rng):
                    if q == last:
                        if first_hop is None:
                            completed.append((math.inf, v))  # root claim
                        continue
                    w = weight[q][last]
                    extended = cost + w if w and cost != math.inf else math.inf
                    hop = q if first_hop is None else first_hop
                    if q == g.source:
                        completed.append((extended, hop))
                    else:
                        candidates.append((extended, hop, q))
            if not candidates:
                break
            candidates.sort(key=lambda item: item[0])
            frontier = candidates[: cfg.beam_width]
        return min(completed)[1] if completed else None

    return _per_vertex(g, "beam", search)


def greedy_extract(
    dist: ParentDistribution,
    g: Graph,
    cfg: SamplerConfig,
    rng: np.random.Generator,
) -> tuple[int, ...]:
    """Sample a set of parents per vertex and keep the cheapest plausible one.

    Each round draws up to greedy_parent_samples distinct positive-mass
    parents, weighted by the row. A sampled parent q is plausible when edge
    (q, v) exists, or when q == v (a root claim, ranked below every real
    edge). The cheapest plausible parent wins (cost ties resolve to the lowest
    index). A round without a plausible sample is retried up to
    greedy_max_resamples times, then v takes its lightest in-edge, else itself.
    """
    weight = g.weights
    def search(v: int) -> int | None:
        for _ in range(cfg.greedy_max_resamples):
            picks = _distinct_parents(dist, v, cfg.greedy_parent_samples, rng)
            plausible = [
                (math.inf if q == v else weight[q][v], q)
                for q in picks
                if q == v or weight[q][v] > 0
            ]
            if plausible:
                return min(plausible)[1]
        return None

    return _per_vertex(g, "greedy", search)


def random_extract(g: Graph, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniform baseline: the source (or 0) keeps itself, the rest are uniform."""
    root = g.source if g.source is not None else 0
    pi = [int(x) for x in rng.integers(0, g.n, size=g.n)]
    pi[root] = root
    return tuple(pi)


def extract(
    method: str,
    dist: ParentDistribution,
    g: Graph,
    cfg: SamplerConfig,
    rng: np.random.Generator,
) -> tuple[int, ...]:
    """Dispatch one sample through the named method."""
    if method == "argmax":
        return argmax_extract(dist)
    if method == "upwards":
        return upwards_sample(dist, rng)
    if method == "alt-upwards":
        return alt_upwards_sample(dist, rng)
    if method == "beam":
        return beam_extract(dist, g, cfg, rng)
    if method == "greedy":
        return greedy_extract(dist, g, cfg, rng)
    if method == "random":
        return random_extract(g, rng)
    raise ValueError(f"unknown method {method!r}; choose from {METHODS}")


def draw_samples(
    method: str,
    dist: ParentDistribution,
    g: Graph,
    cfg: SamplerConfig,
    k: int,
    rng: np.random.Generator,
) -> list[tuple[int, ...]]:
    """k samples from one method, drawn sequentially from a single stream."""
    positive_int(k, "need at least one sample")
    return [extract(method, dist, g, cfg, rng) for _ in range(k)]


__all__ = [
    "METHODS",
    "SamplerConfig",
    "alt_upwards_sample",
    "argmax_extract",
    "beam_extract",
    "draw_samples",
    "extract",
    "greedy_extract",
    "random_extract",
    "upwards_sample",
]
