"""Parent probability distributions over graph vertices.

A distribution is an n x n row-stochastic matrix: row v gives the probability
of each vertex being v's parent. Empirical distributions count parents across
repeated randomized runs; perturbation mixes rows toward random simplex points
to emulate imperfect predictions of the same shape. The study of how the rerun
budget moves them (KL between budgets) lives in `evaluation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .algorithms import TiebreakMode, randomized_bellman_ford, randomized_dfs
from .graphs import Graph, Task, read_entries, write_entries
from .seeding import derive_rng, member, positive_int, probability

ROW_SUM_TOLERANCE = 1e-9
KL_EPSILON = 1e-8


def choice_cdf(p: np.ndarray) -> np.ndarray:
    """The CDF `Generator.choice` bisects for weights p: cumsum along the last
    axis divided by its last entry. A 2-D p gives one CDF per row. A right
    bisection of it with one `rng.random()` is choice's draw."""
    cdf = np.cumsum(p, axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


class DrawTable(NamedTuple):
    """What the samplers read on every draw, derived once per distribution.

    With p[v] the row v divided by its sum (the weights `Generator.choice` is
    given), cdf[v] is `choice_cdf(p[v])`; cols[v] lists the columns where p[v]
    is positive (v's support), ascending, and weights[v] and mass[v] hold p[v]
    and the row's own entries probs[v] at those columns, which the samplers'
    retry rounds and masked draws read without calling numpy. order lists the
    vertices by column sum, least-parenting (leafiest) first, stable.
    """

    cdf: list[list[float]]
    cols: list[list[int]]
    weights: list[list[float]]
    mass: list[list[float]]
    order: list[int]


@dataclass(eq=False, frozen=True)
class ParentDistribution:
    """Immutable row-stochastic n x n parent matrix; probs is a read-only copy."""

    n: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", np.array(self.probs, dtype=float))
        self.probs.setflags(write=False)
        if self.probs.shape != (self.n, self.n):
            raise ValueError(f"probs must be {self.n}x{self.n}, got {self.probs.shape}")
        if not np.all(np.isfinite(self.probs)):
            raise ValueError("probabilities must be finite")
        if np.any(self.probs < 0):
            raise ValueError("probabilities must be non-negative")
        sums = self.probs.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > ROW_SUM_TOLERANCE):
            raise ValueError("every row must sum to 1")

    def __reduce__(self):
        """Pickle through the constructor: a copy gets read-only probs and
        checked rows, and no draw_table travels with it."""
        return type(self), (self.n, self.probs)

    @cached_property
    def draw_table(self) -> DrawTable:
        """The sampling table, built on first use in the process that draws."""
        p = self.probs / self.probs.sum(axis=1, keepdims=True)
        positive = p > 0.0
        ends = list(accumulate(np.count_nonzero(positive, axis=1).tolist()))

        def by_row(flat: np.ndarray) -> list[list]:  # row-major entries, cut per row
            values = flat.tolist()
            return [values[a:b] for a, b in zip([0, *ends], ends)]

        return DrawTable(
            cdf=choice_cdf(p).tolist(),
            cols=by_row(np.nonzero(positive)[1]),
            weights=by_row(p[positive]),
            mass=by_row(self.probs[positive]),
            order=np.argsort(self.probs.sum(axis=0), kind="stable").tolist(),
        )

    def to_dict(self) -> dict:
        return {"n": self.n, "probs": self.probs.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "ParentDistribution":
        if not isinstance(data, dict):
            raise ValueError(f"distribution entry must be a JSON object, got {data!r}")
        n, probs = data["n"], data["probs"]
        if type(n) is not int or not isinstance(probs, list) or not all(
            isinstance(row, list) and all(type(x) in (int, float) for x in row) for row in probs
        ):
            raise ValueError("distribution needs an int n and probs as rows of numbers (not bools)")
        return cls(n, probs)


def build_empirical(
    g: Graph,
    task: Task,
    runs: int = 20,
    seed: int = 0,
    mode: TiebreakMode = TiebreakMode.PER_RUN_GLOBAL,
) -> ParentDistribution:
    """Count parents across randomized runs; rows are counts / runs.

    The runs are drawn in turn from one Generator, `derive_rng(seed, "run")`,
    so an R-run build is the first R runs of any longer one. Per-row counts
    total exactly `runs`, so row sums are 1 up to float division rounding.
    `mode` only affects DFS: both modes give the same BF distribution.
    """
    positive_int(runs, "need at least one run")
    member(task, Task, "task")
    member(mode, TiebreakMode, "mode")
    rng = derive_rng(seed, "run")
    runner = partial(randomized_dfs, mode=mode) if task is Task.DFS else randomized_bellman_ford
    trees = [runner(g, rng) for _ in range(runs)]
    # Entry v * n + pi[v] counts the runs in which pi[v] is v's parent.
    cells = np.array(trees) + np.arange(0, g.n * g.n, g.n)
    counts = np.bincount(cells.ravel(), minlength=g.n * g.n).reshape(g.n, g.n)
    return ParentDistribution(g.n, counts / runs)


def kl_divergence(p: ParentDistribution, q: ParentDistribution) -> float:
    """Mean over rows of KL(p_row || q_row) after epsilon smoothing.

    Every entry gets KL_EPSILON added and rows are renormalized, so the result
    is finite for any pair of same-size distributions and zero iff they are
    entrywise equal after smoothing.
    """
    if p.n != q.n:
        raise ValueError(f"dimension mismatch: {p.n} vs {q.n}")
    ps = p.probs + KL_EPSILON
    qs = q.probs + KL_EPSILON
    ps = ps / ps.sum(axis=1, keepdims=True)
    qs = qs / qs.sum(axis=1, keepdims=True)
    rows = np.sum(ps * (np.log(ps) - np.log(qs)), axis=1)
    # Each row's KL is non-negative; rounding can put nearly equal rows just below 0.
    return float(np.maximum(rows, 0.0).mean())


def perturb(p: ParentDistribution, alpha: float, seed: int = 0) -> ParentDistribution:
    """Mix each row toward an independent uniform-simplex sample.

    Row becomes (1 - alpha) * row + alpha * u with u ~ Dirichlet(1,...,1);
    alpha=0 is the identity, alpha=1 is fully random.
    """
    probability(alpha, "alpha")
    rng = derive_rng(seed)
    noise = rng.dirichlet(np.ones(p.n), size=p.n)
    return ParentDistribution(p.n, (1.0 - alpha) * p.probs + alpha * noise)


def distributions_to_json(dists: Iterable[ParentDistribution], path: Path | str) -> int:
    """Write the distributions' file forms through `write_entries`, one per line; the count."""
    return write_entries(path, (d.to_dict() for d in dists))


def distributions_from_json(path: Path | str) -> list[ParentDistribution]:
    return [ParentDistribution.from_dict(entry) for entry in read_entries(path, "distributions")]


__all__ = [
    "KL_EPSILON",
    "ParentDistribution",
    "build_empirical",
    "distributions_from_json",
    "distributions_to_json",
    "kl_divergence",
    "perturb",
]
