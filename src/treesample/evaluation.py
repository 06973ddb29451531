"""Evaluation studies: solution diversity, validity rates, and coverage.

All studies are pure functions of their configs. Graphs, distributions and
sampler draws get sub-seeds derived from (config seed, run, graph index, ...),
so results are independent of scheduling and job count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .algorithms import TiebreakPolicy, randomized_bellman_ford, randomized_dfs
from .distributions import ParentDistribution, build_empirical, perturb
from .graphs import Graph, GraphSpec, Task, generate_graph, tree_edges
from .samplers import SamplerConfig, draw_samples, extract
from .seeding import derive_rng, derive_seed
from .tables import StudyTable
from .validity import check_bf_valid, check_dfs_valid
from .parallel import parallel_map


@dataclass(frozen=True)
class EvalConfig:
    """Shared recipe for the sampler evaluation studies.

    perturb_alpha 0 evaluates the empirical distribution; anything above mixes
    rows toward random simplex points before sampling.
    """

    graph_spec: GraphSpec
    sampler: SamplerConfig = SamplerConfig()
    graph_count: int = 50
    samples_per_graph: int = 5
    runs: int = 5
    dist_runs: int = 20
    perturb_alpha: float = 0.0
    seed: int = 0

    def distribution_label(self) -> str:
        if self.perturb_alpha == 0.0:
            return "empirical"
        return f"perturbed-{self.perturb_alpha:g}"


@dataclass(frozen=True)
class MetricsRecord:
    method: str
    accuracy_mean: float
    accuracy_std: float
    uniques_mean: float
    uniques_std: float
    valids_mean: float
    valids_std: float


def is_valid(g: Graph, pi: tuple[int, ...], task: Task) -> bool:
    if task is Task.DFS:
        return check_dfs_valid(g, pi).valid
    return check_bf_valid(g, pi)


def _graph_distribution(cfg: EvalConfig, run: int, index: int) -> tuple[Graph, ParentDistribution]:
    spec = replace(cfg.graph_spec, seed=derive_seed(cfg.seed, "graph", run, index))
    g = generate_graph(spec)
    dist = build_empirical(
        g, spec.task, runs=cfg.dist_runs, seed=derive_seed(cfg.seed, "dist", run, index)
    )
    if cfg.perturb_alpha > 0.0:
        dist = perturb(dist, cfg.perturb_alpha, seed=derive_seed(cfg.seed, "perturb", run, index))
    return g, dist


def _suite_item(args) -> dict[str, tuple[bool, int, int]]:
    """Per-(run, graph) work, per method: is one draw valid, and the distinct
    arrays and valid draws (with multiplicity) among a k-sample batch."""
    cfg, methods, run, index = args
    task = cfg.graph_spec.task
    g, dist = _graph_distribution(cfg, run, index)
    out: dict[str, tuple[bool, int, int]] = {}
    for method in methods:
        single = extract(
            method, dist, g, cfg.sampler, derive_rng(cfg.seed, "single", method, run, index)
        )
        samples = draw_samples(
            method, dist, g, cfg.sampler, cfg.samples_per_graph,
            derive_rng(cfg.seed, "batch", method, run, index),
        )
        valids = sum(1 for s in samples if is_valid(g, s, task))
        out[method] = (is_valid(g, single, task), len(set(samples)), valids)
    return out


def evaluate(cfg: EvalConfig, methods: list[str], jobs: int = 1) -> dict[str, MetricsRecord]:
    """Metrics per method on shared graphs and distributions.

    Per run, fresh graphs are generated and each gets one distribution, which
    every method samples from. Accuracy is the valid fraction of one draw per
    graph; uniques and valids come from a separate k-sample batch. Mean and
    std are taken across runs. Graph and distribution seeds do not depend on
    the method, so a method's record is the same whatever it is evaluated with.
    """
    if cfg.graph_count < 1 or cfg.runs < 1:
        raise ValueError("graph_count and runs must be positive")
    items = [
        (cfg, tuple(methods), run, index)
        for run in range(cfg.runs)
        for index in range(cfg.graph_count)
    ]
    results = parallel_map(_suite_item, items, jobs)

    records: dict[str, MetricsRecord] = {}
    for method in methods:
        acc_runs, uniq_runs, valid_runs = [], [], []
        for run in range(cfg.runs):
            chunk = results[run * cfg.graph_count : (run + 1) * cfg.graph_count]
            acc_runs.append(np.mean([float(c[method][0]) for c in chunk]))
            uniq_runs.append(np.mean([c[method][1] for c in chunk]))
            valid_runs.append(np.mean([c[method][2] for c in chunk]))
        records[method] = MetricsRecord(
            method=method,
            accuracy_mean=float(np.mean(acc_runs)),
            accuracy_std=float(np.std(acc_runs)),
            uniques_mean=float(np.mean(uniq_runs)),
            uniques_std=float(np.std(uniq_runs)),
            valids_mean=float(np.mean(valid_runs)),
            valids_std=float(np.std(valid_runs)),
        )
    return records


def diversity_table(cfg: EvalConfig, methods: list[str], jobs: int = 1) -> StudyTable:
    """Unique/valid counts per k samples for several methods on shared graphs."""
    records = evaluate(cfg, methods, jobs)
    table = StudyTable(
        ("method", "n", "dist", "uniques_mean", "uniques_std", "valids_mean", "valids_std")
    )
    for method in methods:
        r = records[method]
        table.append(
            method, cfg.graph_spec.n, cfg.distribution_label(),
            r.uniques_mean, r.uniques_std, r.valids_mean, r.valids_std,
        )
    return table


def accuracy_table(cfg: EvalConfig, methods: list[str], jobs: int = 1) -> StudyTable:
    """Single-draw validity rates for several methods on shared graphs."""
    records = evaluate(cfg, methods, jobs)
    table = StudyTable(("method", "n", "dist", "acc_mean", "acc_std"))
    for method in methods:
        r = records[method]
        table.append(
            method, cfg.graph_spec.n, cfg.distribution_label(), r.accuracy_mean, r.accuracy_std
        )
    return table


def mean_edge_reuse(samples: list[tuple[int, ...]], denominator: str = "union") -> float:
    """Average pairwise edge overlap among predecessor arrays.

    union: intersection over union per unordered pair (both empty -> 1).
    first: intersection over the first array's edge count.
    """
    if len(samples) < 2:
        raise ValueError("edge reuse needs at least two samples")
    if denominator not in ("union", "first"):
        raise ValueError(f"unknown denominator {denominator!r}")
    edge_sets = [tree_edges(s) for s in samples]
    scores = []
    for i in range(len(edge_sets)):
        for j in range(i + 1, len(edge_sets)):
            a, b = edge_sets[i], edge_sets[j]
            if denominator == "union":
                union = a | b
                scores.append(len(a & b) / len(union) if union else 1.0)
            else:
                if not a:
                    scores.append(1.0 if not b else 0.0)
                else:
                    scores.append(len(a & b) / len(a))
    return float(np.mean(scores))


def _reference_runs(g: Graph, task: Task, count: int, seed: int) -> list[tuple[int, ...]]:
    out = []
    for r in range(count):
        policy = TiebreakPolicy(seed=derive_seed(seed, "ref", r))
        out.append(randomized_dfs(g, policy) if task is Task.DFS else randomized_bellman_ford(g, policy))
    return out


def _coverage_curve(g: Graph, task: Task, samples: list[tuple[int, ...]]) -> list[float]:
    """Distinct valid solutions among the first s samples, s = 1..k."""
    seen: set[tuple[int, ...]] = set()
    curve = []
    for s in samples:
        if is_valid(g, s, task):
            seen.add(s)
        curve.append(float(len(seen)))
    return curve


def _edge_reuse_curve(
    denominator: str, g: Graph, task: Task, samples: list[tuple[int, ...]]
) -> list[float]:
    """Mean pairwise edge reuse among the first s samples, s = 2..k."""
    return [mean_edge_reuse(samples[:s], denominator) for s in range(2, len(samples) + 1)]


def _curve_item(args) -> dict[str, list[float]]:
    """Per-graph work: each method's k-sample batch and k reference runs, as curves."""
    cfg, methods, label, curve, index = args
    task = cfg.graph_spec.task
    g, dist = _graph_distribution(cfg, 0, index)
    k = cfg.samples_per_graph
    curves: dict[str, list[float]] = {}
    for method in methods:
        rng = derive_rng(cfg.seed, label, method, index)
        samples = draw_samples(method, dist, g, cfg.sampler, k, rng)
        curves[method] = curve(g, task, samples)
    reference = _reference_runs(g, task, k, derive_seed(cfg.seed, "refstream", index))
    curves["reference"] = curve(g, task, reference)
    return curves


def _curve_table(
    cfg: EvalConfig, methods: list[str], label: str, curve, first_index: int, column: str, jobs: int
) -> StudyTable:
    """Per-method curves averaged over graphs; the reference reruns appear as "reference"."""
    if cfg.graph_count < 1:
        raise ValueError("graph_count must be positive")
    items = [(cfg, tuple(methods), label, curve, index) for index in range(cfg.graph_count)]
    results = parallel_map(_curve_item, items, jobs)
    table = StudyTable(("method", "n", "dist", "sample_index", column))
    for method in [*methods, "reference"]:
        means = np.array([r[method] for r in results]).mean(axis=0)
        for offset, value in enumerate(means):
            table.append(
                method, cfg.graph_spec.n, cfg.distribution_label(), first_index + offset,
                float(value),
            )
    return table


def coverage_study(cfg: EvalConfig, methods: list[str], jobs: int = 1) -> StudyTable:
    """Cumulative unique valid solutions per sample index, per method.

    The reference algorithm's own reruns appear as method "reference"; sampler
    curves count a draw only when it is distinct and valid.
    """
    return _curve_table(cfg, methods, "coverage", _coverage_curve, 1, "mean_unique_valid", jobs)


def edge_reuse_evolution(
    cfg: EvalConfig, methods: list[str], denominator: str = "union", jobs: int = 1
) -> StudyTable:
    """Mean pairwise edge reuse over the first s samples, s = 2..k."""
    if cfg.samples_per_graph < 2:
        raise ValueError("edge reuse evolution needs at least two samples per graph")
    curve = partial(_edge_reuse_curve, denominator)
    return _curve_table(cfg, methods, "reuse", curve, 2, "mean_edge_reuse", jobs)


__all__ = [
    "EvalConfig",
    "MetricsRecord",
    "accuracy_table",
    "coverage_study",
    "diversity_table",
    "edge_reuse_evolution",
    "evaluate",
    "is_valid",
    "mean_edge_reuse",
]
