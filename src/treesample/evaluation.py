"""Evaluation studies and the CSV table they all return.

The sampler studies (diversity, validity rates, coverage, edge reuse) and the
rerun-budget study are pure functions of their configs. Graphs, distributions
and sampler draws get sub-seeds derived from (config seed, run, graph index,
...), so results are independent of scheduling and job count.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .algorithms import randomized_bellman_ford, randomized_dfs
from .config import EvalConfig, RerunStudyConfig, check_distinct
from .distributions import ParentDistribution, build_empirical, kl_divergence, perturb
from .graphs import Graph, Task, generate_graph, tree_edges
from .parallel import parallel_map
from .samplers import draw_samples, extract
from .seeding import derive_rng, derive_seed
from .validity import verdict


@dataclass
class StudyTable:
    """A study's rows as CSV: `csv.writer` writes a float with `repr`, so
    parsing the file recovers it bit-for-bit."""

    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)

    def append(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"row has {len(values)} cells, expected {len(self.columns)}")
        self.rows.append(tuple(values))

    def to_csv_text(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return buffer.getvalue()

    def write_csv(self, path: Path | str) -> None:
        Path(path).write_text(self.to_csv_text())


def _graph_distribution(cfg: EvalConfig, run: int, index: int) -> tuple[Graph, ParentDistribution]:
    g = generate_graph(cfg.graph_spec, derive_seed(cfg.seed, "graph", run, index))
    dist = build_empirical(
        g, cfg.graph_spec.task, runs=cfg.dist_runs, seed=derive_seed(cfg.seed, "dist", run, index)
    )
    if cfg.perturb_alpha != 0.0:
        dist = perturb(dist, cfg.perturb_alpha, seed=derive_seed(cfg.seed, "perturb", run, index))
    return g, dist


# A measure maps (cfg: EvalConfig, g: Graph, dist: ParentDistribution, method,
# run, index) to a list of floats, drawn from its own named rng stream.


def _single(cfg, g, dist, method, run, index) -> list[float]:
    """Whether one draw is valid."""
    pi = extract(method, dist, g, cfg.sampler, derive_rng(cfg.seed, "single", method, run, index))
    return [float(verdict(g, cfg.graph_spec.task, pi)[0])]


def _batch(cfg, g, dist, method, run, index) -> list[float]:
    """Distinct arrays and valid draws (with multiplicity) among a k-sample batch."""
    rng = derive_rng(cfg.seed, "batch", method, run, index)
    samples = draw_samples(method, dist, g, cfg.sampler, cfg.samples_per_graph, rng)
    valids = sum(1 for s in samples if verdict(g, cfg.graph_spec.task, s)[0])
    return [len(set(samples)), valids]


def _suite_item(args) -> dict[str, list[float]]:
    """Per-(run, graph) work: build the graph and distribution once, then list
    the measure's values for each method."""
    cfg, (methods, measure), run, index = args
    g, dist = _graph_distribution(cfg, run, index)
    return {method: measure(cfg, g, dist, method, run, index) for method in methods}


def _run_means(cfg: EvalConfig, methods: list[str], measure, jobs: int) -> dict:
    """Per method, a runs x values array: each value averaged over a run's graphs.

    Graph and distribution seeds do not depend on the method, so a method's
    values are the same whatever it is measured with."""
    check_distinct("methods", methods)
    count, plan = cfg.graph_count, (tuple(methods), measure)
    items = [(cfg, plan, run, index) for run in range(cfg.runs) for index in range(count)]
    results = list(parallel_map(_suite_item, items, jobs))
    runs = [results[run * count : (run + 1) * count] for run in range(cfg.runs)]
    return {
        method: np.array([np.array([r[method] for r in chunk]).mean(axis=0) for chunk in runs])
        for method in methods
    }


def _summary_table(
    cfg: EvalConfig, methods: list[str], measure, names: tuple[str, ...], jobs: int
) -> StudyTable:
    """One row per method: mean and std across runs of each value the measure names."""
    stats = [f"{name}_{stat}" for name in names for stat in ("mean", "std")]
    table = StudyTable(("method", "n", "dist", *stats))
    for method, values in _run_means(cfg, methods, measure, jobs).items():
        summary = [f(column).item() for column in values.T for f in (np.mean, np.std)]
        table.append(method, cfg.graph_spec.n, cfg.distribution_label(), *summary)
    return table


def diversity_table(cfg: EvalConfig, methods: list[str], jobs: int = 1) -> StudyTable:
    """Distinct arrays and valid draws per k-sample batch for several methods
    on shared graphs and distributions."""
    return _summary_table(cfg, methods, _batch, ("uniques", "valids"), jobs)


def accuracy_table(cfg: EvalConfig, methods: list[str], jobs: int = 1) -> StudyTable:
    """Single-draw validity rates for several methods on shared graphs and
    distributions."""
    return _summary_table(cfg, methods, _single, ("acc",), jobs)


def mean_edge_reuse(samples: list[tuple[int, ...]], denominator: str = "union") -> float:
    """Average pairwise edge overlap among predecessor arrays.

    union: intersection over union per unordered pair (both empty -> 1).
    first: intersection over the first array's edge count (an empty first
    array scores 1 against an empty second one, else 0).
    """
    if len(samples) < 2:
        raise ValueError("edge reuse needs at least two samples")
    if denominator not in ("union", "first"):
        raise ValueError(f"unknown denominator {denominator!r}")
    scores = []
    for a, b in itertools.combinations([tree_edges(s) for s in samples], 2):
        base = a | b if denominator == "union" else a
        scores.append(len(a & b) / len(base) if base else float(not b))
    return float(np.mean(scores))


def _curve_samples(cfg, g, dist, label: str, method: str, index: int) -> list[tuple[int, ...]]:
    """A method's k-sample batch, or for "reference" k reruns of the reference algorithm."""
    k = cfg.samples_per_graph
    if method != "reference":
        rng = derive_rng(cfg.seed, label, method, index)
        return draw_samples(method, dist, g, cfg.sampler, k, rng)
    rng = derive_rng(cfg.seed, "refstream", index)
    runner = randomized_dfs if cfg.graph_spec.task is Task.DFS else randomized_bellman_ford
    return [runner(g, rng) for _ in range(k)]


def _coverage(cfg, g, dist, method, run, index) -> list[float]:
    """Distinct valid solutions among the first s samples, s = 1..k."""
    seen: set[tuple[int, ...]] = set()
    curve = []
    for s in _curve_samples(cfg, g, dist, "coverage", method, index):
        if verdict(g, cfg.graph_spec.task, s)[0]:
            seen.add(s)
        curve.append(float(len(seen)))
    return curve


def _edge_reuse(denominator: str, cfg, g, dist, method, run, index) -> list[float]:
    """Mean pairwise edge reuse among the first s samples, s = 2..k."""
    samples = _curve_samples(cfg, g, dist, "reuse", method, index)
    return [mean_edge_reuse(samples[:s], denominator) for s in range(2, len(samples) + 1)]


def _curve_table(
    cfg: EvalConfig, methods: list[str], measure, first_index: int, column: str, jobs: int
) -> StudyTable:
    """Per-method curves averaged over one run's graphs; the reference reruns
    are one more row, "reference". The curves' rng streams carry no run key,
    so a second run would repeat the first one's draws: cfg.runs must be 1."""
    if not methods or "reference" in methods:
        raise ValueError(f"need sampler methods; 'reference' names the reruns row, got {methods}")
    if cfg.runs != 1:
        raise ValueError(f"curve studies average one run's graphs; got runs={cfg.runs}")
    methods = [*methods, "reference"]
    curves = _run_means(cfg, methods, measure, jobs)
    table = StudyTable(("method", "n", "dist", "sample_index", column))
    for method in methods:
        for i, value in enumerate(curves[method][0], first_index):
            table.append(method, cfg.graph_spec.n, cfg.distribution_label(), i, float(value))
    return table


def coverage_study(cfg: EvalConfig, methods: list[str], jobs: int = 1) -> StudyTable:
    """Cumulative unique valid solutions per sample index, per method.

    The reference algorithm's own reruns appear as method "reference"; sampler
    curves count a draw only when it is distinct and valid.
    """
    return _curve_table(cfg, methods, _coverage, 1, "mean_unique_valid", jobs)


def edge_reuse_evolution(
    cfg: EvalConfig, methods: list[str], denominator: str = "union", jobs: int = 1
) -> StudyTable:
    """Mean pairwise edge reuse over the first s samples, s = 2..k."""
    if cfg.samples_per_graph < 2:
        raise ValueError("edge reuse evolution needs at least two samples per graph")
    measure = partial(_edge_reuse, denominator)
    return _curve_table(cfg, methods, measure, 2, "mean_edge_reuse", jobs)


def _rerun_study_item(cfg: RerunStudyConfig, item) -> list[float]:
    """KL values of one graph, one per rerun-count pair in combinations order."""
    spec, index = item
    g = generate_graph(spec, derive_seed(cfg.seed, "graph", spec.n, index))
    dists = {
        count: build_empirical(
            g, cfg.task, runs=count, seed=derive_seed(cfg.seed, "dist", spec.n, index, count)
        )
        for count in cfg.rerun_counts
    }
    return [kl_divergence(dists[lo], dists[hi]) for lo, hi in _count_pairs(cfg)]


def _count_pairs(cfg: RerunStudyConfig) -> list[tuple[int, int]]:
    return list(itertools.combinations(sorted(cfg.rerun_counts), 2))


def rerun_divergence_study(cfg: RerunStudyConfig, jobs: int = 1) -> StudyTable:
    """KL divergence between distributions built with different rerun budgets.

    For every graph, one empirical distribution per rerun count (independent
    sub-seeds); KL is recorded for each ordered low/high pair and aggregated
    as mean and standard deviation across graphs per size.
    """
    items = [(spec, index) for spec in cfg.graph_specs() for index in range(cfg.graphs_per_size)]
    kl = list(parallel_map(partial(_rerun_study_item, cfg), items, jobs))
    per_size = cfg.graphs_per_size
    table = StudyTable(("size", "pair_lo", "pair_hi", "mean_kl", "std_kl"))
    for s, size in enumerate(cfg.sizes):
        graphs = kl[s * per_size : (s + 1) * per_size]
        for (lo, hi), values in zip(_count_pairs(cfg), zip(*graphs)):
            table.append(size, lo, hi, float(np.mean(values)), float(np.std(values)))
    return table


__all__ = [
    "EvalConfig",
    "RerunStudyConfig",
    "StudyTable",
    "accuracy_table",
    "coverage_study",
    "diversity_table",
    "edge_reuse_evolution",
    "mean_edge_reuse",
    "rerun_divergence_study",
]
