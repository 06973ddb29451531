"""Acceptance gate: one test per shipped guarantee.

Each test prints its measured numbers, so `pytest -v -s tests/test_acceptance.py`
doubles as a results report. The heavyweight suites are computed once and
shared between the criteria that read different columns of the same run.
"""

import itertools
import time

import numpy as np
import pytest

from treesample import (
    EvalConfig,
    Graph,
    GraphSpec,
    ParentDistribution,
    RerunStudyConfig,
    StudyTable,
    Task,
    TiebreakMode,
    accuracy_table,
    build_empirical,
    check_bf_valid,
    check_dfs_valid,
    coverage_study,
    diversity_table,
    enumerate_dfs_trees,
    enumerate_shortest_path_trees,
    generate_graph,
    kl_divergence,
    randomized_bellman_ford,
    randomized_dfs,
    rerun_divergence_study,
)
from treesample.cli import main as cli_main
from treesample.seeding import derive_rng, derive_seed

from conftest import tight_parent_trees
from oracles import exact_parent_law

_suite_cache: dict = {}


def table_row(table: StudyTable, method: str) -> dict:
    """A method's row of a study table, by column name."""
    return next(dict(zip(table.columns, row)) for row in table.rows if row[0] == method)


def suite_records(
    task: Task, n: int, graph_count: int, methods: tuple[str, ...]
) -> tuple[dict[str, dict], float]:
    """Per method, both tables' columns by name (acc_mean, uniques_mean,
    valids_mean, ...), computed once per configuration. The elapsed time
    covers both tables."""
    key = (task, n, graph_count, methods)
    if key not in _suite_cache:
        cfg = EvalConfig(
            graph_spec=GraphSpec(n=n, task=task),
            graph_count=graph_count,
            samples_per_graph=5,
            runs=5,
            dist_runs=20,
            seed=0,
        )
        t0 = time.monotonic()
        acc, div = accuracy_table(cfg, list(methods)), diversity_table(cfg, list(methods))
        elapsed = time.monotonic() - t0
        records = {m: {**table_row(acc, m), **table_row(div, m)} for m in methods}
        _suite_cache[key] = (records, elapsed)
    return _suite_cache[key]


def test_01_bf_small_graphs_cheap_methods_are_exact():
    """Size-5 shortest-path trees: argmax, beam, greedy all exact; random near zero."""
    records, elapsed = suite_records(Task.BF, 5, 50, ("argmax", "beam", "greedy", "random"))
    line = " ".join(f"{m}={r['acc_mean']:.4f}" for m, r in records.items())
    print(f"bf n=5 accuracy: {line} elapsed={elapsed:.1f}s")
    for method in ("argmax", "beam", "greedy"):
        assert records[method]["acc_mean"] == 1.0
    assert records["random"]["acc_mean"] <= 0.02
    assert elapsed < 30.0


def test_02_bf_large_graphs_stay_exact():
    """Size-64 shortest-path trees: the structure-aware methods never miss."""
    records, elapsed = suite_records(Task.BF, 64, 20, ("argmax", "beam", "greedy"))
    line = " ".join(f"{m}={r['acc_mean']:.4f}" for m, r in records.items())
    print(f"bf n=64 accuracy: {line} elapsed={elapsed:.1f}s")
    for method in ("argmax", "beam", "greedy"):
        assert records[method]["acc_mean"] == 1.0
    assert elapsed < 300.0


def test_03_dfs_small_graph_accuracy_bands():
    """Size-5 forests: single-draw validity per method inside its band."""
    records, _ = suite_records(Task.DFS, 5, 50, ("alt-upwards", "argmax", "upwards", "random"))
    line = " ".join(f"{m}={r['acc_mean']:.4f}" for m, r in records.items())
    print(f"dfs n=5 accuracy: {line}")
    assert 0.75 <= records["alt-upwards"]["acc_mean"] <= 1.00
    assert 0.65 <= records["argmax"]["acc_mean"] <= 0.95
    assert 0.14 <= records["upwards"]["acc_mean"] <= 0.54
    assert records["random"]["acc_mean"] <= 0.02


def test_04_bf_small_graphs_single_solution_regime():
    """Size-5 graphs rarely tie, so 5 draws give ~1 unique and 5 valid."""
    records, _ = suite_records(Task.BF, 5, 50, ("argmax", "beam", "greedy", "random"))
    for method in ("greedy", "beam"):
        uniques, valids = records[method]["uniques_mean"], records[method]["valids_mean"]
        print(f"bf n=5 diversity: {method} uniques={uniques:.3f} valids={valids:.3f}")
        assert abs(uniques - 1.0) <= 0.10
        assert abs(valids - 5.0) <= 0.10


def test_05_bf_large_graphs_diverse_and_valid():
    """Size-64 graphs carry cost ties: 5 draws give ~5 distinct valid trees."""
    records, _ = suite_records(Task.BF, 64, 20, ("argmax", "beam", "greedy"))
    for method in ("greedy", "beam"):
        uniques, valids = records[method]["uniques_mean"], records[method]["valids_mean"]
        print(f"bf n=64 diversity: {method} uniques={uniques:.3f} valids={valids:.3f}")
        assert uniques >= 4.5
        assert abs(valids - 5.0) <= 0.10


def test_06_reference_outputs_always_pass_validity():
    """10k+ runner outputs per task across sizes 3..16, zero screen failures."""
    failures = 0
    outputs = 0
    for task in (Task.DFS, Task.BF):
        for n in range(3, 17):
            for gi in range(143):
                g = generate_graph(
                    GraphSpec(n=n, task=task), derive_seed(0, "nec", task.value, n, gi)
                )
                for run in range(5):
                    mode = TiebreakMode.PER_NODE if run % 2 else TiebreakMode.PER_RUN_GLOBAL
                    rng = derive_rng(derive_seed(0, "necrun", task.value, n, gi, run))
                    if task is Task.DFS:
                        ok = check_dfs_valid(g, randomized_dfs(g, rng, mode)).valid
                    else:
                        ok = check_bf_valid(g, randomized_bellman_ford(g, rng))
                    outputs += 1
                    failures += not ok
    print(f"necessity sweep: {outputs} outputs, {failures} failures")
    assert outputs >= 20000  # 10,000+ per task
    assert failures == 0


def test_07_checker_equals_enumeration_on_small_graphs():
    """500 graphs per task with n <= 6: the validity checkers and the
    exhaustive enumerators agree exactly, in both directions, and every
    forest the randomized DFS runner emits is in the enumerated support."""
    graphs_per_size = 125
    checked = 0
    for n in (3, 4, 5, 6):
        for gi in range(graphs_per_size):
            g = generate_graph(
                GraphSpec(n=n, task=Task.BF), derive_seed(1, "oracle", n, gi)
            )
            accepted = {
                pi for pi in itertools.product(range(n), repeat=n) if check_bf_valid(g, pi)
            }
            assert accepted == enumerate_shortest_path_trees(g) == tight_parent_trees(g), (n, gi)
            checked += 1
    dfs_checked = 0
    dfs_arrays = 0
    for n in (3, 4, 5, 6):
        for gi in range(graphs_per_size):
            g = generate_graph(
                GraphSpec(n=n, task=Task.DFS), derive_seed(1, "oracle-dfs", n, gi)
            )
            # Every array up to n=5. At n=6 only arrays whose parents are the
            # vertex itself or an in-neighbour: the rest fail on a missing
            # edge, which the smaller sizes and the Edges tag tests cover.
            if n <= 5:
                candidates = list(itertools.product(range(n), repeat=n))
            else:
                candidates = list(itertools.product(
                    *((v, *(u for u in range(n) if g.weights[u][v])) for v in range(n))
                ))
            accepted = {pi for pi in candidates if check_dfs_valid(g, pi).valid}
            dfs_arrays += len(candidates)
            for mode in TiebreakMode:
                support = set(enumerate_dfs_trees(g, mode=mode))
                assert accepted == support, (n, gi, mode)
                for run in range(3):
                    rng = derive_rng(derive_seed(1, "odr", n, gi, run))
                    assert randomized_dfs(g, rng, mode) in support, (n, gi, mode)
            dfs_checked += 1
    print(f"oracle agreement: {checked} bf and {dfs_checked} dfs exhaustive equivalences "
          f"({dfs_arrays} dfs arrays)")
    assert checked == 500 and dfs_checked == 500


def test_08_distributions_stabilize_with_rerun_budget():
    """More reruns move the empirical distribution less: KL(50,100) <= KL(20,100)."""
    t0 = time.monotonic()
    cfg = RerunStudyConfig(
        sizes=(5, 10, 16, 32), graphs_per_size=20, rerun_counts=(20, 50, 100),
        task=Task.DFS, seed=0,
    )
    table = rerun_divergence_study(cfg)
    elapsed = time.monotonic() - t0
    means = {(row[0], row[1], row[2]): row[3] for row in table.rows}
    assert all(np.isfinite(v) and v >= 0 for v in means.values())
    for size in cfg.sizes:
        lo, hi = means[(size, 50, 100)], means[(size, 20, 100)]
        print(f"rerun stability: size={size} KL(50,100)={lo:.4f} <= KL(20,100)={hi:.4f}")
        assert lo <= hi
    # At size 5 the runner's exact law is known: rebuild the study's graphs and
    # distributions from its own seeds and report each budget's distance to it.
    exact_kl = {count: [] for count in cfg.rerun_counts}
    for index in range(cfg.graphs_per_size):
        g = generate_graph(GraphSpec(5, None, cfg.task), derive_seed(cfg.seed, "graph", 5, index))
        exact = exact_parent_law(g, cfg.task)
        for count in cfg.rerun_counts:
            seed = derive_seed(cfg.seed, "dist", 5, index, count)
            exact_kl[count].append(kl_divergence(build_empirical(g, cfg.task, count, seed), exact))
    print("rerun stability: size=5 " + " ".join(
        f"KL({count},exact)={np.mean(values):.4f}" for count, values in exact_kl.items()
    ))
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        p = ParentDistribution(n, rng.dirichlet(np.ones(n), size=n))
        q = ParentDistribution(n, rng.dirichlet(np.ones(n), size=n))
        assert kl_divergence(p, p) == 0.0
        assert kl_divergence(p, q) >= 0.0
    print(f"rerun stability: elapsed={elapsed:.1f}s")
    assert elapsed < 600.0


def test_09_samplers_cover_like_the_reference_reruns():
    """Unique-valid coverage curves track the rerun baseline within 0.2."""
    cfg = EvalConfig(
        graph_spec=GraphSpec(n=5, task=Task.BF),
        graph_count=10,
        samples_per_graph=25,
        runs=1,
        dist_runs=20,
        seed=0,
    )
    table = coverage_study(cfg, ["argmax", "beam", "greedy"])
    curves: dict[str, list[float]] = {}
    for row in table.rows:
        curves.setdefault(row[0], []).append(row[4])
    reference = curves.pop("reference")
    for method, curve in curves.items():
        gap = max(abs(a - b) for a, b in zip(curve, reference))
        print(f"coverage: {method} max_gap={gap:.3f}")
        assert gap <= 0.2


def test_10_two_tree_regression_fixture():
    """The canonical 3-vertex digraph: frequencies and screen verdicts."""
    one = 1
    g = Graph.from_edges(3, [(0, 1, one), (0, 2, one), (1, 2, one), (2, 1, one)], directed=True)
    dist = build_empirical(g, Task.DFS, runs=1000, seed=5)
    row = dist.probs[1]
    print(f"regression fixture: row1={np.round(row, 3).tolist()}")
    assert abs(row[0] - 0.5) <= 0.05
    assert row[1] == 0.0
    assert abs(row[2] - 0.5) <= 0.05
    assert not check_dfs_valid(g, (0, 2, 2)).valid
    assert not check_dfs_valid(g, (0, 0, 0)).valid
    assert check_dfs_valid(g, (0, 0, 1)).valid
    assert check_dfs_valid(g, (0, 2, 0)).valid


def test_11_pipeline_outputs_identical_for_any_job_count(tmp_path):
    """gen -> dist -> sample -> check -> study: --jobs 1 and --jobs 8 agree byte-for-byte."""

    def pipeline(tag: str, jobs: int) -> list[bytes]:
        d = tmp_path / tag
        d.mkdir()
        graphs, dists = d / "graphs.json", d / "dists.json"
        sols, verdicts, study = d / "sols.json", d / "verdicts.csv", d / "table1.csv"
        j = str(jobs)
        assert cli_main(["gen", "-n", "5", "--count", "8", "--task", "bf", "--seed", "21",
                         "-o", str(graphs)]) == 0
        assert cli_main(["dist", "-i", str(graphs), "--task", "bf", "--runs", "20",
                         "--seed", "22", "--jobs", j, "-o", str(dists)]) == 0
        assert cli_main(["sample", "-i", str(graphs), "-d", str(dists), "--task", "bf",
                         "--method", "greedy", "-k", "5", "--seed", "23", "--jobs", j,
                         "-o", str(sols)]) == 0
        assert cli_main(["check", "-i", str(graphs), "-s", str(sols), "-o", str(verdicts)]) == 0
        assert cli_main(["study", "table1", "--task", "bf", "-n", "5", "--graphs", "4",
                         "--runs", "2", "--samples", "5", "--seed", "24", "--jobs", j,
                         "-o", str(study)]) == 0
        return [p.read_bytes() for p in (graphs, dists, sols, verdicts, study)]

    serial = pipeline("serial", 1)
    parallel = pipeline("parallel", 8)
    print(f"job invariance: {len(serial)} data files compared")
    assert serial == parallel


def test_12_accuracy_degrades_monotonically_under_perturbation():
    """Beam accuracy never improves as rows mix toward random simplex points."""
    accuracies = []
    for alpha in (0.0, 0.25, 0.5, 1.0):
        cfg = EvalConfig(
            graph_spec=GraphSpec(n=5, task=Task.BF),
            graph_count=100,
            samples_per_graph=2,
            runs=1,
            dist_runs=20,
            perturb_alpha=alpha,
            seed=0,
        )
        accuracies.append(table_row(accuracy_table(cfg, ["beam"]), "beam")["acc_mean"])
    print(f"perturbation: accuracies={accuracies}")
    assert all(a >= b for a, b in zip(accuracies, accuracies[1:]))
    assert accuracies[0] == 1.0
