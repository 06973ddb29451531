"""Evaluation studies: edge reuse, diversity/accuracy suites, coverage."""

import re

import numpy as np
import pytest

from treesample import (
    EvalConfig,
    GraphSpec,
    RerunStudyConfig,
    SamplerConfig,
    Task,
    accuracy_table,
    build_empirical,
    coverage_study,
    diversity_table,
    draw_samples,
    edge_reuse_evolution,
    enumerate_shortest_path_trees,
    mean_edge_reuse,
)
from treesample.validity import verdict


def test_edge_reuse_hand_values():
    assert mean_edge_reuse([(0, 0, 1), (0, 0, 1)]) == 1.0
    # (0,0,1) uses edges {(0,1),(1,2)}; (0,2,0) uses {(0,2),(2,1)}: disjoint.
    assert mean_edge_reuse([(0, 0, 1), (0, 2, 0)]) == 0.0
    # Square trees share edges (0,1) and (0,2); each has one private edge to
    # vertex 3, so intersection 2 / union 4.
    assert mean_edge_reuse([(0, 0, 0, 1), (0, 0, 0, 2)]) == 0.5
    assert mean_edge_reuse([(0, 0, 0, 1), (0, 0, 0, 2)], denominator="first") == pytest.approx(
        2 / 3
    )
    # Three samples average the three pairwise scores.
    assert mean_edge_reuse([(0, 0, 1), (0, 0, 1), (0, 2, 0)]) == pytest.approx(1 / 3)


def test_edge_reuse_empty_trees_count_as_identical():
    assert mean_edge_reuse([(0, 1, 2), (0, 1, 2)]) == 1.0
    assert mean_edge_reuse([(0, 1, 2), (0, 0, 1)], denominator="first") == 0.0


def test_edge_reuse_validation():
    with pytest.raises(ValueError, match="two samples"):
        mean_edge_reuse([(0, 0, 1)])
    with pytest.raises(ValueError, match="denominator"):
        mean_edge_reuse([(0, 0, 1), (0, 0, 1)], denominator="jaccard")


def test_beam_batch_on_two_tree_distribution(unit_square):
    dist = build_empirical(unit_square, Task.BF, runs=200, seed=0)
    rng = np.random.default_rng(7)
    samples = draw_samples("beam", dist, unit_square, SamplerConfig(beam_branch=1), 10, rng)
    assert 1 <= len(set(samples)) <= len(enumerate_shortest_path_trees(unit_square))
    # beam on an exact distribution only emits real trees
    assert sum(verdict(unit_square, Task.BF, s)[0] for s in samples) == 10
    with pytest.raises(ValueError, match="at least one sample"):
        draw_samples("beam", dist, unit_square, SamplerConfig(), 0, rng)


def small_config(task: Task, **overrides) -> EvalConfig:
    defaults = dict(
        graph_spec=GraphSpec(n=5, task=task),
        graph_count=4,
        samples_per_graph=5,
        runs=2,
        dist_runs=10,
        seed=13,
    )
    defaults.update(overrides)
    return EvalConfig(**defaults)


def test_counts_are_rejected_when_the_config_is_built():
    # accuracy_table never reads samples_per_graph, so only the config can refuse it.
    for field in ("graph_count", "runs"):
        with pytest.raises(ValueError, match=f"{field} must be a positive int, got 0"):
            small_config(Task.BF, **{field: 0})
    with pytest.raises(ValueError, match="samples_per_graph must be a positive int, got 0"):
        small_config(Task.BF, samples_per_graph=0)
    # Refused here, not by the first work item, which may run in a worker.
    with pytest.raises(ValueError, match="dist_runs must be a positive int, got 0"):
        small_config(Task.BF, dist_runs=0)
    for alpha in (-0.5, 2.0, float("nan")):
        with pytest.raises(ValueError, match=r"perturb_alpha must lie in \[0, 1\]"):
            small_config(Task.BF, perturb_alpha=alpha)
    with pytest.raises(ValueError, match="graph size must be positive"):
        small_config(Task.BF, graph_spec=GraphSpec(n=0))


@pytest.mark.parametrize(
    "config, overrides, message",
    [
        (GraphSpec, {"n": 5.0}, "graph size"),
        (GraphSpec, {"n": True}, "graph size"),
        (EvalConfig, {"graph_count": 2.5}, "graph_count must be a positive int, got 2.5"),
        (EvalConfig, {"runs": True}, "runs must be a positive int, got True"),
        (EvalConfig, {"samples_per_graph": 5.0}, "samples_per_graph must be a positive int, got 5.0"),
        (
            EvalConfig,
            {"dist_runs": np.int64(20)},
            f"dist_runs must be a positive int, got {re.escape(repr(np.int64(20)))}",
        ),
        (RerunStudyConfig, {"graphs_per_size": 1.5}, "graphs_per_size must be a positive int"),
        (RerunStudyConfig, {"rerun_counts": (5, 7.5)}, r"rerun_counts\[1\] must be a positive int, got 7\.5"),
        (RerunStudyConfig, {"rerun_counts": (True, 5)}, r"rerun_counts\[0\] must be a positive int, got True"),
        (SamplerConfig, {"beam_width": 2.5}, "beam_width must be a positive int"),
        (SamplerConfig, {"greedy_max_resamples": False}, "greedy_max_resamples"),
    ],
)
def test_configs_refuse_non_int_counts_when_built(config, overrides, message):
    # A Python int, not a bool, float or numpy int, as Graph requires for n.
    required = {GraphSpec: {"n": 5}, EvalConfig: {"graph_spec": GraphSpec(n=5)}}
    with pytest.raises(ValueError, match=message):
        config(**{**required.get(config, {}), **overrides})


@pytest.mark.parametrize("seed", [1.5, True])
def test_a_non_int_seed_is_refused_not_truncated(seed):
    # Truncated by int(), both would run as seed 1; the config refuses them.
    with pytest.raises(ValueError, match="non-negative"):
        EvalConfig(GraphSpec(n=4), graph_count=1, runs=1, seed=seed)


@pytest.mark.parametrize(
    "config, seed",
    [(EvalConfig, True), (EvalConfig, np.int64(1)), (RerunStudyConfig, -1), (RerunStudyConfig, 2.0)],
    ids=["EvalConfig-True", "EvalConfig-int64", "RerunStudyConfig-minus1", "RerunStudyConfig-float"],
)
def test_config_seeds_are_refused_when_the_config_is_built(config, seed):
    # Not first in a work item's derive_seed, which may run in a worker.
    required = {EvalConfig: {"graph_spec": GraphSpec(n=5)}}
    message = rf"seed keys must be strings or non-negative ints, got {re.escape(repr(seed))}"
    with pytest.raises(ValueError, match=message):
        config(**required.get(config, {}), seed=seed)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"sizes": (0,)}, "graph size must be positive and at most 1024, got 0"),
        ({"sizes": (2000,)}, "graph size must be positive and at most 1024, got 2000"),
        ({"sizes": (True,)}, "graph size must be positive and at most 1024, got True"),
        ({"edge_probability": 2.0}, r"edge probability must lie in \(0, 1\], got 2\.0"),
        ({"task": "dfs"}, r"task must be one of Task\.DFS, Task\.BF, got 'dfs'"),
    ],
    ids=["size-0", "size-2000", "size-True", "edge_probability", "task"],
)
def test_rerun_study_config_checks_its_graph_specs_when_built(overrides, message):
    # Refused by the config itself, not later by the study that builds the graphs.
    with pytest.raises(ValueError, match=message):
        RerunStudyConfig(**overrides)


def test_rerun_study_config_stores_tuples():
    cfg = RerunStudyConfig(sizes=[6, 4], rerun_counts=[10, 5])
    assert cfg.sizes == (6, 4) and cfg.rerun_counts == (10, 5)
    twin = RerunStudyConfig(sizes=(6, 4), rerun_counts=(10, 5))
    assert cfg == twin and hash(cfg) == hash(twin)


def test_table_rows_lie_in_their_ranges():
    cfg = small_config(Task.BF)
    [(_, _, _, acc_mean, acc_std)] = accuracy_table(cfg, ["argmax"]).rows
    assert 0.0 <= acc_mean <= 1.0
    assert acc_std >= 0.0
    [(_, _, _, uniques_mean, uniques_std, valids_mean, valids_std)] = diversity_table(
        cfg, ["argmax"]
    ).rows
    assert 1.0 <= uniques_mean <= 5.0
    assert 0.0 <= valids_mean <= 5.0
    assert uniques_std >= 0.0 and valids_std >= 0.0


def test_method_lists_must_be_non_empty_and_distinct():
    cfg = small_config(Task.BF, runs=1)
    for methods in (["argmax", "argmax"], []):
        for table in (diversity_table, accuracy_table):
            with pytest.raises(ValueError, match="must not repeat or be empty"):
                table(cfg, methods)
    for study in (coverage_study, edge_reuse_evolution):
        with pytest.raises(ValueError, match="must not repeat or be empty"):
            study(cfg, ["beam", "beam"])
        with pytest.raises(ValueError, match="need sampler methods"):
            study(cfg, [])


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "task, methods", [(Task.BF, ["beam", "greedy"]), (Task.DFS, ["upwards", "alt-upwards"])]
)
def test_evaluate_methods_together_equal_methods_alone(task, methods, jobs):
    # Graph and distribution seeds ignore the method, so one call serves every
    # method with the rows it would get on its own.
    cfg = small_config(task)
    a, b = methods
    for table in (diversity_table, accuracy_table):
        together = table(cfg, methods, jobs=jobs).rows
        assert [row[0] for row in together] == methods
        assert together == table(cfg, [a], jobs=jobs).rows + table(cfg, [b], jobs=jobs).rows


def test_diversity_table_shape():
    cfg = small_config(Task.BF)
    table = diversity_table(cfg, ["beam", "greedy"])
    assert table.columns == (
        "method", "n", "dist", "uniques_mean", "uniques_std", "valids_mean", "valids_std"
    )
    assert [row[0] for row in table.rows] == ["beam", "greedy"]
    assert all(row[1] == 5 and row[2] == "empirical" for row in table.rows)


def test_accuracy_table_shape_and_perturb_label():
    cfg = small_config(Task.DFS, perturb_alpha=0.5)
    table = accuracy_table(cfg, ["argmax", "random"])
    assert table.columns == ("method", "n", "dist", "acc_mean", "acc_std")
    assert [row[0] for row in table.rows] == ["argmax", "random"]
    assert all(row[2] == "perturbed-0.5" for row in table.rows)
    assert all(0.0 <= row[3] <= 1.0 for row in table.rows)


@pytest.mark.parametrize("alpha", [-0.5, float("nan")])
def test_out_of_range_perturbation_is_rejected(alpha):
    # Never an unperturbed run under a "perturbed-<alpha>" label.
    with pytest.raises(ValueError, match="alpha"):
        accuracy_table(small_config(Task.DFS, perturb_alpha=alpha), ["argmax"])


def test_tables_are_job_count_invariant():
    cfg = small_config(Task.BF)
    assert diversity_table(cfg, ["beam"], jobs=1).rows == diversity_table(cfg, ["beam"], jobs=3).rows
    cfg = small_config(Task.BF, runs=1)
    assert (
        coverage_study(cfg, ["argmax"], jobs=1).rows == coverage_study(cfg, ["argmax"], jobs=3).rows
    )


def test_coverage_study_curves():
    cfg = small_config(Task.BF, samples_per_graph=6, runs=1)
    table = coverage_study(cfg, ["argmax", "beam"])
    assert table.columns == ("method", "n", "dist", "sample_index", "mean_unique_valid")
    methods = {row[0] for row in table.rows}
    assert methods == {"argmax", "beam", "reference"}
    for method in methods:
        curve = [row[4] for row in table.rows if row[0] == method]
        indexes = [row[3] for row in table.rows if row[0] == method]
        assert indexes == list(range(1, 7))
        assert curve == sorted(curve)  # cumulative counts never decrease
        assert all(0.0 <= v <= i for v, i in zip(curve, indexes))
    # The reference rerun curve counts every distinct output, so it dominates
    # argmax, which can only ever contribute one solution.
    ref = [row[4] for row in table.rows if row[0] == "reference"]
    arg = [row[4] for row in table.rows if row[0] == "argmax"]
    assert all(r >= a for r, a in zip(ref, arg))
    assert max(arg) <= 1.0


def test_coverage_never_exceeds_solution_count():
    # On size-4 graphs the oracle count bounds every curve point.
    from treesample import generate_graph
    from treesample.evaluation import _graph_distribution

    cfg = small_config(Task.BF, graph_spec=GraphSpec(n=4, task=Task.BF), graph_count=1,
                       samples_per_graph=8, runs=1)
    g, _ = _graph_distribution(cfg, 0, 0)
    limit = len(enumerate_shortest_path_trees(g))
    table = coverage_study(cfg, ["beam", "greedy"])
    for row in table.rows:
        if row[0] != "reference":
            assert row[4] <= limit


def test_edge_reuse_evolution_shape():
    cfg = small_config(Task.BF, samples_per_graph=5, runs=1)
    table = edge_reuse_evolution(cfg, ["beam"])
    assert table.columns == ("method", "n", "dist", "sample_index", "mean_edge_reuse")
    beam_rows = [row for row in table.rows if row[0] == "beam"]
    assert [row[3] for row in beam_rows] == [2, 3, 4, 5]  # k - 1 prefixes
    assert all(0.0 <= row[4] <= 1.0 for row in table.rows)
    with pytest.raises(ValueError, match="two samples"):
        edge_reuse_evolution(small_config(Task.BF, samples_per_graph=1, runs=1), ["beam"])
    # "reference" names the reruns row the curve studies add themselves, and
    # their rng streams carry no run key, so a second run would repeat the first.
    for study in (coverage_study, edge_reuse_evolution):
        with pytest.raises(ValueError, match="reference"):
            study(cfg, ["reference"])
        with pytest.raises(ValueError, match="runs=2"):
            study(small_config(Task.BF, runs=2), ["beam"])


def test_dfs_suite_runs_end_to_end():
    cfg = small_config(Task.DFS)
    table = diversity_table(cfg, ["upwards", "alt-upwards"])
    assert len(table.rows) == 2
    assert all(row[5] >= 0 for row in table.rows)
