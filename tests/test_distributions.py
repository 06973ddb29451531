"""Empirical parent distributions, divergence, perturbation, rerun study."""

import itertools
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from treesample import (
    GraphSpec,
    ParentDistribution,
    RerunStudyConfig,
    Task,
    TiebreakMode,
    algorithms,
    build_empirical,
    distributions,
    distributions_from_json,
    distributions_to_json,
    generate_graph,
    kl_divergence,
    perturb,
    randomized_bellman_ford,
    randomized_dfs,
    rerun_divergence_study,
    seeding,
)
from treesample.seeding import derive_rng, derive_seed

from oracles import BF_ARC_LIMIT, exact_parent_law


def row_stochastic(n: int):
    """Strategy for n x n row-stochastic matrices without zero rows."""
    return (
        hnp.arrays(np.float64, (n, n), elements=st.floats(0.01, 1.0))
        .map(lambda m: m / m.sum(axis=1, keepdims=True))
    )


def test_distribution_validation():
    with pytest.raises(ValueError, match="3x3"):
        ParentDistribution(3, np.eye(2))
    with pytest.raises(ValueError, match="non-negative"):
        ParentDistribution(2, np.array([[1.5, -0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="sum to 1"):
        ParentDistribution(2, np.array([[0.5, 0.4], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        ParentDistribution(2, np.array([[np.nan, np.nan], [0.0, 1.0]]))


def test_probs_are_a_read_only_copy():
    source = np.array([[1.0, 0.0], [0.25, 0.75]])
    dist = ParentDistribution(2, source)
    with pytest.raises(ValueError, match="read-only"):
        dist.probs[1, 0] = 0.5
    source[1] = [0.5, 0.5]  # the caller's array stays writable and detached
    assert dist.probs[1].tolist() == [0.25, 0.75]


def test_distribution_fields_cannot_be_reassigned():
    # A new probs would skip the row checks, and a draw_table built before
    # the assignment would keep the old CDF.
    dist = ParentDistribution(2, np.full((2, 2), 0.5))
    with pytest.raises(FrozenInstanceError):
        dist.probs = np.array([[0.5, 0.5], [7.0, -3.0]])
    with pytest.raises(FrozenInstanceError):
        dist.n = 99
    assert dist.n == 2 and dist.probs.tolist() == [[0.5, 0.5], [0.5, 0.5]]


def test_empirical_rows_are_run_frequencies(two_tree_digraph):
    # The only trees are (0,0,1) and (0,2,0): row 0 is a point mass on 0, and
    # rows 1 and 2 split between {0, 2} and {0, 1} at about half each.
    dist = build_empirical(two_tree_digraph, Task.DFS, runs=1000, seed=5)
    assert np.allclose(dist.probs[0], [1.0, 0.0, 0.0])
    assert dist.probs[1][1] == 0.0 and dist.probs[2][2] == 0.0
    assert abs(dist.probs[1][0] - 0.5) < 0.05
    assert abs(dist.probs[1][2] - 0.5) < 0.05
    assert np.allclose(dist.probs[1], [0.503, 0.0, 0.497])  # frozen at this seed


@pytest.mark.parametrize(
    "task, mode",
    [(Task.BF, TiebreakMode.PER_RUN_GLOBAL), (Task.DFS, TiebreakMode.PER_RUN_GLOBAL), (Task.DFS, TiebreakMode.PER_NODE)],
)
def test_empirical_counts_equal_a_per_run_tally(task, mode):
    # The reference: seven runs drawn in turn from the seed's "run" stream,
    # tallied one parent at a time.
    for n in (1, 2, 9):
        g = generate_graph(GraphSpec(n=n, task=task), n)
        counts = np.zeros((n, n))
        rng = derive_rng(3, "run")
        for _ in range(7):
            pi = randomized_dfs(g, rng, mode) if task is Task.DFS else randomized_bellman_ford(g, rng)
            for v, u in enumerate(pi):
                counts[v, u] += 1
        dist = build_empirical(g, task, runs=7, seed=3, mode=mode)
        assert dist.probs.tolist() == (counts / 7).tolist()


def law_graphs(task: Task, count: int) -> list:
    """count seeded graphs for the exact-law test: BF at n = 7 with half the
    pairs joined, weights 1 and 2 (tie-rich) and at most BF_ARC_LIMIT tight
    arcs; DFS at n = 6 and the default density."""
    spec = GraphSpec(7, 0.5, Task.BF, (1, 2)) if task is Task.BF else GraphSpec(6, task=Task.DFS)
    graphs = (generate_graph(spec, derive_seed(11, "law", task.value, i)) for i in itertools.count())
    if task is Task.BF:
        graphs = (g for g in graphs if len(g.sp_arcs) <= BF_ARC_LIMIT)
    return list(itertools.islice(graphs, count))


@pytest.mark.parametrize(
    "task, mode, count",
    [(Task.BF, TiebreakMode.PER_RUN_GLOBAL, 40), (Task.DFS, TiebreakMode.PER_RUN_GLOBAL, 30),
     (Task.DFS, TiebreakMode.PER_NODE, 30)],
)
def test_empirical_rows_lie_within_a_binomial_bound_of_the_exact_law(task, mode, count):
    # Each count c of parent u in row v is Binomial(runs, p), p the exact law's
    # entry: it must stay inside Bernstein's bound at failure chance 1e-6 per
    # cell. Pooled over every row with two or more possible parents, Pearson's
    # statistic has mean equal to its degrees of freedom; it may not exceed
    # that by six standard deviations of the independent-row chi-square.
    runs, log_term = 400, math.log(2 / 1e-6)
    chi_square = freedom = 0
    for index, g in enumerate(law_graphs(task, count)):
        p = exact_parent_law(g, task, mode).probs
        c = np.rint(build_empirical(g, task, runs=runs, seed=index, mode=mode).probs * runs)
        assert np.all(c[p == 0] == 0) and np.all(c[p == 1] == runs)
        bound = log_term / 3 + np.sqrt((log_term / 3) ** 2 + 2 * log_term * runs * p * (1 - p))
        assert np.all(np.abs(c - runs * p) <= bound), (index, c.tolist(), p.tolist())
        cells = (p > 0) & (p.max(axis=1, keepdims=True) < 1)
        chi_square += ((c[cells] - runs * p[cells]) ** 2 / (runs * p[cells])).sum()
        freedom += int(cells.sum() - cells.any(axis=1).sum())
    assert freedom >= 40
    assert chi_square <= freedom + 6 * math.sqrt(2 * freedom)


@pytest.mark.parametrize("runs", [1, 20])
@pytest.mark.parametrize("task", [Task.BF, Task.DFS])
def test_empirical_seeds_one_generator_per_distribution(monkeypatch, task, runs):
    # A SeedSequence costs about as much as a DFS run at n = 8, so the runs
    # share one Generator instead of deriving a seed each.
    g = generate_graph(GraphSpec(n=8, task=task), 1)
    calls = []

    def spy(name, derive):
        return lambda *keys: calls.append(name) or derive(*keys)

    for module in (seeding, algorithms, distributions):
        for name in ("derive_rng", "derive_seed"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    build_empirical(g, task, runs=runs, seed=3)
    assert calls == ["derive_rng"]


@pytest.mark.parametrize(
    "task, mode",
    [(Task.BF, TiebreakMode.PER_RUN_GLOBAL), (Task.DFS, TiebreakMode.PER_RUN_GLOBAL), (Task.DFS, TiebreakMode.PER_NODE)],
)
def test_empirical_counts_nest_as_runs_double(task, mode):
    # The first R runs of a 2R build are the R-run build, so no count shrinks.
    g = generate_graph(GraphSpec(n=9, task=task), 4)
    for runs in (1, 7, 50):
        short = build_empirical(g, task, runs=runs, seed=6, mode=mode).probs * runs
        long = build_empirical(g, task, runs=2 * runs, seed=6, mode=mode).probs * (2 * runs)
        assert np.all(np.rint(short) <= np.rint(long))


def test_empirical_point_mass_on_unique_solution(third_weight_line):
    dist = build_empirical(third_weight_line, Task.BF, runs=50, seed=1)
    expected = np.zeros((3, 3))
    expected[0, 0] = expected[1, 0] = expected[2, 1] = 1.0
    assert np.array_equal(dist.probs, expected)


def test_empirical_deterministic_and_mode_sensitive(tiebreak_sensitive_digraph):
    a = build_empirical(tiebreak_sensitive_digraph, Task.DFS, runs=200, seed=9)
    b = build_empirical(tiebreak_sensitive_digraph, Task.DFS, runs=200, seed=9)
    assert np.array_equal(a.probs, b.probs)
    c = build_empirical(
        tiebreak_sensitive_digraph, Task.DFS, runs=200, seed=9, mode=TiebreakMode.PER_NODE
    )
    assert not np.array_equal(a.probs, c.probs)


def test_bf_empirical_ignores_mode(unit_square):
    # The Bellman-Ford runner reads only the policy seed, so modes are DFS-only.
    a = build_empirical(unit_square, Task.BF, runs=50, seed=4)
    b = build_empirical(unit_square, Task.BF, runs=50, seed=4, mode=TiebreakMode.PER_NODE)
    assert 0.0 < a.probs.max(axis=1).min() < 1.0  # the two tied trees both occur
    assert np.array_equal(a.probs, b.probs)


def test_empirical_rejects_bad_inputs(two_tree_digraph):
    with pytest.raises(ValueError, match="at least one run"):
        build_empirical(two_tree_digraph, Task.DFS, runs=0)
    with pytest.raises(ValueError, match="source"):
        build_empirical(two_tree_digraph, Task.BF)  # fixture has no source


def test_kl_zero_on_identical_and_matches_direct_formula(two_tree_digraph):
    p = build_empirical(two_tree_digraph, Task.DFS, runs=100, seed=0)
    q = build_empirical(two_tree_digraph, Task.DFS, runs=100, seed=1)
    assert kl_divergence(p, p) == 0.0
    # Independent route: per-row smoothed KL spelled out in scalar arithmetic.
    eps = 1e-8
    rows = []
    for prow, qrow in zip(p.probs.tolist(), q.probs.tolist()):
        ps = [x + eps for x in prow]
        qs = [x + eps for x in qrow]
        ps = [x / sum(ps) for x in ps]
        qs = [x / sum(qs) for x in qs]
        rows.append(sum(a * math.log(a / b) for a, b in zip(ps, qs)))
    assert kl_divergence(p, q) == pytest.approx(sum(rows) / len(rows), rel=1e-12)


def test_kl_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        kl_divergence(ParentDistribution(2, np.eye(2)), ParentDistribution(3, np.eye(3)))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), data=st.data())
def test_kl_is_nonnegative(n, data):
    p = ParentDistribution(n, data.draw(row_stochastic(n)))
    q = ParentDistribution(n, data.draw(row_stochastic(n)))
    assert kl_divergence(p, q) >= 0.0


def test_perturb_identity_at_zero_and_valid_rows(two_tree_digraph):
    p = build_empirical(two_tree_digraph, Task.DFS, runs=100, seed=0)
    assert np.array_equal(perturb(p, 0.0).probs, p.probs)
    mixed = perturb(p, 0.6, seed=4)
    assert np.allclose(mixed.probs.sum(axis=1), 1.0)
    assert np.all(mixed.probs >= 0)
    assert not np.array_equal(mixed.probs, p.probs)
    assert np.array_equal(perturb(p, 0.6, seed=4).probs, mixed.probs)


def test_perturb_alpha_range():
    p = ParentDistribution(2, np.eye(2))
    for alpha in (-0.1, 1.1):
        with pytest.raises(ValueError, match="alpha"):
            perturb(p, alpha)


def test_full_perturbation_forgets_the_input():
    a = perturb(ParentDistribution(3, np.eye(3)), 1.0, seed=7)
    b = perturb(ParentDistribution(3, np.full((3, 3), 1 / 3)), 1.0, seed=7)
    assert np.allclose(a.probs, b.probs)


def test_rerun_study_table_shape():
    cfg = RerunStudyConfig(sizes=(4, 5), graphs_per_size=3, rerun_counts=(5, 10, 20), seed=3)
    table = rerun_divergence_study(cfg)
    assert table.columns == ("size", "pair_lo", "pair_hi", "mean_kl", "std_kl")
    # 2 sizes x 3 ordered count pairs
    assert len(table.rows) == 6
    assert [(r[0], r[1], r[2]) for r in table.rows] == [
        (4, 5, 10), (4, 5, 20), (4, 10, 20), (5, 5, 10), (5, 5, 20), (5, 10, 20),
    ]
    assert all(math.isfinite(r[3]) and r[3] >= 0 and r[4] >= 0 for r in table.rows)
    assert table.to_csv_text().splitlines()[0] == "size,pair_lo,pair_hi,mean_kl,std_kl"


def test_rerun_study_rows_equal_per_pair_reference():
    # More than 8 graphs, where numpy's pairwise summation of a 1-D array
    # differs from adding graph after graph: each row must equal the mean and
    # std of that pair's own list of values, bit for bit.
    cfg = RerunStudyConfig(sizes=(4, 5), graphs_per_size=11, rerun_counts=(6, 2, 4), seed=3)
    expected = []
    for size in cfg.sizes:
        kls = {pair: [] for pair in ((2, 4), (2, 6), (4, 6))}
        for index in range(cfg.graphs_per_size):
            seed = derive_seed(cfg.seed, "graph", size, index)
            g = generate_graph(GraphSpec(n=size, task=cfg.task), seed)
            dists = {
                c: build_empirical(
                    g, cfg.task, runs=c, seed=derive_seed(cfg.seed, "dist", size, index, c)
                )
                for c in cfg.rerun_counts
            }
            for lo, hi in kls:
                kls[lo, hi].append(kl_divergence(dists[lo], dists[hi]))
        for (lo, hi), values in kls.items():
            values = np.array(values)
            expected.append((size, lo, hi, float(values.mean()), float(values.std())))
    assert rerun_divergence_study(cfg).rows == expected


def test_rerun_study_jobs_do_not_change_results():
    cfg = RerunStudyConfig(sizes=(5,), graphs_per_size=4, rerun_counts=(5, 10), seed=11)
    assert rerun_divergence_study(cfg, jobs=1).rows == rerun_divergence_study(cfg, jobs=4).rows


def test_rerun_study_config_validation():
    with pytest.raises(ValueError, match="graphs_per_size"):
        rerun_divergence_study(RerunStudyConfig(sizes=(4,), graphs_per_size=0))
    with pytest.raises(ValueError, match="two rerun counts"):
        rerun_divergence_study(RerunStudyConfig(sizes=(4,), rerun_counts=(5,)))
    with pytest.raises(ValueError, match="rerun_counts must not repeat"):
        rerun_divergence_study(RerunStudyConfig(sizes=(4,), rerun_counts=(5, 5, 10)))
    with pytest.raises(ValueError, match="sizes must not repeat"):
        rerun_divergence_study(RerunStudyConfig(sizes=(4, 5, 4), rerun_counts=(5, 10)))
    with pytest.raises(ValueError, match="sizes must not repeat or be empty"):
        rerun_divergence_study(RerunStudyConfig(sizes=(), rerun_counts=(5, 10)))
    # Each count refused when the config is built, before any study runs.
    with pytest.raises(ValueError, match=r"rerun_counts\[0\] must be a positive int, got 0"):
        RerunStudyConfig(rerun_counts=(0, 5))
    with pytest.raises(ValueError, match="graphs_per_size"):
        RerunStudyConfig(graphs_per_size=0)
    with pytest.raises(ValueError, match="two rerun counts"):
        RerunStudyConfig(rerun_counts=(5,))
    for size in (0, -2, 1025):  # refused before any graph is built or seeded
        with pytest.raises(ValueError, match=f"graph size must be positive .* got {size}"):
            rerun_divergence_study(RerunStudyConfig(sizes=(4, size), rerun_counts=(5, 10)))


def test_distribution_json_round_trip(tmp_path, two_tree_digraph):
    dists = [
        build_empirical(two_tree_digraph, Task.DFS, runs=40, seed=s) for s in range(3)
    ]
    path = tmp_path / "dists.json"
    distributions_to_json(dists, path)
    loaded = distributions_from_json(path)
    assert len(loaded) == 3
    for orig, back in zip(dists, loaded):
        assert back.n == orig.n
        assert np.array_equal(back.probs, orig.probs)


def test_pickled_copy_is_rebuilt_by_the_constructor(monkeypatch):
    import copy
    import pickle

    d = ParentDistribution(2, [[1.0, 0.0], [0.5, 0.5]])
    d.draw_table  # built and cached on the original only
    blob = pickle.dumps(d)
    checks = []
    post_init = ParentDistribution.__post_init__
    monkeypatch.setattr(
        ParentDistribution, "__post_init__", lambda self: checks.append(post_init(self))
    )
    for twin in (pickle.loads(blob), copy.deepcopy(d)):
        assert np.array_equal(twin.probs, d.probs)
        assert not twin.probs.flags.writeable
        assert "draw_table" not in vars(twin)
    assert len(checks) == 2  # each copy's rows were checked again
    assert b"draw_table" not in blob
