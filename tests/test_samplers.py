"""Solution extraction from parent distributions: the six methods and their
tie-break, fallback, and determinism contracts."""

from bisect import bisect_right
from collections import Counter
from itertools import accumulate

import numpy as np
import pytest

from treesample import (
    Graph,
    GraphSpec,
    ParentDistribution,
    SamplerConfig,
    Task,
    alt_upwards_sample,
    argmax_extract,
    beam_extract,
    build_empirical,
    check_bf_valid,
    check_dfs_valid,
    draw_samples,
    enumerate_shortest_path_trees,
    extract,
    generate_graph,
    greedy_extract,
    perturb,
    random_extract,
    upwards_sample,
)
from treesample import samplers
from treesample.distributions import choice_cdf
from treesample.samplers import _distinct_parents, _masked_draw


def point_mass(pi: tuple[int, ...]) -> ParentDistribution:
    n = len(pi)
    probs = np.zeros((n, n))
    probs[np.arange(n), pi] = 1.0
    return ParentDistribution(n, probs)


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def test_sampler_config_validation():
    with pytest.raises(ValueError, match="beam_width"):
        SamplerConfig(beam_width=0)
    with pytest.raises(ValueError, match="greedy_parent_samples"):
        SamplerConfig(greedy_parent_samples=-1)


def test_extract_rejects_unknown_method(third_weight_line):
    dist = point_mass((0, 0, 1))
    with pytest.raises(ValueError, match="unknown method"):
        extract("magic", dist, third_weight_line, SamplerConfig(), rng())


def test_argmax_reproduces_point_mass():
    pi = (0, 0, 1, 2)
    assert argmax_extract(point_mass(pi)) == pi


def test_argmax_breaks_ties_to_lowest_index():
    probs = np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
    assert argmax_extract(ParentDistribution(3, probs)) == (0, 0, 1)


def test_argmax_on_empirical_two_tree_graph(two_tree_digraph):
    # Frozen: at seed 5 the 1000-run frequencies favor tree (0, 0, 1) rows.
    dist = build_empirical(two_tree_digraph, Task.DFS, runs=1000, seed=5)
    assert argmax_extract(dist) == (0, 0, 1)


def test_upwards_reproduces_point_mass_chain(third_weight_line):
    pi = (0, 0, 1)
    for s in range(10):
        assert upwards_sample(point_mass(pi), rng(s)) == pi
        assert alt_upwards_sample(point_mass(pi), rng(s)) == pi


def test_upwards_masking_breaks_star_but_alt_does_not():
    # Star digraph 0 -> {1,2,3,4}: its unique depth-first tree parents every
    # leaf to 0. The masking variant consumes vertex 0 after the first chain,
    # leaving later rows with no support, so its output is never that tree;
    # the no-mask variant reproduces it exactly.
    star_pi = (0, 0, 0, 0, 0)
    g = Graph.from_edges(5, [(0, v, 1) for v in range(1, 5)], directed=True)
    dist = point_mass(star_pi)
    for s in range(10):
        masked = upwards_sample(dist, rng(s))
        assert masked != star_pi
        assert not check_dfs_valid(g, masked).valid
        assert alt_upwards_sample(dist, rng(s)) == star_pi


def test_upwards_deterministic_given_stream(two_tree_digraph):
    dist = build_empirical(two_tree_digraph, Task.DFS, runs=100, seed=2)
    for s in range(5):
        assert upwards_sample(dist, rng(s)) == upwards_sample(dist, rng(s))
        assert alt_upwards_sample(dist, rng(s)) == alt_upwards_sample(dist, rng(s))


def test_beam_reproduces_point_mass_tree(third_weight_line):
    pi = (0, 0, 1)
    for s in range(10):
        assert beam_extract(point_mass(pi), third_weight_line, SamplerConfig(), rng(s)) == pi


def test_beam_outputs_are_shortest_path_trees(unit_square):
    trees = enumerate_shortest_path_trees(unit_square)
    dist = build_empirical(unit_square, Task.BF, runs=200, seed=0)
    # Default branching covers vertex 3's whole support every round, so the
    # cost tie resolves identically each time: beam is deterministic here.
    assert {beam_extract(dist, unit_square, SamplerConfig(), rng(s)) for s in range(30)} == {
        (0, 0, 0, 1)
    }
    # A single-pick branch turns the tie into a coin flip and reaches both.
    narrow = SamplerConfig(beam_branch=1)
    seen = {beam_extract(dist, unit_square, narrow, rng(s)) for s in range(30)}
    assert seen == trees


def test_beam_breaks_cost_ties_to_lowest_parent(unit_square):
    # Vertex 3 completes through 1 and through 2 at identical cost 2; with
    # both parents in the row the cheaper-index rule must pick 1 every time.
    probs = np.zeros((4, 4))
    probs[0, 0] = probs[1, 0] = probs[2, 0] = 1.0
    probs[3, 1] = probs[3, 2] = 0.5
    dist = ParentDistribution(4, probs)
    for s in range(20):
        assert beam_extract(dist, unit_square, SamplerConfig(), rng(s)) == (0, 0, 0, 1)


def test_beam_keeps_unreachable_vertices_rooted():
    g = Graph.from_edges(3, [(1, 2, 1)], directed=False, source=0)
    dist = build_empirical(g, Task.BF, runs=20, seed=0)
    for s in range(10):
        assert beam_extract(dist, g, SamplerConfig(), rng(s)) == (0, 1, 2)


def test_beam_fallbacks_and_counters(fallbacks):
    # Rows that chase a 1 <-> 2 pointer loop never complete a path to the
    # source; the vertex falls back to its lightest graph parent when one
    # exists, else to itself.
    loop = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    dist = ParentDistribution(3, loop)
    g = Graph.from_edges(3, [(1, 2, 1)], directed=False, source=0)
    assert beam_extract(dist, g, SamplerConfig(), rng(0)) == (0, 2, 1)
    assert fallbacks == [("beam", 1, "parent"), ("beam", 2, "parent")]
    fallbacks.clear()
    edgeless = Graph.from_edges(3, [], directed=False, source=0)
    pi = beam_extract(dist, edgeless, SamplerConfig(), rng(0))
    assert fallbacks == [("beam", 1, "self"), ("beam", 2, "self")]
    assert pi == (0, 1, 2) and check_bf_valid(edgeless, pi)


def test_beam_requires_source(two_tree_digraph):
    with pytest.raises(ValueError, match="source"):
        beam_extract(point_mass((0, 0, 1)), two_tree_digraph, SamplerConfig(), rng())


def test_greedy_reproduces_point_mass_tree(third_weight_line):
    pi = (0, 0, 1)
    for s in range(10):
        assert greedy_extract(point_mass(pi), third_weight_line, SamplerConfig(), rng(s)) == pi


def test_greedy_prefers_lighter_supported_parent():
    # Vertex 2 splits its row between parent 0 (edge weight 1) and parent 1
    # (weight 1/3). Drawing without replacement sees both every round, so the
    # lighter edge wins deterministically.
    from fractions import Fraction

    g = Graph.from_edges(
        3,
        [(0, 1, Fraction(1, 3)), (0, 2, 1), (1, 2, Fraction(1, 3))],
        directed=False,
        source=0,
    )
    probs = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
    dist = ParentDistribution(3, probs)
    for s in range(20):
        assert greedy_extract(dist, g, SamplerConfig(), rng(s)) == (0, 0, 1)


def test_greedy_keeps_unreachable_vertices_rooted():
    g = Graph.from_edges(3, [(1, 2, 1)], directed=False, source=0)
    dist = build_empirical(g, Task.BF, runs=20, seed=0)
    for s in range(10):
        assert greedy_extract(dist, g, SamplerConfig(), rng(s)) == (0, 1, 2)


def test_greedy_fallbacks_and_counters(fallbacks):
    g = Graph.from_edges(3, [(1, 2, 1)], directed=False, source=0)
    # Row of vertex 1 insists on parent 0, but edge (0,1) does not exist.
    probs = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    dist = ParentDistribution(3, probs)
    assert greedy_extract(dist, g, SamplerConfig(), rng(0)) == (0, 2, 1)
    assert fallbacks == [("greedy", 1, "parent")]
    fallbacks.clear()
    edgeless = Graph.from_edges(2, [], directed=False, source=0)
    bad = ParentDistribution(2, np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert greedy_extract(bad, edgeless, SamplerConfig(), rng(0)) == (0, 1)
    assert fallbacks == [("greedy", 1, "self")]


def test_greedy_requires_source(two_tree_digraph):
    with pytest.raises(ValueError, match="source"):
        greedy_extract(point_mass((0, 0, 1)), two_tree_digraph, SamplerConfig(), rng())


@pytest.mark.parametrize("extractor", [beam_extract, greedy_extract])
def test_beam_and_greedy_root_at_a_source_other_than_0(extractor):
    # Path 0-1-2 rooted at 2: the source keeps itself and vertex 0 reaches it via 1.
    g = Graph.from_edges(3, [(0, 1, 1), (1, 2, 1)], directed=False, source=2)
    pi = (1, 2, 2)
    for s in range(10):
        assert extractor(point_mass(pi), g, SamplerConfig(), rng(s)) == pi
    assert check_bf_valid(g, pi)


def test_empirical_extraction_never_hits_fallbacks(unit_square, third_weight_line, fallbacks):
    for g in (unit_square, third_weight_line):
        dist = build_empirical(g, Task.BF, runs=100, seed=3)
        for s in range(20):
            beam_extract(dist, g, SamplerConfig(), rng(s))
            greedy_extract(dist, g, SamplerConfig(), rng(s))
    assert fallbacks == []


def test_random_extract_keeps_root_only():
    g = Graph.from_edges(4, [(0, 1, 1)], directed=False, source=2)
    for s in range(20):
        pi = random_extract(g, rng(s))
        assert pi[2] == 2
        assert all(0 <= p < 4 for p in pi)
    dfs_graph = Graph.from_edges(3, [(0, 1, 1)], directed=True)  # no source: root 0
    assert all(random_extract(dfs_graph, rng(s))[0] == 0 for s in range(20))


def test_random_extract_is_nearly_uniform():
    g = Graph.from_edges(2, [], directed=False, source=0)
    hits = sum(random_extract(g, rng(s))[1] == 0 for s in range(1000))
    assert abs(hits / 1000 - 0.5) < 0.05


def keep_vector(n: int, mask: set[int]) -> np.ndarray:
    """The 0/1 float vector upwards keeps: 0.0 at the masked vertices."""
    keep = np.ones(n)
    keep[list(mask)] = 0.0
    return keep


def test_masked_draw_fallback_branches():
    probs = np.array([[1.0, 0.0, 0.0], [0.7, 0.0, 0.3], [0.0, 1.0, 0.0]])
    dist = ParentDistribution(3, probs)
    # The mass left after masking decides the draw.
    assert {_masked_draw(dist, 1, keep_vector(3, {2}), rng(s)) for s in range(30)} == {0}
    # Masking the whole support forces a uniform non-masked pick.
    picks = {_masked_draw(dist, 2, keep_vector(3, {1}), rng(s)) for s in range(30)}
    assert picks == {0, 2}


class FixedUniform:
    """An rng whose random() always returns x."""

    def __init__(self, x: float):
        self.x = x

    def random(self) -> float:
        return self.x


def uniforms_at(cdf) -> list[float]:
    """0.0, every CDF entry below 1.0 and the float just below each entry."""
    uniforms = {x for c in cdf for x in (c, float(np.nextafter(c, 0.0))) if x < 1.0}
    return sorted(uniforms | {0.0})


def test_unmasked_draw_bisects_the_draw_table():
    # upwards draws every parent through _masked_draw, alt-upwards bisects
    # draw_table.cdf: with nothing masked, both give the same parent for the
    # same uniform, checked at every CDF entry and the float just below it.
    # Masks that spare v and keep 1, 2 or 3 or more of its support entries
    # take each of _masked_draw's paths; each must bisect choice's CDF of the
    # masked row at the same uniforms.
    picks = rng(11)
    kept = Counter()
    for task, n in ((Task.BF, 5), (Task.DFS, 8), (Task.BF, 64), (Task.DFS, 64)):
        g = generate_graph(GraphSpec(n=n, task=task), n)
        empirical = build_empirical(g, task, runs=20, seed=n)
        for dist in (empirical, perturb(empirical, 0.3, seed=n), perturb(empirical, 1.0, seed=n)):
            keep = np.ones(n)
            for v, cdf in enumerate(dist.draw_table.cdf):
                for x in uniforms_at(cdf):
                    assert _masked_draw(dist, v, keep, FixedUniform(x)) == bisect_right(cdf, x)
                support = np.flatnonzero(dist.probs[v])
                for size in (1, 2, 3):
                    spared = {v, *picks.choice(support, min(size, len(support)), replace=False).tolist()}
                    masked = keep_vector(n, set(range(n)) - spared)
                    masked_row = dist.probs[v] * masked
                    kept[min(int(np.count_nonzero(masked_row)), 3)] += 1
                    masked_cdf = choice_cdf(masked_row / masked_row.sum())
                    for x in uniforms_at(masked_cdf):
                        got = _masked_draw(dist, v, masked.tolist(), FixedUniform(x))
                        assert got == bisect_right(masked_cdf, x)
    assert sorted(kept) == [1, 2, 3], kept


def choice_cases():
    """Seeded (dist, v, k, seed) draws: Dirichlet rows and rows of counts / 20
    at n = 1..64, k = 1..5, plus single-support rows."""
    meta = rng(2024)
    for case in range(800):
        n = int(meta.integers(1, 65))
        if case % 4 == 0:
            probs = np.eye(n)[meta.integers(n, size=n)]
        elif case % 2:
            probs = meta.dirichlet(np.ones(n), size=n)
        else:
            probs = meta.multinomial(20, meta.dirichlet(np.full(n, 0.3)), size=n) / 20
        dist = ParentDistribution(n, probs)
        yield dist, int(meta.integers(n)), int(meta.integers(1, 6)), int(meta.integers(2**32))


def choice_upwards(dist: ParentDistribution, r: np.random.Generator, mask_parents: bool):
    """upwards (alt-upwards without masking) with every draw made by
    Generator.choice, or by the uniform fallback when masking leaves no mass."""
    pi = [None] * dist.n
    mask = set()
    for v in np.argsort(dist.probs.sum(axis=0), kind="stable").tolist():
        cur = v
        while pi[cur] is None:
            row = dist.probs[cur].copy()
            row[list(mask)] = 0.0
            if row.sum() > 0.0:
                pi[cur] = int(r.choice(dist.n, p=row / row.sum()))
            else:
                open_vertices = [u for u in range(dist.n) if u not in mask]
                pi[cur] = open_vertices[r.integers(len(open_vertices))]
            if mask_parents:
                mask.add(cur)
            cur = pi[cur]
    return tuple(pi)


def test_draws_reproduce_numpy_choice():
    # The samplers bisect CDFs instead of calling Generator.choice; each draw
    # must return choice's parents and leave the generator where choice
    # leaves it, including when a duplicate forces a second round and when a
    # mask zeroes part of the row (or all of its mass: the uniform fallback).
    seen = {"one-support": 0, "k above support": 0, "retry round": 0,
            "masked draw": 0, "masked fallback": 0, "retry leaves 2+": 0,
            "masked keeps 1": 0, "masked keeps 2": 0, "masked keeps 3+": 0}
    masks = rng(7)
    for case, (dist, v, k, seed) in enumerate(choice_cases()):
        row = dist.probs[v]
        p = row / row.sum()
        support = int(np.count_nonzero(row))
        size = min(k, support)
        ours, oracle, plain = rng(seed), rng(seed), rng(seed)
        expected = oracle.choice(dist.n, size=size, replace=False, p=p).tolist()
        assert _distinct_parents(dist, v, k, ours) == expected
        after = oracle.random()
        assert ours.random() == after
        plain.random(size)
        seen["retry round"] += plain.random() != after
        seen["one-support"] += support == 1
        seen["k above support"] += k > support
        first_round = set(np.searchsorted(choice_cdf(p), rng(seed).random(size), side="right"))
        seen["retry leaves 2+"] += len(first_round) < size and support - len(first_round) >= 2

        ours, oracle = rng(seed), rng(seed)
        assert bisect_right(dist.draw_table.cdf[v], ours.random()) == oracle.choice(dist.n, p=p)
        assert ours.random() == oracle.random()

        if dist.n > 1:  # a non-empty mask that spares v, as upwards' masks do
            others = [u for u in range(dist.n) if u != v]
            mask = set(masks.choice(others, int(masks.integers(1, dist.n)), replace=False).tolist())
            masked_row = row.copy()
            masked_row[list(mask)] = 0.0
            total = masked_row.sum()
            ours, oracle = rng(seed), rng(seed)
            got = _masked_draw(dist, v, keep_vector(dist.n, mask), ours)
            if total > 0.0:
                assert got == oracle.choice(dist.n, p=masked_row / total)
                seen["masked draw"] += 1
                kept = int(np.count_nonzero(masked_row))
                seen["masked keeps 3+" if kept >= 3 else f"masked keeps {kept}"] += 1
            else:
                open_vertices = [u for u in range(dist.n) if u not in mask]
                assert got == open_vertices[oracle.integers(len(open_vertices))]
                seen["masked fallback"] += 1
            assert ours.random() == oracle.random()

        if case % 3 == 0:  # whole samples over every row kind, every draw of the walk included
            for sample, mask_parents in ((upwards_sample, True), (alt_upwards_sample, False)):
                ours, oracle = rng(seed), rng(seed)
                assert sample(dist, ours) == choice_upwards(dist, oracle, mask_parents)
                assert ours.random() == oracle.random()
    assert min(seen.values()) > 0, seen


def test_beam_and_greedy_draw_without_numpy(monkeypatch):
    # Once the draw table is built, every beam and greedy draw reads it in
    # plain Python, retry rounds included: the perturbed twin's dense rows
    # make _distinct_parents rebuild a CDF from the parents left.
    g = generate_graph(GraphSpec(n=64, task=Task.BF), 64)
    empirical = build_empirical(g, Task.BF, runs=20, seed=64)
    dists = (empirical, perturb(empirical, 0.3, seed=64))
    cases = [(extractor, dist, s) for extractor in (beam_extract, greedy_extract)
             for dist in dists for s in range(3)]
    expected = [extractor(dist, g, SamplerConfig(), rng(s)) for extractor, dist, s in cases]

    def numpy_called(*args, **kwargs):
        raise AssertionError("a draw called numpy")

    class NoNumpy:
        def __getattr__(self, name):
            numpy_called()

    retry_rounds = []
    monkeypatch.setattr(samplers, "np", NoNumpy())
    monkeypatch.setattr(samplers, "choice_cdf", numpy_called)
    monkeypatch.setattr(samplers, "accumulate", lambda xs: retry_rounds.append(1) or accumulate(xs))
    got = [extractor(dist, g, SamplerConfig(), rng(s)) for extractor, dist, s in cases]
    assert got == expected
    assert retry_rounds


@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_batched_draws_equal_scalar_draws(n):
    # A draw primitive may batch its uniforms and indices without moving any
    # stream: k floats or n bounded integers drawn at once equal the same
    # number of scalar draws and leave the generator in the same state.
    for seed in range(20):
        batched, scalar = rng(seed), rng(seed)
        assert batched.random(n).tolist() == [scalar.random() for _ in range(n)]
        assert batched.random() == scalar.random()
        batched, scalar = rng(seed), rng(seed)
        assert batched.integers(0, n, size=n).tolist() == [
            int(scalar.integers(n)) for _ in range(n)
        ]
        assert batched.random() == scalar.random()


def test_draw_samples_streams_sequentially(unit_square):
    dist = build_empirical(unit_square, Task.BF, runs=200, seed=0)
    cfg = SamplerConfig(beam_branch=1)
    batch = draw_samples("beam", dist, unit_square, cfg, 6, rng(1))
    assert len(batch) == 6
    assert all(check_bf_valid(unit_square, pi) for pi in batch)
    assert len(set(batch)) == 2  # both trees show up in one stream
    again = draw_samples("beam", dist, unit_square, cfg, 6, rng(1))
    assert batch == again


def test_extract_dispatch_covers_all_methods(unit_square):
    from treesample import METHODS

    dist = build_empirical(unit_square, Task.BF, runs=100, seed=1)
    for method in METHODS:
        pi = extract(method, dist, unit_square, SamplerConfig(), rng(3))
        assert len(pi) == 4
        assert all(0 <= p < 4 for p in pi)
