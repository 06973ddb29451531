"""Golden digests of the library layer: public functions at fixed inputs.

Each case below calls the package's public functions at fixed seeds, sizes
and arrays and returns a JSON value; the SHA-256 of its canonical JSON text is
compared with `golden_library_digests.json`. Cases are named
"<layer>/<case>" and each layer is one test, so a numpy release that changes
a Generator stream fails the layer that moved (and the layers built on it:
the lowest failing layer is the one to read). If a change is deliberate,
regenerate the digests with `PYTHONPATH=src python tests/test_golden_library.py`,
which names each case whose digest changed, set DIGESTS_NUMPY to the numpy
that made them, and say why in the commit.
"""

import hashlib
import itertools
import json
import sys
from collections import Counter
from functools import cache
from pathlib import Path

import numpy
import pytest

from treesample import (
    METHODS,
    DfsCondition,
    Graph,
    GraphSpec,
    SamplerConfig,
    Task,
    TiebreakMode,
    build_empirical,
    draw_samples,
    enumerate_dfs_trees,
    extract,
    generate_graph,
    perturb,
    randomized_bellman_ford,
    randomized_dfs,
    verdict,
)
from treesample.seeding import derive_rng, derive_seed

DIGESTS = Path(__file__).with_name("golden_library_digests.json")
DIGESTS_NUMPY = "2.4.6"  # the numpy release whose Generator streams made DIGESTS

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 + 12345, 2**64 - 1, 2**64, 2**100 + 5)
SIZES = (1, 2, 8, 20, 64)
SAMPLER_SIZES = (2, 8, 64)
VALIDITY_SIZES = (8, 20, 64)
ALPHAS = (0, 0.3, 1)
MODES = tuple(TiebreakMode)
TASK_METHODS = {
    Task.BF: METHODS,
    Task.DFS: tuple(m for m in METHODS if m not in ("beam", "greedy")),
}


@cache
def graph(task: Task, n: int) -> Graph:
    return generate_graph(GraphSpec(n, task=task), seed=n)


@cache
def distribution(task: Task, n: int, alpha: float):
    dist = build_empirical(graph(task, n), task, runs=20, seed=n)
    return dist if alpha == 0 else perturb(dist, alpha, seed=n)


def seeding_cases():
    for seed in SEEDS:
        yield str(seed), {
            "derive_seed": [derive_seed(seed), derive_seed(seed, "run", 3), derive_seed(1, 0, seed)],
            "derive_rng": [
                derive_rng(seed).random(3).tolist(),
                derive_rng(seed, "batch", seed, 2).integers(0, 2**62, 3).tolist(),
            ],
        }


def graphs_cases():
    for task, n in itertools.product(Task, SIZES):
        yield f"{task.value}-n{n}", graph(task, n).to_dict()
    spec = GraphSpec(16, task=Task.BF, weight_set=(2, 4, 6))
    yield "bf-n16-even-weights", generate_graph(spec, seed=14).to_dict()
    spec = GraphSpec(8, edge_probability=0.7, task=Task.BF, weight_set=(2, 5, 7), normalize=False)
    yield "bf-n8-raw-weights", generate_graph(spec, seed=12).to_dict()


def algorithms_cases():
    for n in SIZES:
        yield f"bf-n{n}", [randomized_bellman_ford(graph(Task.BF, n), derive_rng(s)) for s in range(5)]
        for mode in MODES:
            runs = [randomized_dfs(graph(Task.DFS, n), derive_rng(s), mode) for s in range(5)]
            yield f"dfs-n{n}-{mode.value}", runs
    for n, mode in itertools.product((2, 5, 7), MODES):
        trees = enumerate_dfs_trees(graph(Task.DFS, n), mode)
        yield f"enumerate-dfs-n{n}-{mode.value}", sorted([t, str(f)] for t, f in trees.items())


def distributions_cases():
    for task, n in itertools.product(Task, SAMPLER_SIZES):
        for alpha in ALPHAS:
            yield f"{task.value}-n{n}-alpha{alpha}", distribution(task, n, alpha).probs.tolist()
        if task is Task.DFS:
            dist = build_empirical(graph(task, n), task, runs=20, seed=n, mode=TiebreakMode.PER_NODE)
            yield f"dfs-n{n}-per-node", dist.probs.tolist()


def fallback_draws():
    """The draws of `study table2 --task bf -n 12 --graphs 4 --runs 1 --alpha 1
    --seed 7` with every beam and greedy knob at 1, one {method: pi} per graph:
    they take all four fallbacks (lightest in-edge and self, in beam and in
    greedy)."""
    cfg = SamplerConfig(1, 1, 1, 1)
    for index in range(4):
        g = generate_graph(GraphSpec(12), derive_seed(7, "graph", 0, index))
        dist = build_empirical(g, Task.BF, runs=20, seed=derive_seed(7, "dist", 0, index))
        dist = perturb(dist, 1, seed=derive_seed(7, "perturb", 0, index))
        yield {
            method: extract(method, dist, g, cfg, derive_rng(7, "single", method, 0, index))
            for method in ("beam", "greedy")
        }


def samplers_cases():
    cfg = SamplerConfig()
    for task, n, alpha in itertools.product(Task, SAMPLER_SIZES, ALPHAS):
        dist = distribution(task, n, alpha)
        for method in TASK_METHODS[task]:
            rng = derive_rng(n, task.value, method)
            samples = draw_samples(method, dist, graph(task, n), cfg, 2, rng)
            yield f"{task.value}-n{n}-alpha{alpha}-{method}", samples
    for index, draws in enumerate(fallback_draws()):
        yield f"fallbacks-graph{index}", draws
    arcless = Graph(5, False, [[0] * 5] * 5, 0)
    for alpha in (0, 1):
        dist = perturb(build_empirical(arcless, Task.BF, runs=5, seed=1), alpha, seed=1)
        yield f"arcless-alpha{alpha}", {
            method: draw_samples(method, dist, arcless, cfg, 2, derive_rng(5, method))
            for method in METHODS
        }


def dfs_verdicts(n: int) -> list[list]:
    """[pi, valid, tags] on graph(Task.DFS, n) for the runner's outputs at
    seeds 0-4 in both modes, five draws of each DFS method at alpha 0.3, and
    40 runner outputs that each have one parent changed at a seeded vertex."""
    g = graph(Task.DFS, n)
    runs = [randomized_dfs(g, derive_rng(s), mode) for mode in MODES for s in range(5)]
    dist = distribution(Task.DFS, n, 0.3)
    draws = [
        pi
        for method in TASK_METHODS[Task.DFS]
        for pi in draw_samples(method, dist, g, SamplerConfig(), 5, derive_rng(n, "validity", method))
    ]
    rng = derive_rng(n, "validity", "mutants")
    mutants = []
    for _ in range(40):
        pi = list(runs[rng.integers(len(runs))])
        v, p = rng.integers(n), int(rng.integers(n - 1))
        pi[v] = p + (p >= pi[v])  # any parent but the old one
        mutants.append(tuple(pi))
    return [[pi, *verdict(g, Task.DFS, pi)] for pi in runs + draws + mutants]


def validity_cases():
    # Every array on small hand-built graphs, then seeded arrays at scale.
    graphs = {
        "bf-square": Graph.from_edges(4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)], False, 0),
        "bf-mixed": Graph.from_edges(
            5, [(0, 1, "1/3"), (0, 2, 1), (1, 2, "2/3"), (2, 3, 1), (1, 3, 2)], False, 0
        ),
        "dfs-star": Graph.from_edges(4, [(0, v, 1) for v in (1, 2, 3)], True),
        "dfs-ties": Graph.from_edges(
            5, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1), (3, 1, 1), (4, 0, 1)], True
        ),
    }
    for name, g in graphs.items():
        task = Task.DFS if g.directed else Task.BF
        arrays = itertools.product(range(g.n), repeat=g.n)
        yield name, [[pi, *verdict(g, task, pi)] for pi in arrays]
    for n in VALIDITY_SIZES:
        yield f"dfs-n{n}", dfs_verdicts(n)


LAYERS = {
    "seeding": seeding_cases,
    "graphs": graphs_cases,
    "algorithms": algorithms_cases,
    "distributions": distributions_cases,
    "samplers": samplers_cases,
    "validity": validity_cases,
}


def layer_digests(layer: str) -> dict[str, str]:
    """SHA-256 of each case's canonical JSON text, keyed "<layer>/<case>"."""
    return {
        f"{layer}/{case}": hashlib.sha256(
            json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        for case, value in LAYERS[layer]()
    }


def changed_names(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """Cases whose digest differs, or that only one side has."""
    return sorted(k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k))


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_matches_golden_digests(layer):
    expected = {
        name: digest
        for name, digest in json.loads(DIGESTS.read_text()).items()
        if name.startswith(f"{layer}/")
    }
    changed = changed_names(expected, layer_digests(layer))
    assert not changed, (
        f"{layer} outputs changed for: {', '.join(changed)} (numpy {numpy.__version__} running,"
        f" digests made with numpy {DIGESTS_NUMPY})"
    )


def test_validity_cases_at_scale_take_every_tag_and_a_valid_array():
    rows = [row for n in VALIDITY_SIZES for row in dfs_verdicts(n)]
    assert any(valid for _, valid, _ in rows)
    assert {tag for _, _, tags in rows for tag in tags} == {c.value for c in DfsCondition}


def test_fallback_case_takes_all_four_fallbacks(fallbacks):
    list(fallback_draws())
    taken = Counter((method, kind) for method, _, kind in fallbacks)
    assert taken == {
        ("beam", "parent"): 17, ("beam", "self"): 1, ("greedy", "parent"): 32, ("greedy", "self"): 1
    }


if __name__ == "__main__":
    digests = {name: d for layer in LAYERS for name, d in layer_digests(layer).items()}
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for name in changed_names(old, digests):
        print(f"changed: {name}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
    print(f"made with numpy {numpy.__version__}: set DIGESTS_NUMPY to match", file=sys.stderr)
