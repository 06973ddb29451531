"""Traced in-process replay: spans around each module's public functions.

The package is left untouched. For the length of a replay, every module
attribute bound to a traced function is replaced by a wrapper that records a
span (id, parent id, layer, name, start, end, graph instance) and is restored
afterwards. Spans stay in memory and are written out once, at the end.

A layer's self time is the time of its spans minus the time of their child
spans. Untraced and traced replays alternate; the median ratio of their wall
times is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import pickle
import time
import traceback
from collections import defaultdict
from pathlib import Path

from workloads import WORK, Chain, Tally, digest, median, record_exit, run_cli

# Public functions per layer (modules under src/treesample/), plus the
# per-work-item helpers that mark which graph instance a span belongs to.
# A name a later version no longer has is skipped; its metrics read 0.
TRACED = {
    "graphs": ("generate_graph", "graphs_from_json", "graphs_to_json"),
    "algorithms": (
        "randomized_bellman_ford", "randomized_dfs", "bellman_ford_costs",
        "enumerate_dfs_trees", "enumerate_shortest_path_trees",
    ),
    "seeding": ("derive_seed", "derive_rng"),
    "distributions": (
        "build_empirical", "perturb", "kl_divergence",
        "distributions_from_json", "distributions_to_json",
    ),
    "samplers": (
        "draw_samples", "extract", "argmax_extract", "upwards_sample",
        "alt_upwards_sample", "beam_extract", "greedy_extract", "random_extract",
    ),
    "validity": ("check_bf_valid", "check_dfs_valid"),
    "evaluation": (
        "accuracy_suite", "diversity_table", "accuracy_table",
        "uniques_and_valids", "is_valid", "_suite_item",
    ),
    "parallel": ("parallel_map",),
    "cli": (
        "main", "cmd_gen", "cmd_dist", "cmd_sample", "cmd_check",
        "cmd_study_table1", "cmd_study_table2", "_dist_item", "_sample_item",
    ),
}
LAYERS = tuple(TRACED)
SAMPLER_FUNCTIONS = {
    "argmax": "argmax_extract",
    "upwards": "upwards_sample",
    "alt-upwards": "alt_upwards_sample",
    "beam": "beam_extract",
    "greedy": "greedy_extract",
    "random": "random_extract",
}
# Calls whose arguments and results the checks after the replay need.
CAPTURED = ("randomized_bellman_ford", "randomized_dfs", "extract", "draw_samples", "build_empirical")

PROBE_GRAPHS = 40  # graphs for the cold/warm checker probe and the DFS impostor count
WARM_CALLS = 10


class Tracer:
    """Span recorder; installs itself over the package's module attributes."""

    def __init__(self, modules: dict, graph_type: type) -> None:
        self.modules = modules
        self.graph_type = graph_type
        self.spans: list[tuple] = []
        self.captures: dict[str, list] = defaultdict(list)
        self.graph_keys: dict[int, str] = {}
        self._graphs: list = []  # keeps registered graphs alive so ids stay unique
        self._stack: list[int] = []
        self._next_id = 0
        self._generated = 0
        self.instance: str | None = None
        self._undo: list[tuple] = []

    def register(self, g, key: str) -> None:
        self.graph_keys[id(g)] = key
        self._graphs.append(g)

    def _graph_key(self, args) -> str | None:
        for arg in args[:3]:
            for item in arg if type(arg) is tuple else (arg,):
                if isinstance(item, self.graph_type):
                    return self.graph_keys.get(id(item))
        return None

    def wrap(self, layer: str, name: str, fn):
        tracer = self
        capture = name in CAPTURED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            outer_instance = instance = tracer.instance
            if name == "_suite_item":
                _, _, run, index = args[0]
                instance = f"run{run}/graph{index}"
            elif instance is None:
                instance = tracer._graph_key(args)
            tracer.instance = instance
            tracer._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.instance = outer_instance
            if name == "generate_graph":
                instance = instance or f"graph{tracer._generated}"
                tracer._generated += 1
                tracer.register(result, instance)
            elif name == "graphs_from_json":
                for index, g in enumerate(result):
                    tracer.register(g, f"graph{index}")
            tracer.spans.append((span_id, parent, layer, name, start, end, instance))
            if capture:
                tracer.captures[name].append((args, result))
            return result

        return traced

    def install(self) -> None:
        for layer, names in TRACED.items():
            home = self.modules[layer]
            for name in names:
                original = getattr(home, name, None)
                if original is None:
                    continue
                wrapper = self.wrap(layer, name, original)
                for module in self.modules.values():
                    if getattr(module, name, None) is original:
                        self._undo.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._undo):
            setattr(module, name, original)
        self._undo.clear()


def load_modules() -> dict:
    return {layer: importlib.import_module(f"treesample.{layer}") for layer in LAYERS}


def replay(workload, seed: int, out: Path, modules: dict, tally: Tally, tracer: Tracer | None) -> float:
    """Run the workload's commands through `cli.main` in this process at --jobs 1."""
    out.mkdir()
    if tracer:
        tracer.install()
    try:
        start = time.perf_counter()
        for label, argv in workload.commands(seed, out, jobs=1):
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = modules["cli"].main(argv)
                except Exception:  # a crash is a finding, not the end of the run
                    code = traceback.format_exc().strip().splitlines()[-1]
            tally.record(code == 0, f"in-process `{label}` returned {code}")
        return time.perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()


def span_stats(spans: list[tuple]) -> dict:
    """Per function: calls, total and self nanoseconds; per layer: calls and self."""
    child = defaultdict(int)
    for _, parent, _, _, start, end, _ in spans:
        if parent is not None:
            child[parent] += end - start
    calls, total, own = defaultdict(int), defaultdict(int), defaultdict(int)
    for span_id, _, layer, name, start, end, _ in spans:
        calls[name] += 1
        calls[f"layer.{layer}"] += 1
        total[name] += end - start
        own[name] += end - start - child[span_id]
        own[f"layer.{layer}"] += end - start - child[span_id]
    return {"calls": calls, "total": total, "own": own}


def mean_us(stats: dict, name: str) -> float:
    calls = stats["calls"][name]
    return stats["total"][name] / calls / 1e3 if calls else 0.0


def is_valid(package, g, pi) -> bool:
    if g.source is None:
        return package.check_dfs_valid(g, pi).valid
    return package.check_bf_valid(g, pi)


def cold_warm_us(package, checker, pairs: list) -> tuple[float, float]:
    """First call on a graph freshly rebuilt by Graph.from_dict, then repeat calls."""
    cold, warm = [], []
    for g, pi in pairs:
        fresh = package.Graph.from_dict(g.to_dict())
        start = time.perf_counter_ns()
        checker(fresh, pi)
        cold.append(time.perf_counter_ns() - start)
        for _ in range(WARM_CALLS):
            start = time.perf_counter_ns()
            checker(fresh, pi)
            warm.append(time.perf_counter_ns() - start)
    return (median(cold) / 1e3, median(warm) / 1e3) if pairs else (0.0, 0.0)


def quality_metrics(package, tracer: Tracer, tally: Tally) -> dict[str, float]:
    """Sampler uniqueness/validity, reference-output checks and checker probes."""
    values: dict[str, float] = {}
    draws = tracer.captures["extract"]
    for method in SAMPLER_FUNCTIONS:
        mine = [(args[2], pi) for args, pi in draws if args[0] == method]
        batches = [batch for args, batch in tracer.captures["draw_samples"] if args[0] == method]
        sizes = sum(len(batch) for batch in batches)
        values[f"samplers.{method}.unique_frac"] = (
            sum(len(set(batch)) for batch in batches) / sizes if sizes else 0.0
        )
        values[f"samplers.{method}.valid_frac"] = (
            sum(is_valid(package, g, pi) for g, pi in mine) / len(mine) if mine else 0.0
        )

    # One candidate per graph, first PROBE_GRAPHS graphs, for the probes below.
    firsts: dict[int, tuple] = {}
    for g, pi in ((args[2], pi) for args, pi in draws):
        if len(firsts) >= PROBE_GRAPHS:
            break
        firsts.setdefault(id(g), (g, pi))
    bf = [pair for pair in firsts.values() if pair[0].source is not None]
    dfs = [pair for pair in firsts.values() if pair[0].source is None]
    # Exact DFS forests of the probe graphs; about 70 ms per graph at n=8.
    exact_sets = {id(g): package.enumerate_dfs_trees(g) for g, _ in dfs}

    # Every randomized reference output must pass its own checker, and the
    # exhaustive enumeration where it is affordable.
    for args, pi in tracer.captures["randomized_bellman_ford"] + tracer.captures["randomized_dfs"]:
        g = args[0]
        tally.record(is_valid(package, g, pi), f"checker rejects reference output {pi}")
        if g.source is not None and g.n <= package.algorithms.ENUMERATION_LIMIT:
            if id(g) not in exact_sets:
                exact_sets[id(g)] = package.enumerate_shortest_path_trees(g)
        if id(g) in exact_sets:
            tally.record(pi in exact_sets[id(g)], f"enumeration does not contain reference output {pi}")
    values["validity.check_bf_valid.cold_us"], values["validity.check_bf_valid.warm_us"] = (
        cold_warm_us(package, package.check_bf_valid, bf)
    )
    values["validity.check_dfs_valid.cold_us"], values["validity.check_dfs_valid.warm_us"] = (
        cold_warm_us(package, package.check_dfs_valid, dfs)
    )
    cold = []
    for g, _ in bf:
        fresh = package.Graph.from_dict(g.to_dict())
        start = time.perf_counter_ns()
        package.bellman_ford_costs(fresh)
        cold.append(time.perf_counter_ns() - start)
    values["algorithms.bellman_ford_costs.cold_us"] = median(cold) / 1e3

    # Share of check_dfs_valid acceptances that no DFS run can produce.
    accepted = impostors = 0
    probe_ids = {id(g) for g, _ in dfs}
    for g, pi in ((args[2], pi) for args, pi in draws):
        if id(g) in probe_ids and package.check_dfs_valid(g, pi).valid:
            accepted += 1
            impostors += pi not in exact_sets[id(g)]
    values["validity.dfs_accepted"] = accepted
    values["validity.dfs_impostors"] = impostors
    values["validity.dfs_impostor_frac"] = impostors / accepted if accepted else 0.0
    return values


def parallel_probe(workload: Chain, seed: int, scratch: Path, tally: Tally) -> dict[str, float]:
    """dist and sample in fresh processes at --jobs 1 and at the workload's --jobs."""
    runs = {}
    for jobs in (1, workload.jobs):
        out = scratch / f"parallel-jobs{jobs}"
        out.mkdir()
        if jobs == 1:
            gen_label, gen_argv = workload.commands(seed, out, jobs)[0]
            record_exit(tally, run_cli(gen_label, gen_argv, scratch))
        else:
            (out / "graphs.json").write_bytes((scratch / "parallel-jobs1" / "graphs.json").read_bytes())
        for label, argv in workload.commands(seed, out, jobs)[1:3]:
            outcome = run_cli(f"{label} --jobs {jobs}", argv, scratch)
            record_exit(tally, outcome)
            runs[label, jobs] = outcome
    for name in ("dists.json", "solutions.json"):
        tally.record(
            digest(scratch / "parallel-jobs1" / name) == digest(out / name),
            f"{workload.name}: {name} differs between --jobs 1 and --jobs {workload.jobs}",
        )
    values = {}
    for label in ("dist", "sample"):
        serial, parallel = runs[label, 1], runs[label, workload.jobs]
        values[f"parallel.{label}.speedup"] = serial.wall_s / parallel.wall_s
        values[f"parallel.{label}.extra_cpu_s"] = parallel.cpu_s - serial.cpu_s
    return values


def run_traced(workload, seed: int, seconds: int, scratch: Path, tally: Tally, info: dict) -> dict[str, float]:
    import treesample as package

    modules = load_modules()
    ratios = []
    first: tuple | None = None
    start = time.perf_counter()
    # At least two pairs, in alternating order, so the first replay's warm-up
    # is charged once to each side.
    while len(ratios) < 2 or time.perf_counter() - start < seconds / 2:
        pair = len(ratios)
        tracer = Tracer(modules, package.Graph)
        traced_dir, plain_dir = scratch / f"traced{pair}", scratch / f"plain{pair}"
        if pair % 2:
            traced = replay(workload, seed, traced_dir, modules, tally, tracer)
        plain = replay(workload, seed, plain_dir, modules, tally, None)
        if not pair % 2:
            traced = replay(workload, seed, traced_dir, modules, tally, tracer)
        ratios.append(traced / plain)
        if first is None:
            first = tracer, traced_dir, traced
            workload.check(traced_dir, tally)
        for out in (plain_dir, traced_dir) if pair else (plain_dir,):
            for name in workload.data_files:
                tally.record(
                    digest(out / name) == digest(first[1] / name),
                    f"{workload.name}: in-process {name} differs between replays of seed {seed}",
                )
    tracer, out, traced_wall = first
    stats = span_stats(tracer.spans)
    calls, own, total = stats["calls"], stats["own"], stats["total"]

    values: dict[str, float] = {
        "trace.overhead_frac": median(ratios) - 1.0,
        "trace.spans": len(tracer.spans),
        "algorithms.runs": calls["randomized_bellman_ford"] + calls["randomized_dfs"],
        "algorithms.randomized_bellman_ford.us": mean_us(stats, "randomized_bellman_ford"),
        "algorithms.randomized_dfs.us": mean_us(stats, "randomized_dfs"),
        "graphs.generate_graph.ms": mean_us(stats, "generate_graph") / 1e3,
        "graphs.generate_graph.calls": calls["generate_graph"],
        "graphs.json_load_s": total["graphs_from_json"] / 1e9,
        "seeding.derive_seed.us": mean_us(stats, "derive_seed"),
        "seeding.derive_seed.calls": calls["derive_seed"],
        "distributions.build_empirical.ms": mean_us(stats, "build_empirical") / 1e3,
        "distributions.build_empirical.self_share": (
            own["build_empirical"] / total["build_empirical"] if total["build_empirical"] else 0.0
        ),
        "evaluation.diversity_table.s": total["diversity_table"] / 1e9,
        "evaluation.accuracy_table.s": total["accuracy_table"] / 1e9,
        "validity.check_bf_valid.calls": calls["check_bf_valid"],
        "validity.check_dfs_valid.calls": calls["check_dfs_valid"],
    }
    tables = total["diversity_table"] + total["accuracy_table"]
    values["evaluation.overhead_share"] = own["layer.evaluation"] / tables if tables else 0.0
    for command in ("gen", "dist", "sample", "check"):
        values[f"cli.{command}.s"] = total[f"cmd_{command}"] / 1e9
    for method, function in SAMPLER_FUNCTIONS.items():
        values[f"samplers.{method}.us_per_draw"] = mean_us(stats, function)
        values[f"samplers.{method}.draws"] = calls[function]
    for layer in LAYERS:
        values[f"layer.{layer}.calls"] = calls[f"layer.{layer}"]
        values[f"layer.{layer}.self_ms"] = own[f"layer.{layer}"] / 1e6

    graphs = {id(args[0]): args[0] for args, _ in tracer.captures["build_empirical"]}
    arcs = [len(g.to_dict()["edges"]) * (1 if g.directed else 2) for g in graphs.values()]
    values["graphs.arcs_per_graph"] = sum(arcs) / len(arcs) if arcs else 0.0
    graphs_file = out / "graphs.json"
    values["graphs.json_bytes"] = graphs_file.stat().st_size if graphs_file.exists() else 0
    values["cli.output_bytes"] = sum(
        p.stat().st_size for p in out.iterdir() if not p.name.endswith(".manifest.json")
    )
    # Computed, not measured: what --jobs > 1 would pickle per work item.
    items = tracer.captures["build_empirical"]
    values["parallel.item_bytes.computed"] = (
        sum(len(pickle.dumps(args[0])) + len(pickle.dumps(dist)) for args, dist in items) / len(items)
        if items else 0.0
    )

    values.update(quality_metrics(package, tracer, tally))
    if isinstance(workload, Chain):
        values.update(parallel_probe(workload, seed, scratch, tally))
    else:
        values.update({
            "parallel.dist.speedup": 0.0, "parallel.dist.extra_cpu_s": 0.0,
            "parallel.sample.speedup": 0.0, "parallel.sample.extra_cpu_s": 0.0,
        })

    spans_path = WORK / "spans" / f"{workload.name}-seed{seed}.json"
    spans_path.parent.mkdir(exist_ok=True)
    columns = ["id", "parent", "layer", "name", "start_ns", "end_ns", "instance"]
    spans_path.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "provenance": info,
        "traced_wall_s": traced_wall, "columns": columns, "spans": tracer.spans,
    }) + "\n")
    print(f"{len(ratios)} untraced/traced replay pairs; spans in {spans_path}")
    return values
