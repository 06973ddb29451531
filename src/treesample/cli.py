"""Command-line pipeline: gen -> dist -> sample -> check, plus studies.

Each command writes its data file and returns a summary line. `gen`, `dist` and
`sample` hold one entry at a time: `gen` writes each graph as it is generated,
and `dist` and `sample` pipe a lazy stream of input entries through
`parallel_map` into `write_entries`. A work item is an entry index and its file
entries; the item function, bound once to the checked settings, builds the
objects and the entry's stream, so a `--jobs` parent only reads, schedules and
writes. Only numpy-free layers load with this module: a command imports the
engine module it runs, and numpy with it, before `parallel_map` forks; `gen`
loads numpy at its first draw, `check`, `--version` and `--help` never. Every
path flag is resolved by `_path` while the arguments are parsed. `main` alone
writes the .manifest.json beside every output file (the command, the resolved
configuration, the seed, the tool, numpy (null if unloaded) and Python versions
and a timestamp) and prints the summary. Data files never embed timestamps, so
reruns with the same seed and numpy are byte-identical for any --jobs value.

Exit codes: 0 success, 2 usage, 3 validation, 4 I/O.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from datetime import datetime, timezone
from enum import Enum
from functools import partial
from itertools import chain, zip_longest
from pathlib import Path

from . import __version__
from .config import METHODS, EvalConfig, RerunStudyConfig, SamplerConfig, TiebreakMode
from .graphs import (
    Graph,
    GraphSpec,
    Task,
    generate_graph,
    graphs_from_json,
    graphs_to_json,
    read_entries,
    write_entries,
)
from .parallel import parallel_map
from .seeding import check_seed, derive_rng, derive_seed, positive_int
from .validity import verdict

OUTPUT_DIR_ENV = "TREESAMPLE_OUT"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4

DEFAULT_METHODS = {
    Task.BF: ("argmax", "beam", "greedy", "random"),
    Task.DFS: ("argmax", "upwards", "alt-upwards", "random"),
}
# greedy and beam need a BF source, so the DFS table1 keeps the upward walks.
DIVERSITY_METHODS = {
    Task.BF: ("greedy", "beam", "upwards", "alt-upwards"),
    Task.DFS: ("upwards", "alt-upwards"),
}
# `study <which>` for the sampler studies: the evaluation function (looked up
# by name when called, so a wrapper set on the module sees the call), default
# methods per task, and the flags passed on to the function as keywords.
STUDIES = {
    "coverage": ("coverage_study", DEFAULT_METHODS, ()),
    "edge-reuse": ("edge_reuse_evolution", DEFAULT_METHODS, ("denominator",)),
    "table1": ("diversity_table", DIVERSITY_METHODS, ()),
    "table2": ("accuracy_table", DEFAULT_METHODS, ()),
}


def _path(raw: str) -> str:
    """A path flag's value: relative paths lie under $TREESAMPLE_OUT when it
    is set. Parsing applies it, so the manifest records the resolved path."""
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not Path(raw).is_absolute():
        return str(Path(base) / raw)
    return raw


def _write_manifest(out_path: Path, args: argparse.Namespace) -> None:
    """Write the provenance record that accompanies every output file."""
    config = {
        k: v.value if isinstance(v, Enum) else v  # no flag holds a list of Enums
        for k, v in sorted(vars(args).items())
        if k != "command" and not callable(v)
    }
    manifest = {
        "command": f"{args.command} {args.which}" if "which" in args else args.command,
        "config": config,
        "seed": getattr(args, "seed", None),
        "tool_version": __version__,
        "numpy_version": getattr(sys.modules.get("numpy"), "__version__", None),
        "python_version": platform.python_version(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    manifest_path = out_path.with_name(out_path.name + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=1) + "\n")


def _int_list(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {raw!r}")


def _method_list(raw: str) -> tuple[str, ...]:
    methods = tuple(part.strip() for part in raw.split(",") if part.strip())
    for m in methods:
        if m not in METHODS:
            raise argparse.ArgumentTypeError(
                f"unknown method {m!r}; choose from {', '.join(METHODS)}"
            )
    return methods


def _with_task(default: Task) -> argparse.ArgumentParser:
    """Parent parser holding --task.

    One parser per default: parents share their Action objects with every
    child, so set_defaults on one subcommand would change the others too.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--task", type=Task, metavar="{dfs,bf}", default=default)
    return parent


def _sampler_config(args: argparse.Namespace) -> SamplerConfig:
    return SamplerConfig(
        beam_width=args.beam_width,
        beam_branch=args.beam_branch,
        greedy_parent_samples=args.greedy_samples,
        greedy_max_resamples=args.greedy_resamples,
    )


# ---------------------------------------------------------------- commands


def cmd_gen(args: argparse.Namespace, out: Path) -> str:
    positive_int(args.count, "--count must be at least 1")
    spec = GraphSpec(args.n, args.p, args.task, args.weights, not args.no_normalize)
    graphs = (generate_graph(spec, derive_seed(args.seed, "graph", i)) for i in range(args.count))
    return f"wrote {graphs_to_json(graphs, out)} graphs to {out}"


def _dist_item(build_empirical, seed, task, runs, mode, item):
    """One graph entry's distribution entry, drawn from the stream of its index."""
    index, entry = item
    g = Graph.from_dict(entry)
    return build_empirical(g, task, runs, derive_seed(seed, "dist", index), mode).to_dict()


def cmd_dist(args: argparse.Namespace, out: Path) -> str:
    from .distributions import build_empirical
    check_seed(args.seed)
    positive_int(args.runs, "--runs must be at least 1")
    work = partial(_dist_item, build_empirical, args.seed, args.task, args.runs, args.mode)
    items = enumerate(read_entries(args.input, "graphs"))
    count = write_entries(out, parallel_map(work, items, args.jobs))
    return f"wrote {count} distributions to {out}"


def _sample_item(draw_samples, read_distribution, seed, task, method, cfg, k, item):
    """Build an entry pair's graph and distribution, then draw and judge its solutions."""
    index, g, dist = item
    g, dist = Graph.from_dict(g), read_distribution(dist)
    if g.n != dist.n:
        raise ValueError(f"entry {index}: graph has n={g.n} but distribution has n={dist.n}")
    rng = derive_rng(derive_seed(seed, "sample", method, index))
    solutions = draw_samples(method, dist, g, cfg, k, rng)
    verdicts = [verdict(g, task, s) for s in solutions]
    entry: dict = {"solutions": [list(s) for s in solutions]}
    entry["valid"] = [ok for ok, _ in verdicts]
    if task is Task.DFS:
        entry["failed_tags"] = [tags for _, tags in verdicts]
    entry["graph_index"] = index
    return entry


def _pairs(args: argparse.Namespace):
    """(index, graph entry, distribution entry) for each entry of the two files,
    read in step and left unbuilt; a count mismatch is found when one file ends."""
    graphs = read_entries(args.input, "graphs")
    dists = read_entries(args.dists, "distributions")
    end = object()  # not None: a null entry is a malformed entry
    for i, (g, d) in enumerate(zip_longest(graphs, dists, fillvalue=end)):
        if g is end or d is end:
            longer = i + 1 + sum(1 for _ in chain(graphs, dists))
            graph_count, dist_count = (longer, i) if d is end else (i, longer)
            raise ValueError(
                f"graph file has {graph_count} entries but distribution file has {dist_count}"
            )
        yield i, g, d


def cmd_sample(args: argparse.Namespace, out: Path) -> str:
    from .distributions import ParentDistribution
    from .samplers import draw_samples
    check_seed(args.seed)
    positive_int(args.k, "-k must be at least 1")
    work = partial(_sample_item, draw_samples, ParentDistribution.from_dict, args.seed,
                   args.task, args.method, _sampler_config(args), args.k)
    valid = 0

    def tallied(entries):
        nonlocal valid
        for entry in entries:
            valid += sum(entry["valid"])
            yield entry

    header = json.dumps({"task": args.task.value, "method": args.method, "k": args.k})
    entries = tallied(parallel_map(work, _pairs(args), args.jobs))
    # The header object, left open for its entries.
    count = write_entries(out, entries, header[:-1] + ', "entries": ', "}")
    return f"wrote {count} x {args.k} solutions to {out} ({valid} valid)"


def cmd_check(args: argparse.Namespace, out: Path | None) -> str:
    # Every key of the solutions file is checked for its JSON type, and a bool
    # is not an int: the task is one of Task's values, the method one of
    # METHODS, k a positive int, each entry an object with k solutions lists
    # and a graph_index in range. A solution's entries are left to the checkers.
    graphs = graphs_from_json(args.input)
    payload = json.loads(Path(args.solutions).read_text())
    if not isinstance(payload, dict):
        raise ValueError("solutions file must hold a JSON object")
    task, method, k = Task(payload["task"]), payload["method"], payload["k"]
    if method not in METHODS:
        raise ValueError(f"solutions file 'method' must be one of {METHODS}, got {method!r}")
    positive_int(k, "solutions file 'k' must be a positive integer")
    if not isinstance(payload["entries"], list):
        raise ValueError("solutions file 'entries' must be a list")
    lines = []
    for entry in payload["entries"]:
        if not isinstance(entry, dict) or not isinstance(entry["solutions"], list):
            raise ValueError(f"entry {entry!r} is not an object with a 'solutions' list")
        if len(entry["solutions"]) != k:
            raise ValueError(f"entry has {len(entry['solutions'])} solutions but k is {k}")
        gi = entry["graph_index"]
        if type(gi) is not int or not 0 <= gi < len(graphs):
            raise ValueError(f"graph_index {gi!r} out of range for {len(graphs)} graphs")
        for solution in entry["solutions"]:
            if not isinstance(solution, list):
                raise ValueError(f"solution {len(lines)} is not a list: {solution!r}")
            ok, tags = verdict(graphs[gi], task, tuple(solution))
            lines.append(f"{len(lines)},{str(ok).lower()},{';'.join(tags)}")
    text = "".join(line + "\n" for line in lines)
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)
    return f"checked {len(lines)} solutions; verdicts in {out}"


def cmd_study_reruns(args: argparse.Namespace, out: Path) -> str:
    from .evaluation import rerun_divergence_study
    cfg = RerunStudyConfig(
        sizes=args.sizes,
        graphs_per_size=args.graphs,
        rerun_counts=args.counts,
        task=args.task,
        edge_probability=args.p,
        seed=args.seed,
    )
    table = rerun_divergence_study(cfg, jobs=args.jobs)
    table.write_csv(out)
    return f"wrote {len(table.rows)} rows to {out}"


def cmd_study(args: argparse.Namespace, out: Path) -> str:
    from . import evaluation
    name, default_methods, options = STUDIES[args.which]
    cfg = EvalConfig(
        graph_spec=GraphSpec(n=args.n, edge_probability=args.p, task=args.task),
        sampler=_sampler_config(args),
        graph_count=args.graphs,
        samples_per_graph=args.samples,
        runs=args.runs,
        dist_runs=args.dist_runs,
        perturb_alpha=args.alpha,
        seed=args.seed,
    )
    methods = list(default_methods[args.task] if args.methods is None else args.methods)
    keywords = {option: getattr(args, option) for option in options}
    table = getattr(evaluation, name)(cfg, methods, jobs=args.jobs, **keywords)
    table.write_csv(out)
    return f"wrote {len(table.rows)} rows to {out}"


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treesample",
        description="Parent distributions from randomized graph algorithms and "
        "multi-solution extraction.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by several subcommands, declared once and passed as parents.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, required=True)
    seeded.add_argument("-o", "--output", type=_path, required=True)
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=int, default=1)
    graph_input = argparse.ArgumentParser(add_help=False)
    graph_input.add_argument("-i", "--input", type=_path, required=True, help="graph JSON file")
    task = _with_task(Task.BF)
    density = argparse.ArgumentParser(add_help=False)
    density.add_argument(
        "--p", type=float, default=None, help="edge probability (default: per-task density)"
    )
    sampler = argparse.ArgumentParser(add_help=False)
    sampler.add_argument("--beam-width", type=int, default=SamplerConfig.beam_width)
    sampler.add_argument("--beam-branch", type=int, default=SamplerConfig.beam_branch)
    sampler.add_argument("--greedy-samples", type=int, default=SamplerConfig.greedy_parent_samples)
    sampler.add_argument("--greedy-resamples", type=int, default=SamplerConfig.greedy_max_resamples)
    eval_flags = argparse.ArgumentParser(
        add_help=False, parents=[task, density, sampler, seeded, jobs]
    )
    eval_flags.add_argument("-n", type=int, default=5, help="graph size")
    eval_flags.add_argument(
        "--graphs", type=int, default=EvalConfig.graph_count, help="graphs per run"
    )
    eval_flags.add_argument(
        "--dist-runs", type=int, default=EvalConfig.dist_runs, help="reruns per distribution"
    )
    eval_flags.add_argument(
        "--alpha", type=float, default=EvalConfig.perturb_alpha, help="row perturbation strength"
    )
    eval_flags.add_argument("--methods", type=_method_list, default=None)
    eval_flags.set_defaults(func=cmd_study)
    # The sampler studies: curves average one run's graphs, tables several runs.
    curve = argparse.ArgumentParser(add_help=False, parents=[eval_flags])
    curve.add_argument("--samples", type=int, default=25)
    curve.set_defaults(runs=1)
    table = argparse.ArgumentParser(add_help=False, parents=[eval_flags])
    table.add_argument("--runs", type=int, default=EvalConfig.runs, help="evaluation runs")
    table.add_argument(
        "--samples", type=int, default=EvalConfig.samples_per_graph,
        help="batch size; table2 draws one",
    )

    p = sub.add_parser("gen", help="generate random graphs", parents=[task, density, seeded])
    p.add_argument("-n", type=int, required=True, help="graph size")
    p.add_argument("--count", type=int, default=1, help="number of graphs")
    p.add_argument(
        "--weights", type=_int_list, default=GraphSpec.weight_set, help="weight set, e.g. 1,2,3"
    )
    p.add_argument("--no-normalize", action="store_true", help="keep raw integer weights")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser(
        "dist",
        help="build empirical parent distributions",
        parents=[task, seeded, jobs, graph_input],
    )
    p.add_argument("--runs", type=int, default=20)
    p.add_argument(
        "--mode", type=TiebreakMode, metavar="{per-run-global,per-node}",
        default=TiebreakMode.PER_RUN_GLOBAL, help="DFS tiebreak mode; bf ignores it",
    )
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser(
        "sample",
        help="extract candidate solutions",
        parents=[task, sampler, seeded, jobs, graph_input],
    )
    p.add_argument("-d", "--dists", type=_path, required=True, help="distribution JSON file")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("-k", type=int, default=5, help="samples per graph")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("check", help="validate solutions against graphs", parents=[graph_input])
    p.add_argument("-s", "--solutions", type=_path, required=True, help="solutions JSON file")
    p.add_argument("-o", "--output", type=_path, help="verdict CSV; stdout when omitted")
    p.set_defaults(func=cmd_check)

    study = sub.add_parser("study", help="run an evaluation study")
    which = study.add_subparsers(dest="which", required=True)

    p = which.add_parser(
        "reruns",
        help="distribution stability vs rerun budget",
        parents=[_with_task(Task.DFS), density, seeded, jobs],
    )
    p.add_argument("--sizes", type=_int_list, default=(5, 10, 16, 32))
    p.add_argument("--graphs", type=int, default=20, help="graphs per size")
    p.add_argument(
        "--counts", type=_int_list, default=RerunStudyConfig.rerun_counts, help="rerun budgets"
    )
    p.set_defaults(func=cmd_study_reruns)

    which.add_parser("coverage", help="cumulative unique valid solutions", parents=[curve])
    p = which.add_parser(
        "edge-reuse", help="pairwise edge reuse as samples accumulate", parents=[curve]
    )
    p.add_argument("--denominator", choices=("union", "first"), default="union")
    which.add_parser("table1", help="uniques/valids per sample batch", parents=[table])
    which.add_parser("table2", help="single-draw validity rates", parents=[table])

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        # Only check may omit -o; it then prints its verdicts instead.
        out = None if args.output is None else Path(args.output)
        summary = args.func(args, out)
        if out is not None:
            _write_manifest(out, args)
            print(summary)
    # Decode errors are ValueErrors, so this arm comes first; only json.loads recurses.
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KeyError as exc:
        print(f"error: missing field {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
