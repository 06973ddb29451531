"""Command-line pipeline: gen -> dist -> sample -> check, studies, manifests,
output redirection, exit codes, and job-count reproducibility."""

import contextlib
import copy
import importlib
import io
import itertools
import json
import os
import platform
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesample import (
    METHODS,
    Graph,
    ParentDistribution,
    __version__,
    enumerate_shortest_path_trees,
    graphs_from_json,
    seeding,
)
from treesample.cli import main


def run(*argv: str) -> int:
    return main(list(argv))


def read_json(path):
    return json.loads(path.read_text())


def study_manifest(out):
    """The command and the resolved run and sample counts a study recorded."""
    manifest = read_json(out.with_name(out.name + ".manifest.json"))
    return manifest["command"], manifest["config"]["runs"], manifest["config"]["samples"]


def test_full_pipeline(tmp_path, capsys):
    graphs = tmp_path / "graphs.json"
    dists = tmp_path / "dists.json"
    sols = tmp_path / "sols.json"
    verdicts = tmp_path / "verdicts.csv"

    assert run("gen", "-n", "5", "--count", "3", "--task", "bf", "--seed", "1",
               "-o", str(graphs)) == 0
    assert run("dist", "-i", str(graphs), "--task", "bf", "--runs", "10", "--seed", "2",
               "-o", str(dists)) == 0
    assert run("sample", "-i", str(graphs), "-d", str(dists), "--task", "bf",
               "--method", "beam", "-k", "4", "--seed", "3", "-o", str(sols)) == 0
    assert run("check", "-i", str(graphs), "-s", str(sols), "-o", str(verdicts)) == 0

    payload = read_json(sols)
    assert payload["task"] == "bf"
    assert payload["method"] == "beam"
    assert payload["k"] == 4
    assert len(payload["entries"]) == 3
    for i, entry in enumerate(payload["entries"]):
        assert entry["graph_index"] == i
        assert len(entry["solutions"]) == 4
        assert len(entry["valid"]) == 4
        assert all(len(s) == 5 for s in entry["solutions"])

    lines = verdicts.read_text().splitlines()
    assert len(lines) == 12
    first = lines[0].split(",")
    assert first[0] == "0" and first[1] in ("true", "false")

    out = capsys.readouterr().out
    assert "wrote 3 graphs" in out
    assert "checked 12 solutions" in out


def test_dfs_pipeline_reports_tags(tmp_path, capsys):
    graphs = tmp_path / "g.json"
    dists = tmp_path / "d.json"
    sols = tmp_path / "s.json"
    assert run("gen", "-n", "4", "--count", "2", "--task", "dfs", "--seed", "5",
               "-o", str(graphs)) == 0
    assert run("dist", "-i", str(graphs), "--task", "dfs", "--mode", "per-node",
               "--seed", "6", "-o", str(dists)) == 0
    assert run("sample", "-i", str(graphs), "-d", str(dists), "--task", "dfs",
               "--method", "random", "-k", "3", "--seed", "7", "-o", str(sols)) == 0
    payload = read_json(sols)
    assert all("failed_tags" in entry for entry in payload["entries"])
    capsys.readouterr()
    assert run("check", "-i", str(graphs), "-s", str(sols)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6  # verdicts go to stdout when -o is omitted


def test_manifest_sidecar(tmp_path):
    graphs = tmp_path / "graphs.json"
    assert run("gen", "-n", "4", "--task", "bf", "--seed", "9", "-o", str(graphs)) == 0
    manifest = read_json(tmp_path / "graphs.json.manifest.json")
    assert manifest["command"] == "gen"
    assert manifest["seed"] == 9
    assert manifest["config"]["n"] == 4
    assert manifest["config"]["task"] == "bf"
    assert manifest["tool_version"]
    assert "timestamp" in manifest
    # The data bytes depend on numpy's Generator algorithms.
    assert manifest["numpy_version"] == np.__version__
    assert manifest["python_version"] == platform.python_version()


def test_every_manifest_records_its_command_seed_and_config(tmp_path, capsys):
    graphs, dists, sols = (str(tmp_path / name) for name in ("g.json", "d.json", "s.json"))
    verdicts, reruns = str(tmp_path / "v.csv"), str(tmp_path / "r.csv")
    pipeline = {
        graphs: (("gen", "-n", "4", "--count", "2", "--task", "bf", "--seed", "9", "-o", graphs),
                 "gen", 9, "count n no_normalize output p seed task weights"),
        dists: (("dist", "-i", graphs, "--task", "bf", "--runs", "5", "--seed", "10", "-o", dists),
                "dist", 10, "input jobs mode output runs seed task"),
        sols: (("sample", "-i", graphs, "-d", dists, "--task", "bf", "--method", "beam", "-k", "3",
                "--seed", "11", "-o", sols),
               "sample", 11, "beam_branch beam_width dists greedy_resamples greedy_samples input "
               "jobs k method output seed task"),
        verdicts: (("check", "-i", graphs, "-s", sols, "-o", verdicts),
                   "check", None, "input output solutions"),
        reruns: (("study", "reruns", "--sizes", "4", "--graphs", "1", "--counts", "5,10",
                  "--seed", "12", "-o", reruns),
                 "study reruns", 12, "counts graphs jobs output p seed sizes task which"),
    }
    for out, (argv, command, seed, keys) in pipeline.items():
        assert run(*argv) == 0
        manifest = read_json(Path(out + ".manifest.json"))
        assert manifest["command"] == command
        assert manifest["seed"] == seed
        assert manifest["tool_version"] == __version__
        assert (manifest["numpy_version"], manifest["python_version"]) == (
            np.__version__, platform.python_version()
        )
        assert sorted(manifest) == [
            "command", "config", "numpy_version", "python_version", "seed", "timestamp", "tool_version"
        ]
        assert sorted(manifest["config"]) == keys.split()
        assert manifest["config"]["output"] == out
    assert capsys.readouterr().out.splitlines() == [
        f"wrote 2 graphs to {graphs}",
        f"wrote 2 distributions to {dists}",
        f"wrote 2 x 3 solutions to {sols} (6 valid)",
        f"checked 6 solutions; verdicts in {verdicts}",
        f"wrote 1 rows to {reruns}",
    ]
    # Without -o, check prints its verdicts and nothing else, and writes no manifest.
    before = sorted(tmp_path.iterdir())
    assert run("check", "-i", graphs, "-s", sols) == 0
    assert sorted(tmp_path.iterdir()) == before
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert lines == Path(verdicts).read_text().splitlines()


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run("gen", "-n", "6", "--count", "4", "--task", "dfs", "--seed", "42",
                   "-o", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_jobs_do_not_change_output_bytes(tmp_path):
    graphs = tmp_path / "graphs.json"
    assert run("gen", "-n", "5", "--count", "6", "--task", "bf", "--seed", "3",
               "-o", str(graphs)) == 0
    outs = []
    for jobs, name in ((1, "d1.json"), (8, "d8.json")):
        out = tmp_path / name
        assert run("dist", "-i", str(graphs), "--task", "bf", "--seed", "4",
                   "--jobs", str(jobs), "-o", str(out)) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    outs = []
    for jobs, name in ((1, "s1.json"), (8, "s8.json")):
        out = tmp_path / name
        assert run("sample", "-i", str(graphs), "-d", str(tmp_path / "d1.json"),
                   "--task", "bf", "--method", "greedy", "--seed", "5",
                   "--jobs", str(jobs), "-o", str(out)) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("count", [0, 1, 2, 37])
def test_a_jobs_2_parent_derives_no_seed_and_writes_the_jobs_1_bytes(tmp_path, monkeypatch, count):
    # A work item carries its entry index and file entry, and its worker
    # builds the objects and derives the streams, so a pool's parent only
    # reads, schedules and writes: no SeedSequence, Graph or ParentDistribution
    # is built in this process. The forked workers inherit the spies and pass,
    # since their pid differs.
    graphs = tmp_path / "graphs.json"
    if count:
        assert run("gen", "-n", "6", "--count", str(count), "--task", "bf", "--seed", "3",
                   "-o", str(graphs)) == 0
    else:
        graphs.write_text("[]")
    test_pid, parent_calls = os.getpid(), []

    def spying(fn):
        def spy(*args):
            if os.getpid() == test_pid:
                parent_calls.append(fn.__qualname__)
            return fn(*args)
        return spy

    monkeypatch.setattr(seeding, "_sequence", spying(seeding._sequence))
    for cls in (Graph, ParentDistribution):
        monkeypatch.setattr(cls, "__post_init__", spying(cls.__post_init__))
    outputs = {}
    for jobs in (1, 2):
        parent_calls.clear()
        dists, sols = tmp_path / f"d{jobs}.json", tmp_path / f"s{jobs}.json"
        assert run("dist", "-i", str(graphs), "--task", "bf", "--seed", "4", "--jobs", str(jobs),
                   "-o", str(dists)) == 0
        assert run("sample", "-i", str(graphs), "-d", str(dists), "--task", "bf",
                   "--method", "greedy", "--seed", "5", "--jobs", str(jobs), "-o", str(sols)) == 0
        outputs[jobs] = dists.read_bytes(), sols.read_bytes()
    # One item, or one CPU, runs in this process.
    if count >= 2 and (os.cpu_count() or 1) >= 2:
        assert parent_calls == []
    assert outputs[1] == outputs[2]


def _only(directory: Path, *names: str) -> None:
    assert sorted(p.name for p in directory.iterdir()) == sorted(names)


@pytest.mark.parametrize("command, flag, value, message", [
    ("dist", "--seed", "-5", "seed keys must be strings or non-negative ints, got -5"),
    ("dist", "--runs", "0", "--runs must be at least 1, got 0"),
    ("sample", "--seed", "-5", "seed keys must be strings or non-negative ints, got -5"),
    ("sample", "-k", "0", "-k must be at least 1, got 0"),
    ("sample", "-k", "-3", "-k must be at least 1, got -3"),
], ids=["dist-seed", "dist-runs", "sample-seed", "sample-k0", "sample-k-3"])
def test_a_bad_setting_is_refused_before_any_entry_is_read(
    tmp_path, capsys, command, flag, value, message
):
    # Files without entries: no work item would read the setting, so the
    # command itself must refuse it and leave neither the file nor its manifest.
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    inputs = ["-i", str(empty)]
    if command == "sample":
        inputs += ["-d", str(empty), "--method", "argmax"]
    seed = [] if flag == "--seed" else ["--seed", "1"]
    out = tmp_path / "out.json"
    assert run(command, *inputs, "--task", "bf", *seed, flag, value, "-o", str(out)) == 3
    assert message in capsys.readouterr().err
    _only(tmp_path, "empty.json")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_failed_command_leaves_no_output_file(tmp_path, capsys, jobs):
    # gen, dist and sample write to a sibling temporary file that replaces
    # -o only once it succeeds: whether the fault shows in the first entry or
    # after the work, neither file is left.
    graphs, dists = tmp_path / "g.json", tmp_path / "d.json"
    entries = [{**GOOD_GRAPH, "source": i % 3} for i in range(5)]
    bad_edge = [*entries, {**GOOD_GRAPH, "edges": [[0, 3, "1"]]}]
    graphs.write_text(json.dumps(bad_edge))
    out = tmp_path / "out.json"
    dist = ("dist", "-i", str(graphs), "--task", "bf", "--seed", "1", "--jobs", jobs,
            "-o", str(out))
    assert run(*dist) == 3
    assert "edge (0,3) has an endpoint outside 0..2" in capsys.readouterr().err
    _only(tmp_path, "g.json")
    graphs.write_text(json.dumps(entries) + "\n[]")
    assert run(*dist) == 4
    assert "Extra data" in capsys.readouterr().err
    _only(tmp_path, "g.json")
    graphs.write_text(json.dumps(entries))
    assert run("dist", "-i", str(graphs), "--task", "bf", "--seed", "1", "-o", str(dists)) == 0
    built = read_json(dists)
    dists.write_text(json.dumps(built[:-1]))
    sample = ("sample", "-i", str(graphs), "-d", str(dists), "--task", "bf", "--method", "beam",
              "--seed", "1", "--jobs", jobs, "-o", str(out))
    assert run(*sample) == 3
    assert "graph file has 5 entries but distribution file has 4" in capsys.readouterr().err
    _only(tmp_path, "g.json", "d.json", "d.json.manifest.json")
    # A leftover entry is only counted, so a malformed one still reads as a
    # count mismatch.
    graphs.write_text(json.dumps(entries[:1]))
    dists.write_text(json.dumps([*built[:2], {"n": 4, "probs": "broken"}]))
    assert run(*sample) == 3
    assert "graph file has 1 entries but distribution file has 3" in capsys.readouterr().err
    _only(tmp_path, "g.json", "d.json", "d.json.manifest.json")


def test_an_output_may_replace_its_input(tmp_path):
    # The input is read to its end before the output replaces it.
    graphs, dists, sols = tmp_path / "g.json", tmp_path / "d.json", tmp_path / "s.json"
    assert run("gen", "-n", "5", "--count", "4", "--task", "bf", "--seed", "1",
               "-o", str(graphs)) == 0
    assert run("dist", "-i", str(graphs), "--task", "bf", "--seed", "2", "-o", str(dists)) == 0
    sample = ("sample", "-i", str(graphs), "-d", str(dists), "--task", "bf", "--method", "beam",
              "--seed", "3")
    assert run(*sample, "-o", str(sols)) == 0
    assert run(*sample, "-o", str(dists)) == 0
    assert dists.read_bytes() == sols.read_bytes()
    expected = tmp_path / "expected.json"
    assert run("dist", "-i", str(graphs), "--task", "bf", "--seed", "2", "-o", str(expected)) == 0
    assert run("dist", "-i", str(graphs), "--task", "bf", "--seed", "2", "-o", str(graphs)) == 0
    assert graphs.read_bytes() == expected.read_bytes()


def test_output_env_var_redirects_relative_paths(tmp_path, monkeypatch):
    # Every relative path flag (-i, -d, -s, -o) lies under $TREESAMPLE_OUT, so
    # a chain of relative names runs end to end, and each manifest records the
    # resolved paths.
    workdir = tmp_path / "out"
    workdir.mkdir()
    monkeypatch.setenv("TREESAMPLE_OUT", str(workdir))
    monkeypatch.chdir(tmp_path)
    chain = (
        ("gen", "-n", "4", "--task", "bf", "--seed", "1", "-o", "graphs.json"),
        ("dist", "-i", "graphs.json", "--task", "bf", "--runs", "5", "--seed", "2",
         "-o", "dists.json"),
        ("sample", "-i", "graphs.json", "-d", "dists.json", "--task", "bf", "--method", "beam",
         "-k", "2", "--seed", "3", "-o", "sols.json"),
        ("check", "-i", "graphs.json", "-s", "sols.json", "-o", "verdicts.csv"),
    )
    for argv in chain:
        assert run(*argv) == 0, argv[0]
        out = workdir / argv[-1]
        assert out.exists()
        config = read_json(out.with_name(out.name + ".manifest.json"))["config"]
        assert config["output"] == str(out)
        for flag in ("input", "dists", "solutions"):
            if flag in config:
                assert Path(config[flag]).parent == workdir
    assert len((workdir / "verdicts.csv").read_text().splitlines()) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    # Absolute paths are left alone.
    absolute = tmp_path / "abs.json"
    assert run("gen", "-n", "4", "--task", "bf", "--seed", "1", "-o", str(absolute)) == 0
    assert absolute.exists()


def test_study_reruns_csv(tmp_path):
    out = tmp_path / "reruns.csv"
    assert run("study", "reruns", "--sizes", "4,5", "--graphs", "2", "--counts", "5,10",
               "--seed", "8", "-o", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "size,pair_lo,pair_hi,mean_kl,std_kl"
    assert len(lines) == 3  # one pair per size
    pooled = tmp_path / "reruns2.csv"
    assert run("study", "reruns", "--sizes", "4,5", "--graphs", "2", "--counts", "5,10",
               "--seed", "8", "--jobs", "2", "-o", str(pooled)) == 0
    assert pooled.read_bytes() == out.read_bytes()


def test_study_table1_and_table2_csv(tmp_path):
    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert run("study", "table1", "--task", "bf", "-n", "4", "--graphs", "2",
               "--methods", "beam,greedy", "--seed", "1", "-o", str(t1)) == 0
    lines = t1.read_text().splitlines()
    assert lines[0] == "method,n,dist,uniques_mean,uniques_std,valids_mean,valids_std"
    assert [line.split(",")[0] for line in lines[1:]] == ["beam", "greedy"]
    assert study_manifest(t1) == ("study table1", 5, 5)  # the defaults
    # The DFS default leaves out greedy and beam, which need a BF source.
    assert run("study", "table1", "--task", "dfs", "-n", "4", "--graphs", "2", "--runs", "1",
               "--samples", "2", "--seed", "1", "-o", str(t1)) == 0
    assert [line.split(",")[0] for line in t1.read_text().splitlines()[1:]] == [
        "upwards", "alt-upwards"
    ]
    assert run("study", "table2", "--task", "dfs", "-n", "4", "--graphs", "2", "--runs", "2",
               "--samples", "3", "--seed", "1", "-o", str(t2)) == 0
    lines = t2.read_text().splitlines()
    assert lines[0] == "method,n,dist,acc_mean,acc_std"
    # Default method set for the depth-first task.
    assert [line.split(",")[0] for line in lines[1:]] == [
        "argmax", "upwards", "alt-upwards", "random"
    ]
    assert study_manifest(t2) == ("study table2", 2, 3)


def test_study_coverage_and_edge_reuse_csv(tmp_path):
    cov, reuse = tmp_path / "cov.csv", tmp_path / "reuse.csv"
    assert run("study", "coverage", "--task", "bf", "-n", "4", "--graphs", "2",
               "--methods", "argmax", "--seed", "2", "-o", str(cov)) == 0
    lines = cov.read_text().splitlines()
    assert lines[0] == "method,n,dist,sample_index,mean_unique_valid"
    assert len(lines) == 51  # (argmax + reference) x 25 sample indexes, the default
    # The curve studies average one run's graphs.
    assert study_manifest(cov) == ("study coverage", 1, 25)
    assert run("study", "edge-reuse", "--task", "bf", "-n", "4", "--graphs", "2",
               "--samples", "3", "--methods", "argmax", "--seed", "2",
               "--denominator", "first", "-o", str(reuse)) == 0
    lines = reuse.read_text().splitlines()
    assert lines[0] == "method,n,dist,sample_index,mean_edge_reuse"
    assert len(lines) == 5  # (argmax + reference) x 2 prefix lengths
    assert study_manifest(reuse) == ("study edge-reuse", 1, 3)


def test_usage_errors_exit_2(capsys):
    assert run() == 2  # no subcommand
    assert run("gen", "-n", "4", "-o", "x.json") == 2  # --seed is required
    assert run("gen", "-n", "4", "--task", "nope", "--seed", "1", "-o", "x.json") == 2
    assert run("sample", "-i", "a", "-d", "b", "--method", "fancy", "--seed", "1",
               "-o", "c") == 2
    # The curve studies always average one run's graphs; they take no --runs.
    assert run("study", "coverage", "--runs", "2", "--seed", "1", "-o", "x.csv") == 2
    assert run("study", "table1", "--methods", "bogus", "--seed", "1", "-o", "x.csv") == 2
    assert run("study", "reruns", "--sizes", "a", "--seed", "1", "-o", "x.csv") == 2
    capsys.readouterr()


def test_flag_defaults_are_the_config_defaults():
    from treesample import EvalConfig, GraphSpec, RerunStudyConfig, SamplerConfig
    from treesample.cli import _sampler_config, build_parser

    parse = build_parser().parse_args
    sample = parse(["sample", "-i", "g", "-d", "d", "--method", "beam", "--seed", "1", "-o", "s"])
    assert _sampler_config(sample) == SamplerConfig()
    table = parse(["study", "table1", "--seed", "1", "-o", "t.csv"])
    assert _sampler_config(table) == SamplerConfig()
    defaults = EvalConfig(GraphSpec(n=5))
    assert (table.graphs, table.dist_runs, table.alpha, table.runs, table.samples) == (
        defaults.graph_count, defaults.dist_runs, defaults.perturb_alpha,
        defaults.runs, defaults.samples_per_graph,
    )
    gen = parse(["gen", "-n", "4", "--seed", "1", "-o", "g"])
    assert gen.weights == GraphSpec(n=4).weight_set
    reruns = parse(["study", "reruns", "--seed", "1", "-o", "r.csv"])
    assert reruns.counts == RerunStudyConfig().rerun_counts


def test_validation_errors_exit_3(tmp_path, capsys):
    g3 = tmp_path / "g3.json"
    g4 = tmp_path / "g4.json"
    d3 = tmp_path / "d3.json"
    assert run("gen", "-n", "3", "--count", "2", "--task", "bf", "--seed", "1", "-o", str(g3)) == 0
    assert run("gen", "-n", "4", "--count", "2", "--task", "bf", "--seed", "1", "-o", str(g4)) == 0
    assert run("dist", "-i", str(g3), "--task", "bf", "--seed", "2", "-o", str(d3)) == 0
    # Distributions built for the size-3 graphs cannot drive size-4 sampling.
    code = run("sample", "-i", str(g4), "-d", str(d3), "--task", "bf", "--method", "argmax",
               "--seed", "3", "-o", str(tmp_path / "s.json"))
    assert code == 3
    assert "error:" in capsys.readouterr().err
    for n in ("0", str(10**20)):
        assert run("gen", "-n", n, "--task", "bf", "--seed", "1",
                   "-o", str(tmp_path / "zero.json")) == 3
    assert not (tmp_path / "zero.json").exists()
    for count in ("0", "-3"):
        assert run("gen", "-n", "3", "--count", count, "--task", "bf", "--seed", "1",
                   "-o", str(tmp_path / "none.json")) == 3
    assert not (tmp_path / "none.json").exists()
    # A perturbation strength outside [0, 1] is an error, never an unperturbed
    # run labelled as perturbed.
    for alpha in ("-0.5", "nan"):
        assert run("study", "table2", "--task", "bf", "-n", "5", "--graphs", "2", "--runs", "1",
                   "--alpha", alpha, "--seed", "1", "-o", str(tmp_path / "alpha.csv")) == 3
    assert not (tmp_path / "alpha.csv").exists()
    assert run("study", "reruns", "--sizes", "4", "--graphs", "1", "--counts", "5,5,10",
               "--seed", "1", "-o", str(tmp_path / "reruns.csv")) == 3
    assert run("study", "reruns", "--sizes", "", "--graphs", "1",
               "--seed", "1", "-o", str(tmp_path / "reruns.csv")) == 3
    capsys.readouterr()
    for size in ("0", "-2"):
        assert run("study", "reruns", "--sizes", f"4,{size}", "--graphs", "1",
                   "--seed", "1", "-o", str(tmp_path / "reruns.csv")) == 3
        assert f"graph size must be positive and at most 1024, got {size}" in (
            capsys.readouterr().err
        )
    # A bad graph spec is refused when it is made, before any file is written.
    spec_out = str(tmp_path / "spec.csv")
    assert run("study", "table2", "-n", "0", "--seed", "1", "-o", spec_out) == 3
    assert "graph size must be positive and at most 1024, got 0" in capsys.readouterr().err
    assert run("study", "reruns", "--sizes", "4", "--p", "1.5", "--seed", "1", "-o", spec_out) == 3
    assert "edge probability must lie in (0, 1], got 1.5" in capsys.readouterr().err
    assert not (tmp_path / "spec.csv").exists()
    # table2 draws one sample per graph, but a count below 1 is still refused.
    for flag in ("--samples", "--runs", "--graphs"):
        assert run("study", "table2", "--task", "bf", "-n", "4", flag, "0", "--seed", "1",
                   "-o", str(tmp_path / "zero.csv")) == 3
    assert not (tmp_path / "zero.csv").exists()
    # A repeated or an empty --methods list is an error, not duplicate rows
    # or the defaults.
    for methods in ("upwards,upwards", ","):
        assert run("study", "table2", "--task", "dfs", "-n", "4", "--graphs", "2", "--runs", "1",
                   "--methods", methods, "--seed", "1", "-o", str(tmp_path / "t2.csv")) == 3
    assert run("sample", "-i", str(g3), "-d", str(d3), "--task", "bf", "--method", "argmax",
               "-k", "0", "--seed", "3", "-o", str(tmp_path / "k0.json")) == 3

    # Malformed files: an edge endpoint, a parent, a graph_index or a
    # probability outside its range, a parent that is not an int, or a
    # solutions file of the wrong shape is rejected, never wrapped or crashed on.
    for endpoint in (-1, 7):
        bad_graphs = tmp_path / f"edge{endpoint}.json"
        bad_graphs.write_text(json.dumps([{"n": 3, "directed": False, "source": 0,
                                           "edges": [[0, endpoint, "1"]]}]))
        assert run("dist", "-i", str(bad_graphs), "--task", "bf", "--seed", "2",
                   "-o", str(tmp_path / "never.json")) == 3
    def one_entry(index, solutions):
        return {"task": "bf", "method": "argmax", "k": 1,
                "entries": [{"graph_index": index, "solutions": solutions}]}

    bad_payloads = [
        one_entry(index, [solution])
        for index, solution in (
            (0, [0, 0, -2]), (0, [0, 0, 5]), (-1, [0, 0, 0]), (2, [0, 0, 0]),
            (0, [0, 0, "a"]), (0, [0, 1.0, 2]), (0, [0, True, 2]), (0, [0, 0, 1.0]), (0, None),
        )
    ] + [
        [one_entry(0, [[0, 0, 0]])],  # not an object
        {**one_entry(0, []), "entries": {"graph_index": 0, "solutions": [[0, 0, 0]]}},
        {**one_entry(0, []), "entries": [[0, [0, 0, 0]]]},
        one_entry(0, 5),
    ]
    for payload in bad_payloads:
        sols = tmp_path / "bad_sols.json"
        sols.write_text(json.dumps(payload))
        assert run("check", "-i", str(g3), "-s", str(sols)) == 3, payload
        assert "error:" in capsys.readouterr().err
    nan_dists = tmp_path / "nan.json"
    nan_dists.write_text(d3.read_text().replace("[1.0, 0.0, 0.0]", "[NaN, NaN, NaN]", 1))
    assert nan_dists.read_text() != d3.read_text()
    assert run("sample", "-i", str(g3), "-d", str(nan_dists), "--task", "bf",
               "--method", "argmax", "--seed", "3", "-o", str(tmp_path / "s.json")) == 3


GOOD_GRAPH = {"n": 3, "directed": False, "source": 0, "edges": [[0, 1, "1"], [1, 2, "1/2"]]}


@pytest.mark.parametrize(
    "graphs, dists",
    # graphs is the whole graphs file when dists is None, else its one entry.
    [
        ([{**GOOD_GRAPH, "n": "5"}], None),
        ([{**GOOD_GRAPH, "edges": [[0, 1.0, "1"]]}], None),  # float endpoint
        ([{**GOOD_GRAPH, "source": "0"}], None),
        (GOOD_GRAPH, None),  # an object, not a list of graphs
        ([1, 2], None),
        ([{**GOOD_GRAPH, "directed": "no"}], None),
        ([{**GOOD_GRAPH, "edges": [[1, 1, "1"]]}], None),  # self-loop
        ([{**GOOD_GRAPH, "edges": [[0, 1, True]]}], None),
        ([{**GOOD_GRAPH, "edges": [[0, 1]]}], None),
        ([{"n": 3, "directed": False, "source": 0}], None),  # no edges
        (GOOD_GRAPH, {"n": 3, "probs": [[1, 0, 0], [1, 0, 0], [0, 1, 0]]}),  # an object
        ([{**GOOD_GRAPH, "edges": [[0, 1, "1/0"]]}], None),
        (GOOD_GRAPH, [{"n": 3, "probs": {}}]),
        (GOOD_GRAPH, [{"n": 3, "probs": [[1, 0, 0], [1, 0, {}], [0, 1, 0]]}]),
        (GOOD_GRAPH, [{"n": 3, "probs": [[1, 0, 0], [True, 0, 0], [0, 1, 0]]}]),
        ({"n": 1, "directed": False, "source": 0, "edges": []}, [{"n": True, "probs": [[1]]}]),
        # Rejected before anything is allocated or expanded.
        ([{**GOOD_GRAPH, "n": 10**20}], None),
        ([{**GOOD_GRAPH, "edges": [[0, 1, "1e-10000000"]]}], None),
        # An exponent that is no int passes the bound check; Fraction refuses it.
        ([{**GOOD_GRAPH, "edges": [[0, 1, "1e1.5"]]}], None),
        (GOOD_GRAPH, [1]),  # a distribution that is not an object
        # An edge listed twice, never the last weight silently kept; undirected
        # in either direction.
        ([{**GOOD_GRAPH, "edges": [[0, 1, "1"], [1, 0, "2"], [1, 2, "1"]]}], None),
        ([{**GOOD_GRAPH, "directed": True, "edges": [[0, 1, "1"], [0, 1, "5"]]}], None),
    ],
)
def test_malformed_graph_and_distribution_files_exit_3(tmp_path, capsys, graphs, dists):
    graphs_file, dists_file = tmp_path / "g.json", tmp_path / "d.json"
    out = str(tmp_path / "out.json")
    graphs_file.write_text(json.dumps(graphs if dists is None else [graphs]))
    if dists is None:
        code = run("dist", "-i", str(graphs_file), "--task", "bf", "--seed", "1", "-o", out)
    else:
        dists_file.write_text(json.dumps(dists))
        code = run("sample", "-i", str(graphs_file), "-d", str(dists_file), "--task", "bf",
                   "--method", "argmax", "--seed", "1", "-o", out)
    err = capsys.readouterr().err
    assert code == 3, err
    assert "error:" in err and "Traceback" not in err


def test_check_of_no_solutions_writes_no_verdict_line(tmp_path, capsys):
    graphs, dists, sols = tmp_path / "g.json", tmp_path / "d.json", tmp_path / "s.json"
    verdicts = tmp_path / "v.csv"
    graphs.write_text("[]")
    assert run("dist", "-i", str(graphs), "--seed", "1", "-o", str(dists)) == 0
    assert run("sample", "-i", str(graphs), "-d", str(dists), "--method", "argmax",
               "--seed", "1", "-o", str(sols)) == 0
    assert run("check", "-i", str(graphs), "-s", str(sols), "-o", str(verdicts)) == 0
    assert verdicts.read_bytes() == b""
    capsys.readouterr()
    assert run("check", "-i", str(graphs), "-s", str(sols)) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "header, message",
    [
        ({"method": 7}, "'method' must be one of"),
        ({"method": "x"}, "'method' must be one of"),
        ({"k": "x"}, "'k' must be a positive integer, got 'x'"),
        ({"k": True}, "'k' must be a positive integer, got True"),
        ({"k": 0}, "'k' must be a positive integer, got 0"),
        ({"k": 2}, "entry has 1 solutions but k is 2"),
        # Every header key is checked for its JSON type: a bool is no int.
        ({"task": True}, "True is not a valid Task"),
        ({"task": ["bf"]}, "['bf'] is not a valid Task"),
        ({"entries": [{"graph_index": True, "solutions": [[0, 0, 1]]}]},
         "graph_index True out of range for 1 graphs"),
    ],
)
def test_check_refuses_a_malformed_method_or_k(tmp_path, capsys, header, message):
    graphs, sols = tmp_path / "g.json", tmp_path / "s.json"
    graphs.write_text(json.dumps([GOOD_GRAPH]))
    payload = {"task": "bf", "method": "argmax", "k": 1,
               "entries": [{"graph_index": 0, "solutions": [[0, 0, 1]]}]}
    sols.write_text(json.dumps(payload))
    assert run("check", "-i", str(graphs), "-s", str(sols)) == 0
    capsys.readouterr()
    sols.write_text(json.dumps({**payload, **header}))
    assert run("check", "-i", str(graphs), "-s", str(sols)) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("dist", "--task", "bf", "--seed", "1"), ("check", "-s", "{sols}")])
def test_bf_on_a_sourceless_graph_exits_3(tmp_path, capsys, argv):
    # A DFS graph has no source, so Graph.sp_costs refuses it; dist and check
    # must report that as a validation error and write no file.
    graphs, sols, out = tmp_path / "g.json", tmp_path / "s.json", tmp_path / "out"
    graphs.write_text(json.dumps([{"n": 3, "directed": True, "source": None,
                                   "edges": [[0, 1, "1"], [1, 2, "1"]]}]))
    sols.write_text(json.dumps({"task": "bf", "method": "argmax", "k": 1,
                                "entries": [{"graph_index": 0, "solutions": [[0, 0, 1]]}]}))
    command, *rest = argv
    assert run(command, "-i", str(graphs), *(a.format(sols=sols) for a in rest),
               "-o", str(out)) == 3
    err = capsys.readouterr().err
    assert "needs a graph with a source" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json", "s.json"]


def test_weights_beyond_float_range_run_through_the_pipeline(tmp_path):
    # Integer weights above 1e308 must never meet the float infinity of an
    # unreachable or missing-edge cost: the cost fill, the tight-parent table
    # and beam each used to add the two, which overflows.
    tie = str(Fraction(1, 3) + Fraction(1, 10**400))  # 0->2 ties 0->1->2
    graphs = [
        # 3 and 4 are unreachable tails of arcs into the reachable part.
        {"n": 5, "directed": True, "source": 0, "edges": [
            [0, 1, "1e-400"], [1, 2, "1/3"], [0, 2, tie], [3, 1, "1/3"], [4, 3, "1/3"]]},
        {"n": 5, "directed": False, "source": 0, "edges": [
            [0, 1, "1e400"], [1, 2, "1e400"], [0, 2, "2e400"], [3, 4, "1e400"]]},
    ]
    graphs_file, dists = tmp_path / "g.json", tmp_path / "d.json"
    graphs_file.write_text(json.dumps(graphs))
    assert run("dist", "-i", str(graphs_file), "--task", "bf", "--runs", "10", "--seed", "1",
               "-o", str(dists)) == 0
    # Uniform rows make beam hop along missing edges, then along huge ones.
    uniform = tmp_path / "uniform.json"
    uniform.write_text(json.dumps([{"n": 5, "probs": [[0.2] * 5] * 5}] * 2))
    trees = [enumerate_shortest_path_trees(g) for g in graphs_from_json(graphs_file)]
    assert [len(t) for t in trees] == [2, 2]
    for method, rows in itertools.product(METHODS, (dists, uniform)):
        sols, verdicts = tmp_path / "s.json", tmp_path / "v.csv"
        assert run("sample", "-i", str(graphs_file), "-d", str(rows), "--task", "bf",
                   "--method", method, "-k", "4", "--seed", "2", "-o", str(sols)) == 0
        assert run("check", "-i", str(graphs_file), "-s", str(sols), "-o", str(verdicts)) == 0
        expected = [
            tuple(pi) in trees[entry["graph_index"]]
            for entry in read_json(sols)["entries"]
            for pi in entry["solutions"]
        ]
        checked = [line.split(",")[1] == "true" for line in verdicts.read_text().splitlines()]
        assert checked == expected, (method, rows.name)


# Valid inputs for the fuzz test below: an undirected and a directed graph,
# distributions that match them, and a solutions file for both.
FUZZ_FILES = {
    "graphs": [GOOD_GRAPH, {"n": 4, "directed": True, "source": 0, "edges": [
        [0, 1, "1"], [1, 2, "2/3"], [0, 3, "1e400"], [3, 2, 1]]}],
    "dists": [
        {"n": 3, "probs": [[1, 0, 0], [1, 0, 0], [0, 0.5, 0.5]]},
        {"n": 4, "probs": [[1, 0, 0, 0], [1, 0, 0, 0], [0, 0.5, 0, 0.5], [1, 0, 0, 0]]},
    ],
    "sols": {"task": "bf", "method": "beam", "k": 1, "entries": [
        {"solutions": [[0, 0, 1]], "valid": [True], "graph_index": 0},
        {"solutions": [[0, 0, 1, 0]], "valid": [True], "graph_index": 1},
    ]},
}
# Replacement values. No int here may pass the vertex bound and still be large
# enough to make an n x n matrix expensive.
FUZZ_POOL = (10**20, True, 1.5, "1/0", [], {}, None, -1, 7, "x")


def json_slots(node):
    """(container, key) of every value below a JSON node, depth first."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        items = []
    for key, value in items:
        yield node, key
        yield from json_slots(value)


def malformed_header(sols) -> bool:
    """Whether a solutions payload's method or k is one check must refuse: a
    method outside METHODS, a k that is not a positive int, or a k unequal to
    an entry's number of solutions."""
    if not isinstance(sols, dict):
        return False
    method, k = sols.get("method"), sols.get("k")
    if method not in METHODS or type(k) is not int or k < 1:
        return True
    entries = sols.get("entries")
    return isinstance(entries, list) and any(
        isinstance(e, dict) and isinstance(e.get("solutions"), list) and len(e["solutions"]) != k
        for e in entries
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_files_exit_0_3_or_4(data):
    # Mutate the valid files (drop a key or item, retype a value, wrap a value
    # in a list or unwrap it); every command must exit 0, 3 or 4 and print no
    # traceback. An uncaught exception escapes main and fails the test. Half
    # the mutations land in the solutions file, so that its method, k and
    # solution counts are often hit, and check must refuse a malformed one.
    files = copy.deepcopy(FUZZ_FILES)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        slots = list(json_slots(files))
        sols_slots = list(json_slots(files.get("sols"))) or slots
        choices = st.sampled_from(slots) | st.sampled_from(sols_slots)
        container, key = data.draw(choices, label="slot")
        op = data.draw(st.sampled_from(("drop", "retype", "wrap", "unwrap")), label="op")
        value = container[key]
        if op == "drop":
            del container[key]
        elif op == "retype":
            container[key] = data.draw(st.sampled_from(FUZZ_POOL), label="value")
        elif op == "wrap":
            container[key] = [value]
        elif isinstance(value, (list, dict)) and value:
            container[key] = next(iter(value.values() if isinstance(value, dict) else value))
    task = data.draw(st.sampled_from(("bf", "dfs")), label="task")
    method = data.draw(st.sampled_from(METHODS), label="method")
    with tempfile.TemporaryDirectory() as tmp:
        path = {name: str(Path(tmp, f"{name}.json")) for name in ("graphs", "dists", "sols")}
        for name, payload in files.items():
            Path(path[name]).write_text(json.dumps(payload))  # a dropped file stays missing
        out = str(Path(tmp, "out"))
        commands = [
            ("dist", "-i", path["graphs"], "--task", task, "--runs", "3", "--seed", "1",
             "-o", out),
            ("sample", "-i", path["graphs"], "-d", path["dists"], "--task", task,
             "--method", method, "-k", "2", "--seed", "1", "-o", out),
            ("check", "-i", path["graphs"], "-s", path["sols"], "-o", out),
        ]
        for argv in commands:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run(*argv)
            assert code in (0, 3, 4), (argv[0], files, err.getvalue())
            assert "Traceback" not in err.getvalue()
            if argv[0] == "check" and malformed_header(files.get("sols")):
                assert code != 0, files["sols"]


def test_io_errors_exit_4(tmp_path, capsys):
    code = run("dist", "-i", str(tmp_path / "missing.json"), "--task", "bf", "--seed", "1",
               "-o", str(tmp_path / "d.json"))
    assert code == 4
    assert "i/o error" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("dist", "-i", str(bad), "--task", "bf", "--seed", "1",
               "-o", str(tmp_path / "d.json")) == 4

    # Input nested beyond the decoder's limit, or not UTF-8, is an i/o error
    # for every reader flag, not a traceback or a validation error.
    graphs, dists = tmp_path / "graphs.json", tmp_path / "dists.json"
    assert run("gen", "-n", "4", "--task", "bf", "--seed", "1", "-o", str(graphs)) == 0
    assert run("dist", "-i", str(graphs), "--task", "bf", "--seed", "2", "-o", str(dists)) == 0
    deep, binary = tmp_path / "deep.json", tmp_path / "binary.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    binary.write_bytes(b"\xff[]")
    out = tmp_path / "out"
    capsys.readouterr()
    for bad in (deep, binary):
        for argv in (
            ("dist", "-i", str(bad), "--task", "bf", "--seed", "1", "-o", str(out)),
            ("sample", "-i", str(graphs), "-d", str(bad), "--task", "bf", "--method", "beam",
             "--seed", "1", "-o", str(out)),
            ("check", "-i", str(graphs), "-s", str(bad), "-o", str(out)),
        ):
            assert run(*argv) == 4, argv
            err = capsys.readouterr().err
            assert "i/o error" in err and "Traceback" not in err, argv
            assert not out.exists(), argv


def test_version_flag(capsys):
    from treesample import __version__

    assert run("--version") == 0
    assert __version__ in capsys.readouterr().out


def test_entry_point_target_runs_gen(tmp_path, monkeypatch):
    # The console script without an install: pyproject.toml's target, called
    # the way the generated script calls it (no arguments, argv in sys.argv).
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["treesample"]
    assert target == "treesample.cli:main"
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    out = tmp_path / "g.json"
    argv = ["treesample", "gen", "-n", "4", "--task", "bf", "--seed", "1", "-o", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    assert entry() == 0
    assert len(graphs_from_json(out)) == 1


def test_installed_entry_point_runs(tmp_path):
    import shutil
    import subprocess

    exe = shutil.which("treesample")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "gen", "-n", "4", "--task", "bf", "--seed", "1", "-o", str(tmp_path / "g.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "g.json").exists()
