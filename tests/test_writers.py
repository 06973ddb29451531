"""The data-file writers: each writes a JSON list with one compact
`json.dumps` entry per line, one entry at a time, so writing never holds the
document."""

import json
import tracemalloc

import pytest

from treesample import (
    GraphSpec,
    Task,
    build_empirical,
    cli,
    distributions_to_json,
    generate_graph,
    graphs_to_json,
    perturb,
)
from treesample.seeding import derive_seed


def graphs(task: Task, n: int, count: int) -> list:
    spec = GraphSpec(n=n, task=task)
    return [generate_graph(spec, derive_seed(0, "graph", i)) for i in range(count)]


def one_per_line(entries: list) -> str:
    """The list layout, spelled independently of the writers."""
    return "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]" if entries else "[]"


def traced_peak(write, *args) -> int:
    """Peak bytes allocated by write(*args), counted from its start."""
    tracemalloc.start()
    try:
        write(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("count", [0, 1, 3])
@pytest.mark.parametrize("task", list(Task))
def test_graph_writer_bytes_equal_one_dumps(tmp_path, task, count):
    gs = graphs(task, 6, count)
    path = tmp_path / "graphs.json"
    graphs_to_json(gs, path)
    payload = [g.to_dict() for g in gs]
    assert path.read_text() == one_per_line(payload) + "\n"
    assert json.loads(path.read_text()) == payload


@pytest.mark.parametrize("count", [0, 1, 3])
def test_distribution_writer_bytes_equal_one_dumps(tmp_path, count):
    dists = [
        perturb(build_empirical(g, Task.BF, runs=5, seed=i), 0.3, seed=i)
        for i, g in enumerate(graphs(Task.BF, 6, count))
    ]
    path = tmp_path / "dists.json"
    distributions_to_json(dists, path)
    payload = [d.to_dict() for d in dists]
    assert path.read_text() == one_per_line(payload) + "\n"
    assert json.loads(path.read_text()) == payload


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("task, method", [("bf", "beam"), ("dfs", "upwards")])
def test_solutions_writer_bytes_equal_one_dumps(tmp_path, task, method, count):
    g, d, s = (str(tmp_path / name) for name in ("g.json", "d.json", "s.json"))
    common = ["--task", task, "--seed", "1"]
    assert cli.main(["gen", "-n", "6", "--count", str(count), *common, "-o", g]) == 0
    assert cli.main(["dist", "-i", g, "--runs", "5", *common, "-o", d]) == 0
    assert cli.main(["sample", "-i", g, "-d", d, "--method", method, "-k", "3", *common,
                     "-o", s]) == 0
    text = (tmp_path / "s.json").read_text()
    payload = json.loads(text)
    assert len(payload["entries"]) == count
    assert all(("failed_tags" in e) == (task == "dfs") for e in payload["entries"])
    assert list(payload) == ["task", "method", "k", "entries"]
    assert payload["task"] == task and payload["method"] == method and payload["k"] == 3
    assert [e["graph_index"] for e in payload["entries"]] == list(range(count))
    assert all(list(e)[-1] == "graph_index" for e in payload["entries"])
    header = f'{{"task": "{task}", "method": "{method}", "k": 3, "entries": '
    assert text == header + one_per_line(payload["entries"]) + "}\n"


def test_graph_to_dict_fills_no_cached_table():
    g = graphs(Task.BF, 8, 1)[0]
    fields = dict(vars(g))
    g.to_dict()
    assert vars(g) == fields


def test_graph_and_distribution_writers_peak_below_their_file_size(tmp_path):
    # 500 n=8 BF graphs and their 20-run distributions, as in the CLI chain
    # benchmark. A writer that builds its document (or even the list of every
    # entry's dict) peaks at many times the file it writes.
    gs = graphs(Task.BF, 8, 500)
    dists = [build_empirical(g, Task.BF, runs=20, seed=i) for i, g in enumerate(gs)]
    writers = (("graphs", graphs_to_json, gs), ("dists", distributions_to_json, dists))
    for name, write, data in writers:
        path = tmp_path / f"{name}.json"
        peak = traced_peak(write, data, path)
        assert peak < path.stat().st_size, (name, peak, path.stat().st_size)


def command_peaks(tmp_path, count: int) -> dict[str, int]:
    """Traced peak bytes of gen, dist and sample, each run in-process at
    --jobs 1 on count n=8 BF graphs."""
    out = tmp_path / str(count)
    out.mkdir(exist_ok=True)
    g, d, s = (str(out / name) for name in ("g.json", "d.json", "s.json"))
    common = ["--task", "bf", "--seed", "1"]
    argvs = {
        "gen": ["gen", "-n", "8", "--count", str(count), *common, "-o", g],
        "dist": ["dist", "-i", g, *common, "-o", d],
        "sample": ["sample", "-i", g, "-d", d, "--method", "beam", "-k", "5", *common, "-o", s],
    }
    codes = []
    peaks = {
        name: traced_peak(lambda: codes.append(cli.main(argv))) for name, argv in argvs.items()
    }
    assert codes == [0, 0, 0]
    return peaks


def test_commands_peak_does_not_grow_with_the_entry_count(tmp_path, capsys):
    # Every command holds one entry at a time, so 4x the graphs may not cost
    # even 1.5x the memory. Holding every graph, distribution or solutions
    # entry (with its caches) until the file is written scales with the count.
    # A first run loads modules and fills the interpreter's free lists (up
    # to 2,000 tuples of each small size), which a traced run would count.
    command_peaks(tmp_path, 200)
    few, many = command_peaks(tmp_path, 50), command_peaks(tmp_path, 200)
    capsys.readouterr()
    for name in few:
        assert many[name] <= 1.5 * few[name], (name, few[name], many[name])
