"""Support layers: seed derivation, study tables, parallel map, package API and layering."""

import ast
import hashlib
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treesample
from treesample import (
    EvalConfig,
    Graph,
    GraphSpec,
    ParentDistribution,
    SamplerConfig,
    StudyTable,
    Task,
    algorithms,
    build_empirical,
    distributions,
    draw_samples,
    enumerate_dfs_trees,
    evaluation,
    generate_graph,
    graphs,
    parallel,
    perturb,
    randomized_dfs,
    samplers,
    seeding,
    validity,
)
from treesample.cli import main as cli_main
from treesample.parallel import parallel_map
from treesample.seeding import derive_rng, derive_seed


def test_derive_seed_is_deterministic_and_key_sensitive():
    assert derive_seed(7, "graph", 3) == derive_seed(7, "graph", 3)
    assert derive_seed(7, "graph", 3) != derive_seed(7, "graph", 4)
    assert derive_seed(7, "graph", 3) != derive_seed(8, "graph", 3)
    assert derive_seed(7, "graph", 3) != derive_seed(7, "dist", 3)


def test_derive_rng_streams_are_independent():
    a = derive_rng(0, "x").integers(0, 2**62, size=4).tolist()
    b = derive_rng(0, "y").integers(0, 2**62, size=4).tolist()
    assert a == derive_rng(0, "x").integers(0, 2**62, size=4).tolist()
    assert a != b


def test_negative_keys_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        derive_seed(0, -3)


@pytest.mark.parametrize("key", [1.5, 1.0, True, np.int64(1)])
def test_seed_keys_are_strings_or_python_ints(key):
    # Truncated by int(), 1.5, 1.0 and True would all run as the stream of 1.
    message = rf"non-negative ints, got {re.escape(repr(key))}"
    for derive in (derive_seed, derive_rng):
        with pytest.raises(ValueError, match=message):
            derive(key, "a")
        with pytest.raises(ValueError, match=message):
            derive(7, "graph", key)


@settings(max_examples=50, deadline=None)
@given(
    root=st.integers(0, 2**32 - 1),
    keys=st.lists(st.one_of(st.integers(0, 2**32 - 1), st.text(max_size=8)), max_size=4),
)
def test_derive_seed_fits_in_64_bits(root, keys):
    value = derive_seed(root, *keys)
    assert 0 <= value < 2**64


def test_table_append_and_csv():
    table = StudyTable(("a", "b"))
    table.append(1, 0.5)
    table.append("x", 2.25)
    assert table.rows == [(1, 0.5), ("x", 2.25)]
    assert table.to_csv_text() == "a,b\n1,0.5\nx,2.25\n"
    with pytest.raises(ValueError, match="cells"):
        table.append(1)


def test_table_floats_round_trip_exactly(tmp_path):
    # repr keeps all 17 significant digits, so parsing the CSV recovers the
    # float bit-for-bit.
    value = 0.1 + 0.2
    table = StudyTable(("v",))
    table.append(value)
    path = tmp_path / "t.csv"
    table.write_csv(path)
    assert float(path.read_text().splitlines()[1]) == value


def test_parallel_map_matches_serial():
    items = list(range(23))
    assert list(parallel_map(_square, items, jobs=1)) == list(parallel_map(_square, items, jobs=4))
    assert list(parallel_map(_square, [], jobs=4)) == []
    with pytest.raises(ValueError, match="jobs"):
        parallel_map(_square, items, jobs=0)


class SerialPool:
    """A fake pool that records its size and each chunk's length, and runs
    each submit at once, so no process starts."""

    started: list[int] = []
    chunks: list[int] = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.chunks.append(len(args[-1]))
        future = Future()
        future.set_result(fn(*args))
        return future


def test_parallel_map_starts_no_more_workers_than_items_or_cpus(monkeypatch):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(SerialPool, "started", [])
    assert list(parallel_map(_square, range(5), jobs=10**6)) == [x * x for x in range(5)]
    assert all(w <= min(5, os.cpu_count() or 1) for w in SerialPool.started), SerialPool.started
    assert list(parallel_map(_square, [], jobs=10**6)) == []


def test_parallel_map_reads_a_bounded_window_of_items(monkeypatch):
    # Items are read as results are taken: two chunks per worker before the
    # pool starts, and no more until the first result is handed out.
    monkeypatch.setattr("treesample.parallel.os.cpu_count", lambda: 2)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    pulled = []

    def items():
        for i in range(1000):
            pulled.append(i)
            yield i

    results = parallel_map(_square, items(), jobs=2)
    assert pulled == []
    assert next(results) == 0
    assert len(pulled) == 2 * 2 * parallel.CHUNK
    assert list(results) == [x * x for x in range(1, 1000)]


@pytest.mark.parametrize(
    "count, stream, chunks",
    [(20, list, [5] * 4), (1000, lambda items: (i for i in items), [16] * 62 + [8])],
    ids=["list", "generator"],
)
def test_parallel_map_cuts_its_chunks_from_the_items_it_has_read(
    monkeypatch, count, stream, chunks
):
    # A list that ends inside the read-ahead of two 16-item chunks per worker
    # gets two equal chunks per worker; a longer stream gets 16-item chunks.
    monkeypatch.setattr("treesample.parallel.os.cpu_count", lambda: 2)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(SerialPool, "started", [])
    monkeypatch.setattr(SerialPool, "chunks", [])
    results = list(parallel_map(_square, stream(range(count)), jobs=2))
    assert results == [x * x for x in range(count)]
    assert SerialPool.started == [2]
    assert SerialPool.chunks == chunks


def test_parallel_map_reads_no_item_ahead_at_one_job(monkeypatch):
    monkeypatch.setattr("treesample.parallel.os.cpu_count", lambda: 2)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(SerialPool, "started", [])
    pulled = []

    def items():
        for i in range(50):
            pulled.append(i)
            yield i

    results = parallel_map(lambda i: (i, len(pulled)), items(), jobs=1)
    assert list(results) == [(i, i + 1) for i in range(50)]
    assert SerialPool.started == []


def _square(x: int) -> int:
    return x * x


_EDGE = Graph.from_edges(2, [(0, 1, 1)], directed=False, source=0)


@pytest.mark.parametrize("count", [True, 2.5, np.int64(2), 0])
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda count: parallel_map(_square, [1, 2], jobs=count), "jobs must be positive"),
        (lambda count: build_empirical(_EDGE, Task.BF, runs=count), "need at least one run"),
        (
            lambda count: draw_samples(
                "argmax", build_empirical(_EDGE, Task.BF, runs=2), _EDGE, SamplerConfig(),
                count, np.random.default_rng(0),
            ),
            "need at least one sample",
        ),
    ],
    ids=["jobs", "runs", "k"],
)
def test_library_counts_are_positive_python_ints(call, message, count):
    # Refused up front: True would run as 1, and 2.5 fail later with a TypeError.
    with pytest.raises(ValueError, match=f"{message}, got {re.escape(repr(count))}"):
        call(count)


_UNIFORM = ParentDistribution(2, np.full((2, 2), 0.5))


@pytest.mark.parametrize("seed", [True, 1.5, -1, np.int64(1)])
@pytest.mark.parametrize(
    "call",
    [
        lambda seed: generate_graph(GraphSpec(n=5), seed),
        # The runners take a Generator; build_empirical owns their runs' seed.
        lambda seed: build_empirical(_EDGE, Task.DFS, runs=2, seed=seed),
        lambda seed: build_empirical(_EDGE, Task.BF, runs=2, seed=seed),
        lambda seed: perturb(_UNIFORM, 0.5, seed),
    ],
    ids=["generate_graph", "randomized_dfs", "randomized_bellman_ford", "perturb"],
)
def test_seeded_entry_points_keep_the_seed_rule(call, seed):
    # numpy's own rule would run True as seed 1 and np.int64(1) as 1, and
    # raise its own errors for 1.5 and -1.
    message = rf"seed keys must be strings or non-negative ints, got {re.escape(repr(seed))}"
    with pytest.raises(ValueError, match=message):
        call(seed)


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**63 + 1, 2**64 - 1])
def test_derive_rng_of_a_bare_seed_is_numpys_default_rng(seed):
    # The premise of building every Generator with derive_rng: a seed that
    # numpy's default_rng took directly gives the same stream, so no output moves.
    ours, numpys = derive_rng(seed), np.random.default_rng(seed)
    assert ours.random(4).tolist() == numpys.random(4).tolist()
    assert ours.permutation(9).tolist() == numpys.permutation(9).tolist()
    assert ours.integers(7, size=4).tolist() == numpys.integers(7, size=4).tolist()
    assert ours.dirichlet(np.ones(3)).tolist() == numpys.dirichlet(np.ones(3)).tolist()


def _label_word(label: str) -> int:
    return int.from_bytes(hashlib.blake2s(label.encode("utf-8"), digest_size=8).digest(), "big")


def _numpys_sequence(root, keys) -> np.random.SeedSequence:
    """The stream's definition: numpy's SeedSequence of the keys' words as a list of ints."""
    return np.random.SeedSequence([_label_word(k) if isinstance(k, str) else k for k in (root, *keys)])


_EDGE_WORDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**100 + 5]
_KEY_CASES = [
    *[(word, ()) for word in _EDGE_WORDS],
    *[(7, (word,)) for word in _EDGE_WORDS],
    (2**64, ("run", 2**32 - 1, "", 0)),
    ("root", (1, "é", 2**100 + 5)),
    (0, (0, 0, 0, 0)),
]


def _assert_words_match_numpys(root, keys):
    ours, numpys = seeding._sequence(root, tuple(keys)), _numpys_sequence(root, keys)
    assert ours.pool.tolist() == numpys.pool.tolist()
    assert ours.generate_state(4).tolist() == numpys.generate_state(4).tolist()
    assert derive_seed(root, *keys) == int(numpys.generate_state(1, np.uint64)[0])


@pytest.mark.parametrize("root, keys", _KEY_CASES)
def test_seed_words_are_numpys_words_of_the_keys(root, keys):
    # The premise of building the entropy as uint32 words: numpy makes the
    # same words of a list of ints, so no stream and no output moves.
    _assert_words_match_numpys(root, keys)


@settings(max_examples=200, deadline=None)
@given(
    root=st.integers(0, 2**130),
    keys=st.lists(st.one_of(st.integers(0, 2**130), st.text(max_size=6)), max_size=4),
)
def test_seed_words_match_numpys_over_ints_and_labels(root, keys):
    _assert_words_match_numpys(root, keys)


def test_only_seeding_builds_a_generator():
    # Every Generator and every SeedSequence comes from seeding, so every seed
    # passes its one rule and every stream is keyed by the same words.
    builders = {"default_rng", "SeedSequence", "Generator", "PCG64"}
    offences = []
    for path in sorted(Path(treesample.__file__).parent.glob("*.py")):
        if path.name == "seeding.py":
            continue
        offences += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and builders & {getattr(node.func, "attr", None), getattr(node.func, "id", None)}
        ]
    assert offences == []


@pytest.mark.parametrize("value", [True, False, "0.5"])
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda p: GraphSpec(n=5, edge_probability=p), r"edge probability must lie in \(0, 1\]"),
        (
            lambda alpha: EvalConfig(graph_spec=GraphSpec(n=5), perturb_alpha=alpha),
            r"perturb_alpha must lie in \[0, 1\]",
        ),
        (lambda alpha: perturb(_UNIFORM, alpha), r"^alpha must lie in \[0, 1\]"),
    ],
    ids=["edge_probability", "perturb_alpha", "perturb"],
)
def test_probabilities_refuse_bools_and_non_numbers(call, message, value):
    # True would run as probability 1, and "0.5" fail later with a TypeError.
    with pytest.raises(ValueError, match=f"{message}, got {re.escape(repr(value))}"):
        call(value)


_TASKS = r"task must be one of Task\.DFS, Task\.BF"
_MODES = r"mode must be one of TiebreakMode\.PER_RUN_GLOBAL, TiebreakMode\.PER_NODE"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: GraphSpec(n=5, task="dfs"), f"{_TASKS}, got 'dfs'"),
        (lambda: build_empirical(_EDGE, "dfs", runs=2), f"{_TASKS}, got 'dfs'"),
        (lambda: build_empirical(_EDGE, Task.DFS, runs=2, mode="per-node"), f"{_MODES}, got 'per-node'"),
        (lambda: validity.verdict(_EDGE, "dfs", (0, 0)), f"{_TASKS}, got 'dfs'"),
        (lambda: randomized_dfs(_EDGE, derive_rng(0), "per-run-global"), f"{_MODES}, got 'per-run-global'"),
        (lambda: enumerate_dfs_trees(_EDGE, "per-run-global"), f"{_MODES}, got 'per-run-global'"),
    ],
    ids=["GraphSpec", "build_empirical-task", "build_empirical-mode", "verdict", "randomized_dfs",
         "enumerate_dfs_trees"],
)
def test_enum_arguments_are_members(call, message):
    # A value string would take the other branch: "dfs" ran as BF, and
    # "per-run-global" as the per-node tie-break.
    with pytest.raises(ValueError, match=message):
        call()


# The CLI loads numpy only when a command draws, so the probe draws once,
# through the package, before it counts threads.
_THREADS_PROBE = (
    "import os, treesample.cli; from treesample.seeding import derive_rng; derive_rng(0);"
    " tasks = '/proc/self/task'; print(os.environ.get('OPENBLAS_NUM_THREADS'),"
    " len(os.listdir(tasks)) if os.path.isdir(tasks) else None)"
)


def _probe_threads(**env_update) -> tuple[str, str]:
    src = str(Path(treesample.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(PYTHONPATH=src, **env_update)
    proc = subprocess.run([sys.executable, "-c", _THREADS_PROBE], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    value, threads = proc.stdout.split()
    return value, threads


def test_cli_import_starts_one_thread():
    # No module calls BLAS, so numpy's OpenBLAS gets one thread by default,
    # not an idle worker per extra core.
    value, threads = _probe_threads()
    if threads != "None":  # "None": no /proc/self/task to count threads in
        assert threads == "1"
    assert value == "1"


def test_a_callers_blas_thread_count_is_kept():
    value, _ = _probe_threads(OPENBLAS_NUM_THREADS="2")
    assert value == "2"


def test_cli_import_loads_no_process_pool():
    # The pool is imported only when a map needs more than one worker, so
    # every command starts without the concurrent/multiprocessing modules.
    src = str(Path(treesample.__file__).parents[1])
    code = (
        "import sys, treesample.cli; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_ENGINE = ("numpy", "treesample.algorithms", "treesample.distributions", "treesample.samplers",
           "treesample.evaluation")
_LOADED_PROBE = (
    "import json, sys; from treesample.cli import main; code = main(sys.argv[1:]);"
    f" print(json.dumps([code, [m for m in {_ENGINE!r} if m in sys.modules]]))"
)


def _engine_loaded_by(*argv: str) -> tuple[int, set[str]]:
    """Exit code of `main(argv)` in a fresh interpreter, and the engine modules it loaded."""
    src = str(Path(treesample.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _LOADED_PROBE, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    return code, set(loaded)


def test_each_command_loads_only_the_layers_it_runs(tmp_path, capsys):
    # numpy and the engine modules load at a command's first use of them:
    # commands that draw nothing never load them.
    g, d, s, v = (str(tmp_path / name) for name in ("g.json", "d.json", "s.json", "v.csv"))
    for argv in (
        ["gen", "-n", "4", "--count", "2", "--task", "dfs", "--seed", "1", "-o", g],
        ["dist", "-i", g, "--task", "dfs", "--runs", "3", "--seed", "2", "-o", d],
        ["sample", "-i", g, "-d", d, "--task", "dfs", "--method", "upwards", "--seed", "3", "-o", s],
    ):
        assert cli_main(argv) == 0
    capsys.readouterr()
    for argv, code in [
        (("--version",), 0), (("--help",), 0), (("gen", "-n", "4"), 2),
        (("check", "-i", g, "-s", s, "-o", v), 0),
    ]:
        assert _engine_loaded_by(*argv) == (code, set()), argv
    assert json.loads(Path(v + ".manifest.json").read_text())["numpy_version"] is None
    code, loaded = _engine_loaded_by("gen", "-n", "4", "--seed", "1", "-o", str(tmp_path / "g2.json"))
    assert code == 0 and "numpy" in loaded
    assert not loaded & {"treesample.samplers", "treesample.evaluation"}
    code, loaded = _engine_loaded_by(
        "study", "table2", "-n", "4", "--graphs", "2", "--runs", "1", "--dist-runs", "2",
        "--seed", "1", "-o", str(tmp_path / "t2.csv"),
    )
    assert code == 0 and "treesample.evaluation" in loaded


# Every name the package exported before its `__all__` became the union of
# the module lists; none of them may drop out. `sample_predecessor` left the
# list when the upwards samplers took it in as their private masked draw, and
# `evaluate` and `MetricsRecord` when the two tables became the only entry
# points of the diversity and accuracy studies.
EARLIER_EXPORTS = (
    "BF_EDGE_PROBABILITY", "DFS_EDGE_PROBABILITY", "DfsCondition", "DfsVerdict",
    "EvalConfig", "Graph", "GraphSpec", "INFINITE_COST", "METHODS",
    "ParentDistribution", "RerunStudyConfig", "SamplerConfig", "StudyTable", "Task",
    "TiebreakMode", "accuracy_table", "alt_upwards_sample", "argmax_extract",
    "beam_extract", "bellman_ford_costs", "build_empirical", "check_bf_valid",
    "check_dfs_valid", "coverage_study", "distributions_from_json",
    "distributions_to_json", "diversity_table", "draw_samples", "edge_reuse_evolution",
    "enumerate_dfs_trees", "enumerate_shortest_path_trees", "extract",
    "generate_graph", "graphs_from_json", "graphs_to_json", "greedy_extract",
    "kl_divergence", "mean_edge_reuse", "perturb",
    "random_extract", "randomized_bellman_ford", "randomized_dfs",
    "rerun_divergence_study", "tree_edges", "upwards_sample",
)


def test_package_exports_the_union_of_module_lists():
    modules = (algorithms, distributions, evaluation, graphs, samplers, validity)
    union = [name for module in modules for name in module.__all__]
    assert len(set(union)) == len(union)  # no name is public in two modules
    assert sorted(treesample.__all__) == sorted(union)
    assert len(EARLIER_EXPORTS) == 45
    assert len(treesample.__all__) == 49  # a new export is a deliberate edit here
    assert set(EARLIER_EXPORTS) <= set(treesample.__all__)
    for name in treesample.__all__:
        assert getattr(treesample, name) is getattr(
            next(m for m in modules if name in m.__all__), name
        )


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reaches_into_another_modules_private_names():
    # A private name is read only inside its own module: no `from .m import
    # _name`, and no `module._name` on an imported module (dunders aside).
    offences = []
    for path in sorted(Path(treesample.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                source = node.module or ""
                if node.level:  # the package is flat, so every relative import is level 1
                    source = "treesample" + ("." + source if source else "")
                for alias in node.names:
                    if _private(alias.name):
                        offences.append(f"{path.name}:{node.lineno} imports {alias.name}")
                    target = getattr(importlib.import_module(source), alias.name, None)
                    if inspect.ismodule(target):
                        modules.add(alias.asname or alias.name)
        offences += [
            f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ]
    assert offences == []


def test_package_imports_only_the_stdlib_and_numpy():
    # numpy is the one declared dependency; everything else is the stdlib.
    allowed = set(sys.stdlib_module_names) | {"numpy", "treesample"}
    offences = []
    for path in sorted(Path(treesample.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            offences += [
                f"{path.name}:{node.lineno} imports {name}"
                for name in names
                if name.split(".")[0] not in allowed
            ]
    assert offences == []


def _package_imports(path: Path) -> set[str]:
    """The package modules a source file imports, by bare name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.add(node.module.split(".")[0])
            else:  # `from . import a, b`
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("treesample."):
            names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("treesample.")
            )
    return names


def test_layering_keeps_studies_in_evaluation():
    # Distributions are the model's output; the studies over them, their
    # tables and the parallel map belong to evaluation.
    package = Path(treesample.__file__).parent
    assert _package_imports(package / "distributions.py") == {"algorithms", "graphs", "seeding"}
    assert not (package / "tables.py").exists()
    importers = [p.name for p in sorted(package.glob("*.py")) if "tables" in _package_imports(p)]
    assert importers == []


def _package_chain(node: ast.Attribute, aliases: set[str]) -> tuple[str, ...] | None:
    """("Graph", "from_dict") for `package.Graph.from_dict`, when package is an alias."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return tuple(reversed(parts)) if isinstance(node, ast.Name) and node.id in aliases else None


def test_benchmarks_resolve_every_package_name_they_use():
    # The benchmark imports names from the package, reads attribute chains off
    # `import treesample as package`, and imports treesample.<layer> for each
    # key of its TRACED table; a name gone from the package breaks the timed
    # deep check or the traced run. The function names inside TRACED are
    # looked up leniently there, so they are not asserted here.
    imported, chains, layers = set(), set(), set()
    for path in sorted((Path(__file__).parents[1] / "benchmarks").glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "treesample"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "treesample":
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and (chain := _package_chain(node, aliases)):
                chains.add(chain)
            elif (
                isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]
            ):
                layers.update(key.value for key in node.value.keys)
    assert {"enumerate_shortest_path_trees", "graphs_from_json"} <= imported
    assert ("Graph", "from_dict") in chains and ("algorithms", "ENUMERATION_LIMIT") in chains
    assert "graphs" in layers
    assert [name for name in sorted(imported) if not hasattr(treesample, name)] == []
    unresolved = []
    for chain in sorted(chains):
        target = treesample
        for part in chain:
            target = getattr(target, part, None)
        if target is None:
            unresolved.append(".".join(chain))
    assert unresolved == []
    for layer in sorted(layers):
        importlib.import_module(f"treesample.{layer}")
