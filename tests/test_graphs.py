"""Graph construction, generation conventions, serialization, path costs."""

import dataclasses
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treesample import (
    BF_EDGE_PROBABILITY,
    DFS_EDGE_PROBABILITY,
    Graph,
    GraphSpec,
    INFINITE_COST,
    Task,
    check_bf_valid,
    check_dfs_valid,
    generate_graph,
    graphs_from_json,
    graphs_to_json,
    randomized_bellman_ford,
    randomized_dfs,
    tree_edges,
)
from treesample import graphs
from treesample.graphs import MAX_VERTICES, MAX_WEIGHT_EXPONENT, read_entries

from conftest import arc_list, edge_list, fraction_graph, path_cost_from_source


def test_from_edges_rejects_nonpositive_weight():
    with pytest.raises(ValueError, match="positive weight"):
        Graph.from_edges(2, [(0, 1, 0)], directed=True)
    with pytest.raises(ValueError, match="positive weight"):
        Graph.from_edges(2, [(0, 1, Fraction(-1, 2))], directed=True)


def test_from_edges_rejects_out_of_range_endpoints():
    for bad in ((0, -1), (0, 7), (-4, 1), (0, 1.0)):
        with pytest.raises(ValueError, match="outside"):
            Graph.from_edges(4, [(*bad, 1)], directed=False)


def test_from_edges_rejects_an_edge_listed_twice():
    # Never the last weight silently kept; undirected, either direction repeats.
    for directed, edges in ((True, [(0, 1, 1), (0, 1, 5)]), (False, [(0, 1, 1), (1, 0, 2)])):
        with pytest.raises(ValueError, match=r"edge \(\d,\d\) is listed twice"):
            Graph.from_edges(3, [*edges, (1, 2, 1)], directed=directed)
    assert Graph.from_edges(2, [(0, 1, 1), (1, 0, 5)], directed=True).weights == ((0, 1), (5, 0))


def test_from_edges_rejects_malformed_fields():
    bad_edges = (
        ((1, 1, 1), "self-loop"),
        ((0, 1, True), "not an int"),  # True == 1, but no weight
        ((0, 1, 0.5), "not an int"),
    )
    for edge, message in bad_edges:
        with pytest.raises(ValueError, match=message):
            Graph.from_edges(2, [edge], directed=True)
    with pytest.raises(ValueError, match="vertex count"):
        Graph.from_edges("2", [], directed=True)
    with pytest.raises(ValueError, match="directed"):
        Graph.from_edges(2, [], directed="no")
    with pytest.raises(ValueError, match="source"):
        Graph.from_edges(2, [], directed=True, source="0")


def test_size_and_weight_exponent_bounds():
    # Refused before a matrix is allocated or an exponent expanded.
    for n in (MAX_VERTICES + 1, 10**20):
        with pytest.raises(ValueError, match="vertex count"):
            Graph.from_edges(n, [(0, 1, 1)], directed=True)
        with pytest.raises(ValueError, match="at most"):
            generate_graph(GraphSpec(n=n))
    for w in ("1e-10000000", "1E4301", " 3.5e+4_301 "):
        with pytest.raises(ValueError, match="exponent"):
            Graph.from_edges(2, [(0, 1, w)], directed=True)
    edges = [(0, 1, f"1e{MAX_WEIGHT_EXPONENT}"), (1, 0, f"1e-{MAX_WEIGHT_EXPONENT}")]
    g = Graph.from_edges(2, edges, directed=True)
    assert g.denominator == 10**MAX_WEIGHT_EXPONENT
    assert g.weights[0][1] == 10 ** (2 * MAX_WEIGHT_EXPONENT)


def test_weights_are_ints_over_the_smallest_common_denominator():
    g = Graph.from_edges(3, [(0, 1, Fraction(1, 2)), (1, 2, Fraction(2, 3))], directed=True, source=0)
    assert g.denominator == 6
    assert g.weights == ((0, 3, 0), (0, 0, 4), (0, 0, 0))
    assert arc_list(g) == [(0, 1, 3), (1, 2, 4)]
    assert g.sp_costs == (0, 3, 7)
    # Equal rationals give equal graphs, however they were written.
    assert g == Graph.from_edges(3, [(1, 2, Fraction(4, 6)), (0, 1, "2/4")], directed=True, source=0)
    # The denominator is a Python int: True and 1.0 are not the 1 they equal.
    for denominator in (4, True, 1.0, np.int64(1)):
        with pytest.raises(ValueError, match="denominator"):
            Graph(2, True, ((0, 2), (0, 0)), denominator=denominator)
    with pytest.raises(ValueError, match="ints"):
        Graph(2, True, ((0, Fraction(1, 2)), (0, 0)))


def test_graph_shape_and_source_validation():
    with pytest.raises(ValueError, match="at least one vertex"):
        Graph(0, True, ())
    for rows in (((0, 1),), ((0, 1), (0,)), ((0, 1, 0), (0, 0, 0))):
        with pytest.raises(ValueError, match="shape does not match n"):
            Graph(2, True, rows)
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(2, [], directed=False, source=5)
    with pytest.raises(ValueError, match="symmetric"):
        Graph(2, False, ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))))


def test_graph_rejects_a_nonzero_diagonal(tmp_path):
    # graphs_from_json refuses a self-loop edge, so a matrix may not hold one:
    # it would be written to a file that cannot be read back.
    for directed, rows in ((True, ((1, 1), (0, 0))), (False, ((0, 2), (2, 2)))):
        with pytest.raises(ValueError, match="diagonal must be zero"):
            Graph(2, directed, rows)
    g = Graph(2, True, ((0, 1), (0, 0)))
    graphs_to_json([g], tmp_path / "g.json")
    assert graphs_from_json(tmp_path / "g.json") == [g]


def test_a_graph_stores_its_weights_as_tuples():
    lists, tuples = Graph(2, True, [[0, 1], [0, 0]]), Graph(2, True, ((0, 1), (0, 0)))
    assert lists == tuples and hash(lists) == hash(tuples)
    assert lists.weights == ((0, 1), (0, 0)) and type(lists.weights[0]) is tuple
    # Editing the rows it was built from changes neither the graph nor the
    # views cached from it.
    rows = [[0, 1, 3], [0, 0, 1], [0, 0, 0]]
    g = Graph(3, True, rows, source=0)
    assert g.sp_costs == (0, 1, 2)
    rows[0][2] = 1
    assert g.weights == ((0, 1, 3), (0, 0, 1), (0, 0, 0))
    assert g.sp_costs == (0, 1, 2) and g.sp_arcs == ((0, 0, 1), (2, 1, 2))
    assert g.adjacency == ((1, 2), (2,), ())
    assert check_bf_valid(g, (0, 0, 1)) and not check_bf_valid(g, (0, 0, 0))


def test_undirected_edges_are_symmetric():
    g = Graph.from_edges(3, [(0, 1, Fraction(1, 3))], directed=False)
    assert g.weights[0][1] == g.weights[1][0] == 1
    assert edge_list(g) == [(0, 1, Fraction(1, 3)), (1, 0, Fraction(1, 3))]
    assert g.adjacency[1] == (0,)


def test_adjacency_is_ascending():
    g = Graph.from_edges(4, [(0, 3, 1), (0, 1, 1), (0, 2, 1)], directed=True)
    assert g.adjacency[0] == (1, 2, 3)


def test_a_graph_caches_only_the_tables_its_task_reads():
    # adjacency is the one cached arc list: the BF checker fills the three
    # shortest-path tables, the BF runner adds its arc count, and DFS fills
    # adjacency alone.
    fields = {f.name for f in dataclasses.fields(Graph)}
    bf = generate_graph(GraphSpec(n=8, task=Task.BF), 1)
    check_bf_valid(bf, tuple(range(8)))
    assert vars(bf).keys() - fields == {"sp_costs", "sp_arcs", "sp_parents"}
    bf = generate_graph(GraphSpec(n=8, task=Task.BF), 1)
    randomized_bellman_ford(bf, np.random.default_rng(0))
    assert vars(bf).keys() - fields == {"sp_costs", "sp_arcs", "arc_count"}
    dfs = generate_graph(GraphSpec(n=8, task=Task.DFS), 1)
    check_dfs_valid(dfs, randomized_dfs(dfs, np.random.default_rng(0)))
    assert vars(dfs).keys() - fields == {"adjacency"}


def test_sp_arcs_name_each_tight_arc_by_its_row_major_position():
    # k is the arc's position in arc_list, the order the BF runner permutes;
    # the triples are every tight arc, by ascending cost of v (stable).
    kinds = set()
    for task in Task:
        for seed in range(20):
            g = generate_graph(GraphSpec(n=12, task=task), seed)
            g = Graph(g.n, g.directed, g.weights, 0, g.denominator)
            arcs, costs = arc_list(g), g.sp_costs
            assert g.arc_count == len(arcs)
            if len(g.sp_arcs) > 1:
                kinds.add(g.directed)
            assert all(arcs[k][:2] == (u, v) for k, u, v in g.sp_arcs)
            tight = [
                (k, u, v)
                for k, (u, v, w) in enumerate(arcs)
                if costs[v] != INFINITE_COST and costs[u] + w == costs[v]
            ]
            assert g.sp_arcs == tuple(sorted(tight, key=lambda arc: costs[arc[2]]))
    assert kinds == {False, True}


def test_generate_graph_deterministic_in_seed():
    spec = GraphSpec(n=8, task=Task.BF)
    assert generate_graph(spec, 17) == generate_graph(spec, 17)
    other = generate_graph(spec, 18)
    assert generate_graph(spec, 17) != other


def test_dfs_task_convention_directed_unweighted_no_source():
    g = generate_graph(GraphSpec(n=10, task=Task.DFS), 3)
    assert g.directed
    assert g.source is None
    assert all(w == 1 for _, _, w in edge_list(g))


def test_bf_task_convention_undirected_weighted_source_zero():
    g = generate_graph(GraphSpec(n=10, task=Task.BF), 3)
    assert not g.directed
    assert g.source == 0
    allowed = {Fraction(1, 3), Fraction(2, 3), Fraction(1)}
    weights = {w for _, _, w in edge_list(g)}
    assert weights <= allowed
    assert len(weights) > 1  # 10 vertices at default density: several weights


def test_unnormalized_weights_stay_integral():
    g = generate_graph(GraphSpec(n=10, task=Task.BF, normalize=False), 3)
    assert {w for _, _, w in edge_list(g)} <= {Fraction(1), Fraction(2), Fraction(3)}


def test_generate_graph_equals_the_fraction_build():
    # Integer rows built directly must equal Fraction edges through from_edges,
    # including n=1, empty graphs, single-weight sets and common factors.
    weight_sets = ((1, 2, 3), (2, 5, 7), (1, 4, 6), (4, 6), (3,), (6, 10, 15))
    cases = [
        (GraphSpec(n, p, Task.BF, weights, normalize), 17 * n + i)
        for n in (1, 2, 3, 5, 8, 20, 64)
        for i, (weights, normalize, p) in enumerate(
            itertools.product(weight_sets, (True, False), (None, 0.05, 0.5, 1))
        )
    ] + [
        (GraphSpec(n, p, Task.DFS), seed)
        for n in (1, 2, 3, 5, 8, 20, 64)
        for p in (None, 0.05, 0.5, 1)
        for seed in range(3)
    ]
    graphs = [generate_graph(spec, seed) for spec, seed in cases]
    assert graphs == [fraction_graph(spec, seed) for spec, seed in cases]
    assert any(not arc_list(g) for g in graphs if g.n > 1)
    assert any(
        1 < g.denominator < max(s.weight_set) for g, (s, _) in zip(graphs, cases) if s.normalize
    )


def test_density_defaults_resolve_per_task():
    assert GraphSpec(n=5, task=Task.DFS).edge_probability == DFS_EDGE_PROBABILITY
    assert GraphSpec(n=5, task=Task.BF).edge_probability == BF_EDGE_PROBABILITY
    assert GraphSpec(n=5, task=Task.BF, edge_probability=0.9).edge_probability == 0.9


def test_a_spec_stores_its_canonical_form():
    # The default density and the weight order are settled when the spec is
    # made, so two spellings of one recipe are one (hashable) value.
    assert GraphSpec(n=5) == GraphSpec(n=5, edge_probability=BF_EDGE_PROBABILITY)
    spec = GraphSpec(5, weight_set=[3, 1, 2])
    assert spec == GraphSpec(5, weight_set=(1, 2, 3)) and spec.weight_set == (1, 2, 3)
    assert hash(spec) == hash(GraphSpec(5, weight_set=(1, 2, 3)))
    assert generate_graph(spec, 4) == generate_graph(GraphSpec(5, weight_set=(2, 3, 1)), 4)


def test_full_density_gives_complete_graph():
    g = generate_graph(GraphSpec(n=6, edge_probability=1.0, task=Task.DFS), 0)
    assert all(g.weights[u][v] for u in range(6) for v in range(6) if u != v)


def test_generate_graph_rejects_bad_parameters():
    with pytest.raises(ValueError, match="size must be positive"):
        generate_graph(GraphSpec(n=0))
    with pytest.raises(ValueError, match="probability"):
        generate_graph(GraphSpec(n=3, edge_probability=0.0))
    with pytest.raises(ValueError, match="probability"):
        generate_graph(GraphSpec(n=3, edge_probability=1.5))
    with pytest.raises(ValueError, match="weight_set"):
        generate_graph(GraphSpec(n=3, weight_set=()))
    with pytest.raises(ValueError, match="weight_set"):
        generate_graph(GraphSpec(n=3, weight_set=(0, 1)))


def test_edge_count_matches_density():
    # Undirected n=5 has 10 candidate pairs; at p=0.5 the mean count is 5.
    counts = [
        len(arc_list(generate_graph(GraphSpec(n=5, edge_probability=0.5, task=Task.BF), s))) / 2
        for s in range(1000)
    ]
    assert abs(float(np.mean(counts)) - 5.0) < 0.25


def test_json_round_trip_preserves_fraction_weights(tmp_path, third_weight_line, unit_square):
    path = tmp_path / "graphs.json"
    graphs_to_json([third_weight_line, unit_square], path)
    loaded = graphs_from_json(path)
    assert loaded == [third_weight_line, unit_square]
    assert edge_list(loaded[0])[0] == (0, 1, Fraction(1, 3))
    assert '"1/3"' in path.read_text()


def test_sp_parents_pin_the_tight_parents(unit_square, third_weight_line):
    # The source keeps itself; unit_square's vertex 3 is tight through 1 and 2.
    assert unit_square.sp_costs == (0, 1, 1, 2)
    assert unit_square.sp_parents == ((0,), (0,), (0,), (1, 2))
    assert third_weight_line.sp_parents == ((0,), (0,), (1,))
    # 2-3 is unreachable from 0; infinity + w == infinity must not make 2 a
    # tight parent of 3, or 3 of 2.
    g = Graph.from_edges(4, [(0, 1, 1), (2, 3, 1)], directed=False, source=0)
    assert g.sp_costs == (0, 1, INFINITE_COST, INFINITE_COST)
    assert g.sp_parents == ((0,), (0,), (2,), (3,))


def test_tree_edges_drops_self_parents():
    assert tree_edges((0, 0, 1, 3)) == {(0, 1), (1, 2)}
    assert tree_edges((0, 1, 2)) == set()


def test_path_cost_walks_chain_exactly(third_weight_line):
    g = third_weight_line
    assert path_cost_from_source(g, (0, 0, 1), 0) == 0
    assert path_cost_from_source(g, (0, 0, 1), 2) == Fraction(2, 3)


def test_path_cost_unreachable_and_undefined_cases(third_weight_line):
    g = third_weight_line
    assert path_cost_from_source(g, (0, 1, 2), 2) == INFINITE_COST  # self-parent off source
    assert path_cost_from_source(g, (0, 2, 1), 1) is None  # pointer cycle 1<->2
    assert path_cost_from_source(g, (0, 0, 0), 2) is None  # edge 0-2 absent
    with pytest.raises(ValueError, match="length"):
        path_cost_from_source(g, (0, 0), 0)
    with pytest.raises(ValueError, match="out-of-range"):
        path_cost_from_source(g, (0, 0, -1), 2)
    sourceless = Graph.from_edges(2, [(0, 1, 1)], directed=True)
    with pytest.raises(ValueError, match="source"):
        path_cost_from_source(sourceless, (0, 0), 1)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 12), task=st.sampled_from(list(Task)))
def test_generated_graphs_are_well_formed(seed, n, task):
    g = generate_graph(GraphSpec(n=n, task=task), seed)
    assert g.n == n
    assert not any(g.weights[v][v] for v in range(n))
    for u, v, w in edge_list(g):
        assert w > 0
        if not g.directed:
            assert (v, u, w) in edge_list(g)


def test_each_distinct_weight_string_is_parsed_once(tmp_path):
    from treesample.graphs import _parse_weight

    gs = [generate_graph(GraphSpec(n=16), seed) for seed in range(5)]
    path = tmp_path / "graphs.json"
    graphs_to_json(gs, path)
    strings = {w for g in gs for _, _, w in g.to_dict()["edges"]}
    _parse_weight.cache_clear()
    assert graphs_from_json(path) == gs
    info = _parse_weight.cache_info()
    assert info.misses == len(strings) and info.hits > 10 * len(strings)
    # A refused string is refused again, each time naming its own edge.
    for bad in ("1/0", "1e5000"):
        for u, v in ((0, 1), (1, 2)):
            with pytest.raises(ValueError, match=rf"^edge \({u},{v}\) weight '{bad}'"):
                Graph.from_edges(3, [(u, v, bad)], directed=True)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=8,
)


def read_or_error(path):
    """The entries read_entries yields, or the type of the error it raises."""
    try:
        return list(read_entries(path, "graphs"))
    except (json.JSONDecodeError, ValueError) as exc:
        return type(exc)


def loads_or_error(text):
    """What read_entries must give for text: json.loads' list, or its error."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return json.JSONDecodeError
    return payload if isinstance(payload, list) else ValueError


@settings(max_examples=60, deadline=None)
@given(
    payload=st.lists(JSON_VALUES, max_size=6) | JSON_VALUES,
    indent=st.sampled_from([None, 0, 2]),
    tail=st.sampled_from(["", "\n", " \r\n\t", "]", "x", "[]", ",1"]),
    chunk=st.sampled_from([1, 2, 3, 7, 64]),
)
# Numbers that a window boundary cuts after a digit, an "e" or a ".".
@example(payload=[12, 1e16, 0.5, -3e-7], indent=None, tail="", chunk=1)
@example(payload=[12, 1e16, 0.5, -3e-7], indent=None, tail="", chunk=2)
def test_read_entries_agrees_with_json_loads(tmp_path_factory, payload, indent, tail, chunk):
    # Every prefix of the text, at any chunk size: an entry that a window
    # boundary splits ("1" of "1e5", say) is never decoded early, and data
    # after the list is an error.
    text = json.dumps(payload, indent=indent) + tail
    path = tmp_path_factory.mktemp("entries") / "entries.json"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphs, "_CHUNK", chunk)
        for end in range(len(text) + 1):
            path.write_text(text[:end])
            assert read_or_error(path) == loads_or_error(text[:end]), text[:end]
