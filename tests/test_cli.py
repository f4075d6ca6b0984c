import gc
import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

import rainbowdp as r
from helpers import (
    child_env,
    mechanism_of,
    random_dense_graph,
    random_simplex,
    rng,
    striped_grid_text,
    tailed_grid_text,
    verify_dp_reference,
)
from rainbowdp.cli.graphfile import GraphFile, GraphFileError, emit_graph_file, parse_graph_file
from rainbowdp.cli import graphfile
from rainbowdp.cli import main as cli_main
from rainbowdp.cli import tables
from rainbowdp.cli.main import main
from rainbowdp.cli.tables import (
    fmt,
    mechanism_csv,
    parse_mechanism_csv,
    parse_trajectory_csv,
)

FIXTURES = Path(__file__).parent.parent / "fixtures"

MINIMAL = """\
colors red blue
node a red blue
node b blue red
edge a b
boundary red,blue 0.6 0.4
boundary blue,red 0.5 0.5
"""


def test_parse_minimal_file():
    gf = parse_graph_file(MINIMAL)
    assert gf.graph.color_space.q == 2
    assert gf.graph.nodes == ("a", "b")
    assert gf.graph.edges == frozenset((("a", "b"),))
    assert gf.boundary is not None and len(gf.boundary.values) == 2


def test_parse_pentagon_fixture_matches_demo_regions():
    gf = parse_graph_file((FIXTURES / "pentagon.graph").read_text())
    graph = gf.graph
    assert r.decompose_regions(graph) is graph.rim
    c123 = graph.rainbows().index(graph.preference["d1"])
    members = graph.rainbow_ids == c123
    names = np.array(graph.nodes)
    assert sorted(names[members & graph.rim]) == ["d1", "d4"]
    assert sorted(names[members & ~graph.rim]) == ["d2", "d3"]


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("colors a b\nnode x a b\nedge x x\n", "self-loop", 3),
        ("colors a b\nnode x a c\n", "unknown color", 2),
        ("colors a b\nnode x a b\nnode x b a\n", "duplicate node", 3),
        ("colors a b\nnode x a b\nedge x y\n", "undeclared node", 3),
        ("colors a b\nnode x a b\nboundary a,b 0.5 oops\n", "malformed probability", 3),
        ("colors a b\nnode x a a\n", "not a permutation", 2),
        ("colors a b\nnode x a b\nboundary a,b 0.5\n", "boundary line needs", 3),
        ("colors a b\nnode x a b\nboundary a,b 0.9 0.4\n", "sum to", 3),
        ("colors a b\nnode x a b\nnode y a b\nedge x y\nedge y x\n", "duplicate edge", 5),
        ("node x a b\ncolors a b\n", "first directive", 1),
        ("colors a b\ncolors a b\n", "only once", 2),
        ("colors a b\nwhat x\n", "unknown directive", 2),
        # Directives that begin as "node" and "edge" do, and an endpoint
        # that is a declared 8-byte name and one byte more.
        ("colors a b\nnodes x a b\n", "unknown directive 'nodes'", 2),
        ("colors a b\nnode x a b\nnode y a b\nedgy x y\n", "unknown directive 'edgy'", 4),
        ("colors a b\nnode abcdefgh a b\nnode x a b\nedge x abcdefgh1\n", "undeclared node 'abcdefgh1'", 4),
        ("colors a,b c\n", "comma", 1),
        # Two or more errors: the first in line order is reported ...
        ("colors a b\nedge x x\nnode y a c\n", "self-loop", 2),
        ("colors a b\nnode x a b\nboundary a,b 0.9 0.4\nnode x b a\n", "sum to", 3),
        # ... except an edge's undeclared node, reported after the last line.
        ("colors a b\nnode x a b\nedge x y\nboundary a,b 0.9 0.4\n", "sum to", 4),
        ("colors a b\nedge y x\nnode x a b\nedge x z\n", "undeclared node 'y'", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment, line):
    with pytest.raises(GraphFileError) as exc:
        parse_graph_file(text)
    assert fragment in str(exc.value)
    assert exc.value.line == line


def test_undeclared_node_error_names_the_written_first_endpoint():
    # Both ends of the edge are undeclared: the error names the end the
    # file writes first, though the other sorts first.
    with pytest.raises(GraphFileError) as exc:
        parse_graph_file("colors a b\nnode z a b\nedge y x\n")
    assert exc.value.line == 3
    assert "undeclared node 'y'" in str(exc.value)


def test_edges_may_precede_the_nodes_they_name():
    lines = MINIMAL.splitlines()
    edge_first = "\n".join([lines[0], lines[3], *lines[1:3], *lines[4:]]) + "\n"
    assert edge_first.splitlines()[1] == "edge a b"
    gf, again = parse_graph_file(MINIMAL), parse_graph_file(edge_first)
    assert again.graph.nodes == gf.graph.nodes
    assert again.graph.edges == gf.graph.edges
    assert again.graph.preference == gf.graph.preference
    assert again.boundary.values == gf.boundary.values


def test_parse_peak_memory_is_bounded_by_the_result():
    n = 20_000
    text = "\n".join(
        ["colors a b c d"]
        + [f"node n{i} {'a b c d' if i % 2 else 'b a c d'}" for i in range(n)]
        + [f"edge n{i} n{i + 1}" for i in range(n - 1)]
        + ["boundary a,b,c,d 0.4 0.3 0.2 0.1", "boundary b,a,c,d 0.3 0.4 0.2 0.1"]
    ) + "\n"
    gc.collect()
    tracemalloc.start()
    try:
        gf = parse_graph_file(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(gf.graph.nodes) == n and len(gf.graph.edges) == n - 1
    assert peak <= 3 * held, (peak, held)


def test_line_read_peak_memory_is_bounded_by_the_result():
    # The same path after a comment line, which only the line reader reads.
    n = 20_000
    text = "\n".join(
        ["# a hand-written path", "colors a b c d"]
        + [f"node n{i} {'a b c d' if i % 2 else 'b a c d'}" for i in range(n)]
        + [f"edge n{i} n{i + 1}" for i in range(n - 1)]
        + ["boundary a,b,c,d 0.4 0.3 0.2 0.1", "boundary b,a,c,d 0.3 0.4 0.2 0.1"]
    ) + "\n"
    assert graphfile._parse_bytes(text) is None
    gc.collect()
    tracemalloc.start()
    try:
        gf = parse_graph_file(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(gf.graph.nodes) == n and len(gf.graph.edges) == n - 1
    assert peak <= 3 * held, (peak, held)


BULK_SHAPES = ("path", "grid", "dense", "long")


def _bulk_read_text(shape: str) -> str:
    if shape == "path":
        return _split_path_text(20_000)
    if shape == "grid":
        return striped_grid_text(60, 4, 5, seed=1, spread=0.02)
    dense = random_dense_graph(rng(3), n=1500, extra_edges=15_000, n_rainbows=30, q=8)
    if shape == "long":
        # The dense graph with 12-byte ids, two words each in the bulk reader.
        name = {d: f"node_{i:07d}" for i, d in enumerate(dense.nodes)}
        dense = r.RainbowGraph(
            name.values(), [(name[a], name[b]) for a, b in dense.edges],
            {name[d]: c for d, c in dense.preference.items()}, dense.color_space,
        )
    return emit_graph_file(GraphFile(dense, None))


def test_the_emitted_form_is_read_in_bulk(monkeypatch):
    # Files as emit_graph_file and the benchmark's generator write them
    # never reach the line reader.
    texts = [
        emit_graph_file(parse_graph_file((FIXTURES / name).read_text()))
        for name in ("pentagon.graph", "path5.graph")
    ]
    texts += [striped_grid_text(12, 3, 4, seed=5, spread=0.02), *map(_bulk_read_text, BULK_SHAPES)]

    def refuse(text):
        raise AssertionError("the line reader ran")

    monkeypatch.setattr(graphfile, "_parse_lines", refuse)
    for text in texts:
        assert len(parse_graph_file(text).graph.nodes) > 0


@pytest.mark.parametrize("shape", BULK_SHAPES)
def test_bulk_read_peaks_no_higher_than_the_line_reader(shape):
    text = _bulk_read_text(shape)

    def peak(reader) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            reader(text)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(parse_graph_file) <= peak(graphfile._parse_lines)


NAME_SETS = {
    "one-word": ["q0000000", "b", "zz", "a7", "m1234567", "a", "b1"],
    "two-to-four-words": ["node_000000012", "node_000000003", "a_very_long_node_name_30_bytes", "abcdefghi"],
    "prefixes": ["abcdefghi", "ab", "abcdefgh1", "a", "abcdefghijklmnopq", "abcdefgh", "abc"],
}


@pytest.mark.parametrize("names", NAME_SETS.values(), ids=NAME_SETS)
def test_name_order_is_the_sorted_order_whoever_builds_the_graph(names):
    # The bulk reader hands over its sort of the name keys; the line
    # reader (a comment line sends the file there), the string constructor
    # and from_ids sort the names on first read.
    text = "\n".join(
        ["colors a b", *(f"node {d} {'a b' if k % 2 else 'b a'}" for k, d in enumerate(names))]
        + [f"edge {a} {b}" for a, b in zip(names, names[1:])]
    ) + "\n"
    bulk = graphfile._parse_bytes(text).graph
    assert "name_order" in vars(bulk) and graphfile._parse_bytes("# a comment\n" + text) is None
    lines = parse_graph_file("# a comment\n" + text).graph
    assert "name_order" not in vars(lines)
    given = np.array(sorted(range(len(names)), key=names.__getitem__))
    graphs = [
        bulk, lines, r.RainbowGraph(bulk.nodes, bulk.edges, bulk.preference, bulk.color_space),
        r.RainbowGraph.from_ids(bulk.nodes, bulk.rainbow_ids, bulk.rainbows(), bulk.edge_ends, bulk.color_space),
        r.RainbowGraph.from_ids(bulk.nodes, bulk.rainbow_ids, bulk.rainbows(), bulk.edge_ends, bulk.color_space, given),
    ]
    for graph in graphs:
        assert graph.nodes == tuple(names)
        assert graph.name_order.tolist() == sorted(range(len(names)), key=names.__getitem__)
        with pytest.raises(ValueError, match="read-only"):
            graph.name_order[0] = 1
    # from_ids keeps the order it is given, not a copy, and leaves it writable.
    assert graphs[-1].name_order.base is given and given.flags.writeable


def test_graph_file_round_trip():
    gf = parse_graph_file((FIXTURES / "pentagon.graph").read_text())
    again = parse_graph_file(emit_graph_file(gf))
    assert again.graph.nodes == gf.graph.nodes
    assert again.graph.edges == gf.graph.edges
    assert again.graph.preference == gf.graph.preference
    assert again.graph.color_space == gf.graph.color_space
    assert again.boundary.values == gf.boundary.values
    assert emit_graph_file(again) == emit_graph_file(gf)
    # Boundary cells are exact, so a 15-digit entry comes back within the
    # few ulps of the parsed vector's renormalization.
    c = min(gf.boundary.values, key=lambda c: c.order)
    vec = r.SimplexVector((0.123456789012345, 0.276543210987655, 0.6))
    deep = GraphFile(gf.graph, r.BoundaryCondition({**gf.boundary.values, c: vec}))
    back = parse_graph_file(emit_graph_file(deep)).boundary.values[c]
    assert all(abs(a - b) <= 4 * math.ulp(b) for a, b in zip(back, vec))


@pytest.mark.parametrize(
    "kind, name",
    [("color", "r g"), ("color", "r#"), ("color", "r,"), ("node", "a b"), ("node", "a\tb"),
     ("node", "c#1"), ("node", "a,1"), ("node", "")],
)
def test_emit_graph_file_rejects_names_the_format_cannot_carry(kind, name):
    # Such a name would be read back as other names, or not at all.
    colors, nodes = ((name, "b"), ("x", "y")) if kind == "color" else (("r", "b"), (name, "y"))
    rainbow = r.Rainbow((0, 1))
    graph = r.RainbowGraph(nodes, frozenset({nodes}), {d: rainbow for d in nodes}, r.ColorSpace(colors))
    with pytest.raises(ValueError, match=f"^{kind} name {re.escape(repr(name))} "):
        emit_graph_file(GraphFile(graph, None))


def test_mechanism_csv_round_trip():
    gf = parse_graph_file((FIXTURES / "path5.graph").read_text())
    mech = r.optimal_mechanism(gf.graph, gf.boundary, r.PrivacyBudget(math.log(2), 0.0))
    text = mechanism_csv(gf.graph, mech)
    parsed = parse_mechanism_csv(text, gf.graph)
    assert parsed.nodes is gf.graph.nodes
    for d in gf.graph.nodes:
        assert parsed.assignment[d].p == mech.assignment[d].p
    assert mechanism_csv(gf.graph, parsed) == text


def _bare_graph(colors: tuple[str, ...], nodes) -> r.RainbowGraph:
    # A graph on the named nodes with no edges, every node preferring the
    # colors in order: what parse_mechanism_csv reads of a graph.
    rainbow = r.Rainbow(tuple(range(len(colors))))
    return r.RainbowGraph(nodes, (), dict.fromkeys(nodes, rainbow), r.ColorSpace(colors))


def _rejection(text: str, graph: r.RainbowGraph, tmp_path: Path) -> str:
    # The message parse_mechanism_csv rejects the text with, which must be
    # the one it rejects a file of the text's bytes with, opened as verify
    # opens it and read a block at a time.
    path = tmp_path / "mechanism.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError) as from_text:
        parse_mechanism_csv(text, graph)
    with open(path, encoding="utf-8") as fh, pytest.raises(ValueError) as from_file:
        parse_mechanism_csv(fh, graph)
    assert str(from_file.value) == str(from_text.value)
    return str(from_text.value)


def test_parse_mechanism_csv_resolves_node_rows_by_graph_id():
    # Node ids follow the node lines, m z b q, not name order, and q is
    # named by an edge before its node line. The CSV's lines come in a
    # third order, which numbers its rows; each node id gets its own
    # line's row, and the emitter writes the file it came from.
    gf = parse_graph_file(
        "colors a b c\nnode m a b c\nedge m q\nnode z b a c\nnode b a b c\nnode q a b c\n"
        "edge z b\nedge q z\n"
    )
    graph = gf.graph
    assert graph.nodes == ("m", "z", "b", "q")
    rows = {"m": (0.5, 0.3, 0.2), "z": (0.1, 0.6, 0.3), "b": (0.2, 0.2, 0.6), "q": (0.7, 0.2, 0.1)}
    text = mechanism_csv(graph, mechanism_of(graph, {d: r.SimplexVector(v) for d, v in rows.items()}))
    head, *lines = text.splitlines(keepends=True)
    by_name = {line.split(",", 1)[0]: line for line in lines}
    parsed = parse_mechanism_csv(head + "".join(by_name[d] for d in ("q", "b", "z", "m")), graph)
    assert parsed.nodes is graph.nodes
    assert parsed.node_rows.tolist() == [3, 2, 1, 0]
    for i, d in enumerate(graph.nodes):
        assert tuple(parsed.rows[parsed.node_rows[i]].tolist()) == r.SimplexVector(rows[d]).p
    assert mechanism_csv(graph, parsed) == text


def test_parse_mechanism_csv_reports_unknown_nodes_before_missing_ones():
    graph = _bare_graph(("1", "2"), ("w", "x", "y", "z"))
    head = "node,1,2\n"
    with pytest.raises(tables.MissingNodes, match=r"^mechanism file is missing nodes \(2\): \['w', 'y'\]$"):
        parse_mechanism_csv(head + "z,0.5,0.5\nx,0.5,0.5\n", graph)
    # A row for an undeclared node is reported even with nodes missing,
    # and a bad line before either.
    with pytest.raises(ValueError, match=r"^mechanism file has rows for undeclared nodes \(1\): \['v'\]$"):
        parse_mechanism_csv(head + "v,0.5,0.5\nx,0.5,0.5\n", graph)
    with pytest.raises(ValueError, match=r"^line 3: entries sum to 1\.1, not 1$"):
        parse_mechanism_csv(head + "v,0.5,0.5\nx,0.5,0.6\n", graph)
    # A repeated undeclared name is a duplicate row, as a declared one is.
    with pytest.raises(ValueError, match=r"^line 3: duplicate row for node 'v'$"):
        parse_mechanism_csv(head + "v,0.5,0.5\nv,0.5,0.5\n", graph)
    # main() maps MissingNodes to exit 4 and ValueError to exit 1.
    assert not issubclass(tables.MissingNodes, ValueError)


# Lines of a mechanism CSV on NAMED_ROWS' nodes, declared out of name
# order, so that a line's place in name order is not its node id; the
# texts repeat, so rows are shared.
NAMED_ROWS = {f"n{i}": ("0.5,0.5", "0.25,0.75", "1.0,0.0")[i % 3] for i in (3, 0, 7, 5, 1, 6, 2, 4)}


def _named_lines(*names: str) -> str:
    return "node,1,2\n" + "".join(f"{d},{NAMED_ROWS.get(d, '0.5,0.5')}\n" for d in names)


def _named_graph() -> r.RainbowGraph:
    # From ids, so that its name index is built only if the parser reads it.
    g = _bare_graph(("1", "2"), NAMED_ROWS)
    return r.RainbowGraph.from_ids(g.nodes, g.rainbow_ids, g.rainbows(), g.edge_ends, g.color_space)


@pytest.mark.parametrize(
    "names",
    [
        ("n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7"),
        ("n7", "n6", "n5", "n4", "n3", "n2", "n1", "n0"),
        ("n5", "n2", "n7", "n0", "n4", "n1", "n6", "n3"),
        ("n0", "n1", "n3", "n2", "n4", "n5", "n6", "n7"),
        ("", "n0", "n1", "n2", "", "n3", "n4", "n5", "n6", "n7", ""),
    ],
    ids=["in-order", "reversed", "shuffled", "two-swapped", "blank-lines"],
)
def test_mechanism_csv_lines_in_or_out_of_name_order(names):
    # Lines in name order are matched by position, others through the name
    # index from the first line out of order; either way each node gets
    # its line's row, numbered in order of first appearance. A name ""
    # stands for a blank line and a line of spaces.
    text = _named_lines(*names).replace("\n,0.5,0.5\n", "\n\n  \n")
    graph = _named_graph()
    mech = parse_mechanism_csv(text, graph)
    names = [d for d in names if d]
    texts = list(dict.fromkeys(map(NAMED_ROWS.__getitem__, names)))
    assert mech.rows.tolist() == [list(map(float, t.split(","))) for t in texts]
    assert mech.node_rows.tolist() == [texts.index(NAMED_ROWS[d]) for d in graph.nodes]
    assert ("node_index" in vars(graph)) == (names != sorted(names))


@pytest.mark.parametrize(
    "names,message",
    [
        (("n0", "n1", "n2", "n3", "n5", "n6", "n7"), "mechanism file is missing nodes (1): ['n4']"),
        (("n1", "n2", "n3", "n4", "n5", "n6", "n7"), "mechanism file is missing nodes (1): ['n0']"),
        (("n0", "n1", "n2", "n2", "n3", "n4", "n5", "n6", "n7"), "line 5: duplicate row for node 'n2'"),
        (("n0", "n1", "n2", "x", "n3", "n4", "n5", "n6", "n7"),
         "mechanism file has rows for undeclared nodes (1): ['x']"),
        (("n0", "n1", "x", "n2", "x", "n3", "n4", "n5", "n6", "n7"), "line 6: duplicate row for node 'x'"),
        (("n0", "y", "n1", "n2", "x", "n3", "n4", "n5", "n6", "n7"),
         "mechanism file has rows for undeclared nodes (2): ['x', 'y']"),
        (("n0", "n1", "n2", "n3", "n4", "n5", "n6"), "mechanism file is missing nodes (1): ['n7']"),
        (("n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7", "n0"), "line 10: duplicate row for node 'n0'"),
    ],
    ids=["missing-mid", "missing-first", "duplicate-after-match", "undeclared-once", "undeclared-twice",
         "two-undeclared", "missing-last", "duplicate-after-the-last"],
)
def test_mechanism_csv_faults_in_or_out_of_name_order(names, message):
    kind = tables.MissingNodes if message.startswith("mechanism file is missing") else ValueError
    with pytest.raises(kind) as exc:
        parse_mechanism_csv(_named_lines(*names), _named_graph())
    assert str(exc.value) == message


def test_mechanism_csv_short_row_in_name_order(tmp_path):
    text = _named_lines("n0", "n1", "n2", "n3").replace("n2,1.0,0.0", "n2,1.0")
    assert _rejection(text, _named_graph(), tmp_path) == "line 4: expected 3 cells, got 2"


def test_mechanism_csv_rows_for_shared_and_distinct_vectors():
    gf = parse_graph_file(
        "colors x y z\nnode a x y z\nnode b x y z\nnode c x y z\nedge a b\nedge b c\n"
    )
    shared = r.SimplexVector((0.5, 0.25, 0.25))
    mech = mechanism_of(gf.graph, {"c": shared, "a": shared, "b": r.SimplexVector((0.5, 0.5, 0.0))})
    assert mechanism_csv(gf.graph, mech) == (
        "node,x,y,z\na,0.5,0.25,0.25\nb,0.5,0.5,0.0\nc,0.5,0.25,0.25\n"
    )


def test_mechanism_csv_errors_give_physical_line_numbers(tmp_path):
    graph = _bare_graph(("1", "2"), ("x", "y"))
    assert _rejection("node,1,2\n\nx,0.5,0.5\n\n\ny,0.5,0.6\n", graph, tmp_path) == "line 6: entries sum to 1.1, not 1"
    assert _rejection("\nnode,1,2\nx,0.5,0.5\n\nx,0.5,0.5\n", graph, tmp_path) == "line 5: duplicate row for node 'x'"
    assert _rejection("\n  \n", graph, tmp_path) == "empty mechanism file"


def test_mechanism_csv_row_sum_is_added_left_to_right():
    # A compensated sum, builtin sum() from Python 3.12 on, gives 1.1.
    graph = _bare_graph(("1", "2", "3", "4"), ("x",))
    with pytest.raises(ValueError, match=r"^line 2: entries sum to 1\.0999999999999999, not 1$"):
        parse_mechanism_csv("node,1,2,3,4\nx,0.7,0.1,0.1,0.2\n", graph)


def test_mechanism_csv_writes_no_negative_zero():
    gf = parse_graph_file("colors x y\nnode a x y\nnode b y x\nedge a b\n")
    mech = r.Mechanism(np.array([[1.0, -0.0]]), [0, 0], gf.graph.nodes, gf.graph.color_space)
    assert mechanism_csv(gf.graph, mech) == "node,x,y\na,1.0,0.0\nb,1.0,0.0\n"


def test_mechanism_csv_rejects_cells_off_the_simplex_by_line():
    # Rows are taken as read: a cell that is not finite or lies outside
    # [0, 1] by more than NEGATIVE_WINDOW is reported with its line; a
    # row sum is checked first, and nan passes it.
    graph = _bare_graph(("1", "2", "3"), ("x", "y"))
    head = "node,1,2,3\nx,0.2,0.3,0.5\n\n"
    for row, message in (
        ("y,nan,0.5,0.5", "entry nan outside [0, 1]"),
        ("y,inf,0.5,0.5", "entries sum to inf, not 1"),
        ("y,-inf,inf,0.5", "entry -inf outside [0, 1]"),
        ("y,1.5,-0.5,0.0", "entry 1.5 outside [0, 1]"),
        ("y,0.5,0.5000000011,-0.0000000011", "entry -1.1e-09 outside [0, 1]"),
    ):
        with pytest.raises(ValueError) as exc:
            parse_mechanism_csv(head + row + "\n", graph)
        assert str(exc.value) == f"line 4: {message}"
    # Inside the window a row is kept as it is, with no clamping.
    mech = parse_mechanism_csv(head + "y,0.5,0.5000000005,-0.0000000005\n", graph)
    assert mech.rows[mech.node_rows[1]].tolist() == [0.5, 0.5000000005, -0.0000000005]
    assert mech.assignment["y"].p == (0.5, 0.5000000005, -0.0000000005)


def test_mechanism_csv_reports_the_first_failing_line(tmp_path):
    graph = _bare_graph(("1", "2"), ("w", "x", "y", "z"))
    cases = (
        # A bad sum on an earlier line than a line that fails to read.
        ("node,1,2\nx,0.5,0.6\n\ny,0.5\n", "line 2: entries sum to 1.1, not 1"),
        ("node,1,2\nx,0.5,0.5\ny,nan,1\nx,0.5,0.5\n", "line 3: entry nan outside [0, 1]"),
        ("node,1,2\nx,0.5,0.5\ny,0.5,abc\nz,2,-1\n", "line 3: could not convert string to float: 'abc'"),
        ("node,1,2\nx,0.5,0.5\nx,0.5,0.5\nz,2,-1\n", "line 3: duplicate row for node 'x'"),
        ("node,1,2\n\nx,0.5,0.5\ny,0.5,0.5,0\nz,2,-1\n", "line 4: expected 3 cells, got 4"),
        ("node,1,2\nx,0.5,0.5\ny,0.7,0.3\nz,2,-1\nw,0.5\n", "line 4: entry 2.0 outside [0, 1]"),
    )
    for text, message in cases:
        assert _rejection(text, graph, tmp_path) == message


def test_mechanism_csv_parses_each_distinct_row_once(monkeypatch):
    # 10,000 nodes share 3 row texts: the matrix has 3 rows, each distinct
    # text is handed to the cell reader exactly once, and every node's row
    # is the float() of its own line's cells, bit for bit.
    texts = ["0.5,0.25,0.25", "0.1,0.2,0.7", "1.0,0.0,0.0"]
    n = 10_000
    text = "node,a,b,c\n" + "".join(f"n{i},{texts[i % 3]}\n" for i in range(n))
    read = []
    read_cells = tables._read_cells

    def counted_read(cells, block, q):
        read.extend(block)
        read_cells(cells, block, q)

    monkeypatch.setattr(tables, "_read_cells", counted_read)
    mech = parse_mechanism_csv(text, _bare_graph(("a", "b", "c"), [f"n{i}" for i in range(n)]))
    assert mech.rows.shape == (3, 3)
    assert sorted(read) == sorted(texts)
    for i in range(n):
        want = np.array([float(x) for x in texts[i % 3].split(",")])
        assert mech.rows[mech.node_rows[i]].tobytes() == want.tobytes()


def _float_only_read(cells, block, q):
    # The reference cell reader: float() on every cell.
    cells.extend(map(float, ",".join(block).split(",")))


def _parse_outcome(text: str, graph: r.RainbowGraph):
    # The parsed rows and row ids as bytes, or the error message.
    try:
        mech = parse_mechanism_csv(text, graph)
    except ValueError as exc:
        return str(exc)
    return mech.rows.tobytes(), mech.node_rows.tobytes()


# Cells that numpy's reader and float() read alike, that only float()
# reads, and that neither reads.
_ODD_CELLS = [
    " 0.5", "0.5 ", "+.5", "5.", "1E-5", "\xa00.5",
    "0.2_5", "\u0660.\u0665",
    "nan", "-nan", "inf", "1e500",
    "nan(123)", "0x1p-2", "0.5#1", "1.5.2", "",
]


def _row_with(cell: str, first: bool) -> str:
    # A two-cell row text holding cell first or last; the other cell makes
    # the sum 1 where float() reads cell inside [0, 1].
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    fill = repr(1.0 - value) if 0.0 <= value <= 1.0 else "0.5"
    return f"{cell},{fill}" if first else f"{fill},{cell}"


@pytest.mark.parametrize("odd", [*_ODD_CELLS, None], ids=[*map(repr, _ODD_CELLS), "empty-row"])
def test_mechanism_csv_cells_read_as_float_reads_them(monkeypatch, odd):
    # 5,000 distinct rows, two blocks of them: a row with the odd cell (or
    # the row text ",") as the first, a middle and the last row of the first
    # block, and as the file's last row, gives the rows, or the message and
    # line, that float() on every cell gives.
    n = 5000
    names = [f"n{i}" for i in range(n)]
    graph = _bare_graph(("1", "2"), names)
    for k, at in enumerate((0, 2048, 4095, n - 1)):
        rows = [f"{i / 8192!r},{1 - i / 8192!r}" for i in range(n)]
        rows[at] = "," if odd is None else _row_with(odd, first=k % 2 == 0)
        text = "node,1,2\n" + "".join(f"{name},{row}\n" for name, row in zip(names, rows))
        got = _parse_outcome(text, graph)
        with monkeypatch.context() as patched:
            patched.setattr(tables, "_read_cells", _float_only_read)
            assert got == _parse_outcome(text, graph)


def test_mechanism_csv_repr_and_17_digit_cells_read_as_float_reads_them(monkeypatch):
    # The same random rows written as repr and as %.17g read to the same
    # bits, which are the float() of each cell.
    q, n = 5, 5000
    rows = rng(7).dirichlet(np.ones(q), n)
    names = [f"n{i}" for i in range(n)]
    graph = _bare_graph(tuple(map(str, range(q))), names)
    got = []
    for form in (repr, "%.17g".__mod__):
        text = "node,0,1,2,3,4\n" + "".join(
            f"{name}," + ",".join(map(form, row)) + "\n" for name, row in zip(names, rows.tolist())
        )
        got.append(_parse_outcome(text, graph))
        with monkeypatch.context() as patched:
            patched.setattr(tables, "_read_cells", _float_only_read)
            assert got[-1] == _parse_outcome(text, graph)
    assert got[0] == got[1] == (rows.tobytes(), np.arange(n, dtype=np.intp).tobytes())


def _repr_reference_csv(graph: r.RainbowGraph, mech: r.Mechanism) -> str:
    # Per cell repr, with -0.0 written as 0.0, one line per node in name order.
    lines = ["node," + ",".join(graph.color_space.colors)]
    for i in graph.name_order.tolist():
        row = mech.rows[mech.node_rows[i]].tolist()
        lines.append(graph.nodes[i] + "," + ",".join(repr(abs(x)) if x == 0 else repr(x) for x in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("q", range(2, 13))
def test_mechanism_csv_writes_each_cell_as_its_repr(q):
    # Rows holding -0.0, subnormal and smallest normal cells, 1e-05 and
    # 0.0001 (where repr changes notation), 0.0, 1.0, and random 17-digit
    # cells, with row counts on both sides of the format slice length.
    special = [-0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 0.0001, 0.0, 1.0, 0.30000000000000004]
    per_slice = tables._ROWS_PER_FORMAT
    for count in (1, per_slice - 1, per_slice, per_slice + 1, 2 * per_slice + 3):
        rows = rng(q * count).dirichlet(np.ones(q), count)
        for i in range(0, count, 2):
            v = special[i // 2 % len(special)]
            rows[i] = -0.0
            rows[i, i % q], rows[i, (i + 1) % q] = v, 1.0 - v
        names = [f"n{i:05d}" for i in range(count)]
        graph = _bare_graph(tuple(f"c{k}" for k in range(q)), names)
        mech = r.Mechanism(rows, np.arange(count)[::-1], graph.nodes, graph.color_space)
        assert mechanism_csv(graph, mech) == _repr_reference_csv(graph, mech)


@pytest.mark.parametrize(
    "text,message",
    [
        # A bad row that repeats is reported where it first appears.
        ("node,1,2\nx,0.5,0.5\ny,0.5,0.6\nz,0.5,0.5\nw,0.5,0.6\n", "line 3: entries sum to 1.1, not 1"),
        ("node,1,2\nx,0.5,0.5\ny,0.5,abc\nz,0.5,abc\nx,0.5,0.5\n", "line 3: could not convert string to float: 'abc'"),
        # A repeated row text with the wrong cell count, at its first line.
        ("node,1,2\nx,0.5,0.5\ny,0.5,0.5,0\nz,0.5,0.5,0\n", "line 3: expected 3 cells, got 4"),
        # A duplicate node whose row text is identical to its first one.
        ("node,1,2\nx,0.5,0.5\ny,0.3,0.7\nx,0.5,0.5\n", "line 4: duplicate row for node 'x'"),
        # A cell that fails to read precedes a later duplicate node.
        ("node,1,2\nx,0.5,oops\ny,0.5,0.5\ny,0.5,0.5\n", "line 2: could not convert string to float: 'oops'"),
        # Blank lines between rows count as lines.
        ("node,1,2\n\nx,0.5,0.5\n  \n\ny,0.5,0.5\n\t\nz,0.5,0.6\nw,0.5,0.5\n", "line 8: entries sum to 1.1, not 1"),
        ("node,1,2\n\nx,0.5,0.5\n\ny,0.5,0.5\n\nx,0.5,0.5\n", "line 7: duplicate row for node 'x'"),
        ("node,1,2\n\nx,0.5,0.5\n \ny\n", "line 5: expected 3 cells, got 1"),
    ],
)
def test_mechanism_csv_distinct_rows_keep_error_lines(tmp_path, text, message):
    assert _rejection(text, _bare_graph(("1", "2"), ("w", "x", "y", "z")), tmp_path) == message


def test_mechanism_csv_distinct_rows_read_in_blocks_keep_error_lines(tmp_path):
    # A cell that fails to read in the second block of distinct rows is
    # reported on its line, after the first bad row before it, if any.
    rows = [f"n{i},{i / 8192!r},{1 - i / 8192!r}" for i in range(6000)]
    graph = _bare_graph(("1", "2"), [row.split(",")[0] for row in rows])
    rows[4500] = "bad,0.5,x"
    text = "node,1,2\n" + "\n".join(rows) + "\n"
    assert _rejection(text, graph, tmp_path) == "line 4502: could not convert string to float: 'x'"
    rows[4400] = "off,0.5,0.6"
    text = "node,1,2\n" + "\n".join(rows) + "\n"
    assert _rejection(text, graph, tmp_path) == "line 4402: entries sum to 1.1, not 1"


def _line_break_texts() -> list[str]:
    # Texts whose line breaks fall on the block boundary: a CR LF pair cut
    # by it, a lone CR and a form feed just before it, a line straddling
    # it, a line longer than two blocks, other breaks splitlines knows,
    # no final newline, and nothing at all.
    n = tables._BLOCK_CHARS
    return [
        "a" * (n - 1) + "\r\nb\r\n",
        "a" * (n - 1) + "\rb\n\x0cc",
        "a" * (n - 5) + "\n" + "b" * 10 + "\n\nc",
        "a\n" + "b" * (2 * n + 7) + "\r\n\n",
        "x\x85y\u2028z\x1c\n" * n,
        "last line has no newline",
        "",
    ]


@pytest.mark.parametrize("case", range(len(_line_break_texts())))
def test_numbered_lines_reads_text_and_files_as_splitlines_does(tmp_path, case):
    text = _line_break_texts()[case]
    path = tmp_path / "lines.txt"
    path.write_bytes(text.encode())
    want = list(enumerate(text.splitlines(), 1))
    assert list(tables.numbered_lines(text)) == want
    # newline="" keeps every CR as written, so the file has the text's lines.
    with open(path, encoding="utf-8", newline="") as fh:
        assert list(tables.numbered_lines(fh)) == want


@pytest.mark.parametrize("eol,before", [("\n", 0), ("\n", 10), ("\r\n", 0)])
def test_mechanism_csv_read_across_blocks(tmp_path, eol, before):
    # A 4000-row CSV with no final newline, padded by a blank first line so
    # that a line end starts `before` characters ahead of the last one of
    # the first block: an LF ends the block, a line straddles the boundary,
    # or a CR LF pair is cut by it. Text, and a file opened as verify opens
    # it, give the rows of the LF text, and the same error lines.
    n = tables._BLOCK_CHARS
    rows = [f"n{i},{i / 8192!r},{1 - i / 8192!r}" for i in range(4000)]
    graph = _bare_graph(("1", "2"), [row.split(",")[0] for row in rows])
    want = parse_mechanism_csv("node,1,2\n" + "\n".join(rows) + "\n", graph)
    body = "node,1,2" + eol + eol.join(rows)
    pad = " " * (n - 1 - before - len(eol) - body.index(eol, n - 100)) + eol
    text = pad + body
    assert text[n - 1 - before:n - 1 - before + len(eol)] == eol and "\n" not in text[n - before:n]
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode())
    with open(path, encoding="utf-8") as fh:
        for mech in (parse_mechanism_csv(text, graph), parse_mechanism_csv(fh, graph)):
            assert mech.rows.tobytes() == want.rows.tobytes()
            assert mech.node_rows.tolist() == want.node_rows.tolist()
    rows[3000] = "n3000,0.5,0.6"
    text = pad + "node,1,2" + eol + eol.join(rows)
    assert _rejection(text, graph, tmp_path) == "line 3003: entries sum to 1.1, not 1"


@pytest.mark.parametrize(
    "head,bad",
    [(0, b"\xff"), (4000, b"\xff"), (100_000, b"\xff"), (65_516, b"\xe2\x82("), (65_517, b"\xe2\x82(")],
    ids=["0", "4000", "100000", "cut-after-2", "cut-after-1"],
)
def test_cmd_verify_rejects_a_byte_that_is_not_utf8(tmp_path, capsys, head, bad):
    # A bad byte in the first block or after it, or a bad three-byte
    # sequence cut after its first two bytes or its first byte by the end
    # of the file's first piece read (65,536 bytes on CPython 3.11): one
    # error line, exit 1, and the byte's position in the file, as decoding
    # the whole file gives it.
    graph = tmp_path / "g.graph"
    graph.write_text("colors a b\nnode x a b\nboundary a,b 0.5 0.5\n")
    mech = tmp_path / "m.csv"
    data = b"node,a,b\n" + b"\n" * head + b"x,0.5,0.5" + bad + b"\n"
    mech.write_bytes(data)
    assert main(["verify", str(graph), str(mech), "--e-epsilon", "2"]) == 1
    out, err = capsys.readouterr()
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    assert whole.value.start == head + 18
    assert out == "" and err == f"error: {whole.value}\n"


def test_build_and_verify_leave_the_string_views_unbuilt(tmp_path, monkeypatch, capsys):
    # The CLI runs on node ids: the name-pair edges, the preference dict
    # and, on a file in the emitted form with a CSV in name order (here
    # with one row changed, then with its last line cut), the name index
    # of the parsed graph are never built.
    graphs = []

    def parse(text):
        gf = parse_graph_file(text)
        graphs.append(gf.graph)
        return gf

    monkeypatch.setattr(cli_main, "parse_graph_file", parse)
    graph_file = tmp_path / "grid.graph"
    graph_file.write_text(striped_grid_text(12, 3, 4, seed=5, spread=0.02))
    out = tmp_path / "m.csv"
    budget = ["--epsilon", "0.4", "--delta", "0.001"]
    assert main(["build", str(graph_file), "--out", str(out), *budget]) == 0
    assert main(["verify", str(graph_file), str(out), *budget]) == 0
    rows = out.read_text().splitlines()
    first = rows[1].split(",")
    rows[1] = ",".join([first[0], "1.0", *["0.0"] * (len(first) - 2)])
    out.write_text("\n".join(rows) + "\n")
    assert main(["verify", str(graph_file), str(out), *budget]) == 2
    out.write_text("\n".join(rows[:-1]) + "\n")
    assert main(["verify", str(graph_file), str(out), *budget]) == 4
    capsys.readouterr()
    assert len(graphs) == 4
    for graph in graphs:
        assert "edges" not in vars(graph) and "preference" not in vars(graph)
        assert "node_index" not in vars(graph)


def _split_path_text(n: int) -> str:
    # The deep-path shape: two rainbows meeting in the middle of a path.
    nodes = [f"node n{i:05d} " + ("a b c d" if i < n // 2 else "b a c d") for i in range(n)]
    edges = [f"edge n{i:05d} n{i + 1:05d}" for i in range(n - 1)]
    boundary = ["boundary a,b,c,d 0.4 0.3 0.2 0.1", "boundary b,a,c,d 0.4 0.3 0.2 0.1"]
    return "\n".join(["colors a b c d", *nodes, *edges, *boundary]) + "\n"


def test_build_then_verify_exact_round_trip_on_a_deep_path(tmp_path, capsys):
    # The optimum is tight: its binding edges have an excess of exactly
    # delta, which a rounded cell pushes past verify's tolerance.
    graph_path = tmp_path / "path.graph"
    graph_path.write_text(_split_path_text(3000))
    out = tmp_path / "path.csv"
    budget = ["--epsilon", "1e-4", "--delta", "1e-7"]
    assert main(["build", str(graph_path), *budget, "--out", str(out)]) == 0
    assert main(["verify", str(graph_path), str(out), *budget]) == 0
    assert capsys.readouterr().out == "valid\n"


def _traced(call):
    # call()'s result, and the memory tracemalloc saw it hold at its end
    # and at its peak.
    gc.collect()
    tracemalloc.start()
    try:
        return call(), *tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_build_and_verify_peak_memory_on_a_deep_path(tmp_path, capsys):
    # Neither command holds the mechanism CSV's whole text, its bytes or a
    # list of every row: build writes it a block of nodes at a time and
    # verify reads it a block of lines at a time, resolving names to node
    # ids as it goes, and neither builds the graph's name index. The unit
    # is what the parsed graph holds once that index is built. In that
    # unit the peaks are 2.24 (build, the first on so large a graph) and
    # 2.25 (verify); they were 3.00 and 2.74 when both built the index, and
    # 3.66 and 3.85 when both also held the whole text (Python 3.11, numpy
    # 2.4). The bounds leave a margin of about 10%.
    text = _split_path_text(50_000)
    graph_path, out = tmp_path / "path.graph", tmp_path / "path.csv"
    graph_path.write_text(text)
    budget = ["--epsilon", "1e-4", "--delta", "1e-7"]
    assert main(["build", str(FIXTURES / "path5.graph"), "--e-epsilon", "2", "--out", str(out)]) == 0
    assert main(["verify", str(FIXTURES / "path5.graph"), str(out), "--e-epsilon", "2"]) == 0

    def indexed():
        gf = parse_graph_file(text)
        gf.graph.node_index
        return gf

    fresh, graph = _traced(lambda: parse_graph_file(text))[1], _traced(indexed)[1]
    # Without its name index the parsed graph holds 4.54 MiB, against 7.89.
    assert fresh <= 0.7 * graph, fresh / graph
    code, _, build = _traced(lambda: main(["build", str(graph_path), *budget, "--out", str(out)]))
    assert code == 0
    code, _, verify = _traced(lambda: main(["verify", str(graph_path), str(out), *budget]))
    assert code == 0
    assert capsys.readouterr().out == "valid\nvalid\n"
    assert build < 2.5 * graph and verify < 2.5 * graph, (build / graph, verify / graph)


def test_fmt_properties():
    assert fmt(0.0) == "0"
    assert fmt(-0.0) == "0"
    assert fmt(1.0) == "1"
    assert fmt(0.1) == "0.1"
    assert fmt(1 / 3) == "0.333333333333"


def test_cmd_build_and_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "mech.csv"
    code = main(["build", str(FIXTURES / "path5.graph"), "--e-epsilon", "2", "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "node,1,2,3"
    assert len(rows) == 6
    code = main(["verify", str(FIXTURES / "path5.graph"), str(out), "--e-epsilon", "2"])
    assert code == 0
    assert "valid" in capsys.readouterr().out


def test_cmd_verify_prints_every_violation_of_a_tampered_grid_mechanism(tmp_path, capsys):
    # The grid's optimum has far fewer rows than edges, so verify checks
    # each distinct (row, row) pair once; the tampered lines add rows, and
    # every violation they cause is printed, in the reference's order.
    text = striped_grid_text(20, 3, 4, seed=5, spread=0.02)
    graph_file, out = tmp_path / "grid.graph", tmp_path / "m.csv"
    graph_file.write_text(text)
    budget = ["--epsilon", "0.4", "--delta", "0.001"]
    assert main(["build", str(graph_file), "--out", str(out), *budget]) == 0
    lines = out.read_text().splitlines()
    g = rng(61)
    for i in (5, 77, 160, 301):
        name = lines[i].partition(",")[0]
        lines[i] = ",".join([name, *map(repr, random_simplex(g, 4).p)])
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", str(graph_file), str(out), *budget]) == 2
    graph = parse_graph_file(text).graph
    mech = parse_mechanism_csv(out.read_text(), graph)
    assert len(mech.rows) ** 2 <= len(graph.edge_ends)
    report = verify_dp_reference(graph, mech, r.PrivacyBudget(0.4, 0.001))
    assert report.violations
    assert capsys.readouterr().out == "".join(cli_main._violation_line(v) + "\n" for v in report.violations)


def test_cmd_build_rejects_non_close_boundary(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text(
        "colors 1 2 3\n"
        "node a 1 2 3\nnode b 2 1 3\nedge a b\n"
        "boundary 1,2,3 0.4 0.2 0.4\n"
        "boundary 2,1,3 0.7 0.05 0.25\n"
    )
    code = main(["build", str(bad), "--e-epsilon", "2", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: boundary condition violates closeness on 1 region pair(s)\n"
        "  boundary values for (1,2,3) and (2,1,3) are not close\n"
    )


def test_cmd_build_rejects_a_boundary_whose_margin_tops_the_tolerance_by_an_ulp(tmp_path, capsys):
    # The pair's excess, 0.10000000000100001, is below 0.1 + 1e-12 once
    # that sum is rounded, but its margin over delta is above 1e-12. The
    # boundary check and build's own edge check read one verdict, so the
    # boundary is refused, before any mechanism is built.
    graph_file = tmp_path / "f.graph"
    graph_file.write_text(
        "colors x y\nnode a x y\nnode b y x\nedge a b\n"
        "boundary x,y 0.5 0.5\n"
        "boundary y,x 0.399999999999 0.600000000001\n"
    )
    out = tmp_path / "m.csv"
    code = main(["build", str(graph_file), "--epsilon", "0", "--delta", "0.1", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "error: boundary condition violates closeness on 1 region pair(s)\n"
        "  boundary values for (x,y) and (y,x) are not close\n"
    )


@pytest.mark.parametrize("last,code", [("0.5005", 0), ("0.502", 1)])
def test_cmd_build_boundary_sum_window_edge(tmp_path, capsys, last, code):
    # Graph-file boundary rows may miss a sum of 1 by up to SUM_WINDOW =
    # 1e-3 and are then divided by their sum. This window goes with
    # ROADMAP item 19, and this test with it.
    graph_file = tmp_path / "g.graph"
    graph_file.write_text(
        f"colors a b\nnode x a b\nnode y b a\nedge x y\nboundary a,b 0.5 {last}\nboundary b,a 0.5 0.5\n"
    )
    assert main(["build", str(graph_file), "--epsilon", "1", "--out", str(tmp_path / "m.csv")]) == code
    assert capsys.readouterr().err == ("" if code == 0 else "error: line 5: entries sum to 1.002, not 1\n")


@pytest.mark.parametrize("cell,code", [("0.5000000005", 0), ("0.500000002", 1)])
def test_cmd_verify_row_sum_tolerance_edge(tmp_path, capsys, cell, code):
    # A mechanism row may miss a sum of 1 by up to ROW_SUM_TOL = 1e-9.
    graph_file = tmp_path / "two.graph"
    graph_file.write_text("colors a b\nnode x a b\nnode y a b\nedge x y\n")
    mech_file = tmp_path / "m.csv"
    mech_file.write_text(f"node,a,b\nx,0.5,{cell}\ny,0.5,{cell}\n")
    assert main(["verify", str(graph_file), str(mech_file), "--epsilon", "1"]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.out == "valid\n"
    else:
        assert "line 2" in captured.err and "entries sum to" in captured.err


def test_cmd_build_writes_no_mechanism_that_fails_verify(tmp_path, capsys):
    # At epsilon = 50 the float construction misses the budget on two
    # edges; build says so in verify's format and writes nothing.
    out = tmp_path / "big.csv"
    code = main(["build", str(FIXTURES / "path5.graph"), "--epsilon", "50", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "error: the constructed mechanism fails the privacy check with 2 violation(s); "
        "worst: violation edge=(n3,n4) direction=n3->n4 margin=0.8\n"
    )
    # An existing --out file is not opened at all.
    out.write_bytes(b"old bytes\n" * 1000)
    assert main(["build", str(FIXTURES / "path5.graph"), "--epsilon", "50", "--out", str(out)]) == 2
    assert out.read_bytes() == b"old bytes\n" * 1000


def test_write_text_leaves_an_empty_file_when_the_text_fails_to_encode(tmp_path):
    # A lone surrogate has no UTF-8 form: the old content is cut and none
    # of the new text is kept, also when it fails in a block after others
    # were written. A symlink, a hard link and the file's mode are kept.
    target, twin, link = tmp_path / "target", tmp_path / "twin", tmp_path / "link"
    target.write_bytes(b"old bytes\n" * 1000)
    target.chmod(0o600)
    os.link(target, twin)
    link.symlink_to(target)
    with pytest.raises(UnicodeEncodeError):
        cli_main._write_text(str(link), ["ok\ud800"])
    assert target.read_bytes() == b""

    def blocks():
        yield "ok\n" * 10_000
        assert target.read_bytes()[:30_000] == b"ok\n" * 10_000
        yield "ok\ud800"

    target.write_bytes(b"old bytes\n" * 10_000)
    with pytest.raises(UnicodeEncodeError):
        cli_main._write_text(str(link), blocks())
    assert target.read_bytes() == b"" and twin.read_bytes() == b""
    assert link.is_symlink() and target.stat().st_mode & 0o777 == 0o600


def test_main_reraises_an_exception_outside_its_table(tmp_path, monkeypatch):
    # A KeyError is a LookupError, as MissingRainbow is, but no listed
    # kind: it is a program fault, raised with its traceback, not exit 4.
    def fault(*args):
        raise KeyError("fault")

    monkeypatch.setattr(cli_main, "optimal_mechanism", fault)
    out = tmp_path / "m.csv"
    with pytest.raises(KeyError, match="fault"):
        main(["build", str(FIXTURES / "path5.graph"), "--e-epsilon", "2", "--out", str(out)])
    assert not out.exists()


def test_cmd_build_unconstrained_region(tmp_path, capsys):
    lonely = tmp_path / "lonely.graph"
    lonely.write_text(
        "colors 1 2\nnode a 1 2\nnode b 1 2\nedge a b\nboundary 1,2 0.5 0.5\n"
    )
    code = main(["build", str(lonely), "--e-epsilon", "2", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert capsys.readouterr().err == "error: rainbow (1,2) has an empty boundary in some component\n"


def test_cmd_build_missing_boundary(tmp_path, capsys):
    missing = tmp_path / "missing.graph"
    missing.write_text(
        "colors 1 2 3\n"
        "node a 1 2 3\nnode b 2 1 3\nedge a b\n"
        "boundary 1,2,3 0.4 0.2 0.4\n"
    )
    code = main(["build", str(missing), "--e-epsilon", "2", "--out", str(tmp_path / "x.csv")])
    assert code == 4
    assert capsys.readouterr().err == (
        "error: boundary condition missing 1 rainbow(s)\n  missing rainbow 2,1,3\n"
    )
    no_boundary = tmp_path / "none.graph"
    no_boundary.write_text("colors 1 2 3\nnode a 1 2 3\nnode b 2 1 3\nedge a b\n")
    code = main(["build", str(no_boundary), "--e-epsilon", "2", "--out", str(tmp_path / "x.csv")])
    assert code == 4
    assert capsys.readouterr().err == "error: graph file declares no boundary vectors\n"


def test_cmd_build_malformed_file(tmp_path, capsys):
    broken = tmp_path / "broken.graph"
    broken.write_text("colors 1 2\nnode a 1 2\nedge a a\n")
    code = main(["build", str(broken), "--e-epsilon", "2", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "line 3" in capsys.readouterr().err


def test_cmd_verify_reports_forced_mechanism_violation(tmp_path, capsys):
    graph_file = tmp_path / "pent.graph"
    graph_file.write_text(
        "colors 1 2 3\n"
        "node d1 1 2 3\nnode d2 1 2 3\nnode d3 1 2 3\nnode d4 1 2 3\nnode d5 1 3 2\n"
        "edge d1 d2\nedge d2 d3\nedge d3 d4\nedge d4 d5\nedge d5 d1\n"
    )
    mech_file = tmp_path / "m3.csv"
    mech_file.write_text(
        "node,1,2,3\n"
        "d1,0.2,0.1,0.7\n"
        "d2,0.4,0.2,0.4\n"
        "d3,0.7,0.05,0.25\n"
        "d4,0.4,0.1,0.5\n"
        "d5,0.3,0.1,0.6\n"
    )
    code = main(["verify", str(graph_file), str(mech_file), "--e-epsilon", "2"])
    assert code == 2
    out = capsys.readouterr().out
    assert "edge=(d2,d3)" in out
    assert "margin=0.1" in out

    truncated = tmp_path / "short.csv"
    truncated.write_text("node,1,2,3\nd1,0.2,0.1,0.7\n")
    code = main(["verify", str(graph_file), str(truncated), "--e-epsilon", "2"])
    assert code == 4

    unknown = tmp_path / "extra.csv"
    unknown.write_text(mech_file.read_text() + "zz,0.3,0.3,0.4\n")
    code = main(["verify", str(graph_file), str(unknown), "--e-epsilon", "2"])
    assert code == 1


def test_cmd_verify_names_a_few_missing_or_unknown_nodes(tmp_path, capsys):
    # A header-only CSV misses all 2,000 nodes; the error gives the count
    # and the first three in sorted order, not every id.
    n = 2000
    graph_file = tmp_path / "path.graph"
    graph_file.write_text(
        "colors a b\n"
        + "".join(f"node n{i:04d} a b\n" for i in range(n))
        + "".join(f"edge n{i:04d} n{i + 1:04d}\n" for i in range(n - 1))
    )
    header_only = tmp_path / "empty.csv"
    header_only.write_text("node,a,b\n")
    code = main(["verify", str(graph_file), str(header_only), "--epsilon", "1"])
    assert code == 4
    assert capsys.readouterr().err == (
        "error: mechanism file is missing nodes (2000): "
        "['n0000', 'n0001', 'n0002'] and 1997 more\n"
    )
    extra = tmp_path / "extra.csv"
    extra.write_text("node,a,b\n" + "".join(f"x{i:04d},0.5,0.5\n" for i in range(n)))
    code = main(["verify", str(graph_file), str(extra), "--epsilon", "1"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: mechanism file has rows for undeclared nodes (2000): "
        "['x0000', 'x0001', 'x0002'] and 1997 more\n"
    )


def test_cmd_verify_rejects_rows_off_the_simplex(tmp_path, capsys):
    # Both rows are flat, but y's sums to 0.9992: renormalized it would
    # pass even at eps = delta = 0; as given it is no distribution.
    graph_file = tmp_path / "two.graph"
    graph_file.write_text("colors a b\nnode x a b\nnode y b a\nedge x y\n")
    mech_file = tmp_path / "m.csv"
    mech_file.write_text("node,a,b\nx,0.5,0.5\ny,0.4996,0.4996\n")
    code = main(["verify", str(graph_file), str(mech_file), "--epsilon", "0", "--delta", "0"])
    assert code == 1
    captured = capsys.readouterr()
    assert "line 3" in captured.err and "sum to" in captured.err
    assert "valid" not in captured.out


@pytest.mark.parametrize(
    "name,budget_args",
    [
        ("path5", ["--e-epsilon", "2", "--delta", "0.01"]),
        ("pentagon", ["--e-epsilon", "2"]),
        ("tailed-grid", ["--epsilon", "0.3", "--delta", "0.001"]),
    ],
)
def test_cmd_verify_accepts_build_output(tmp_path, capsys, name, budget_args):
    # The tailed grid's boundary search hands off from array levels to its queue.
    graph_path = str(FIXTURES / f"{name}.graph")
    if name == "tailed-grid":
        graph_path = str(tmp_path / "tailed.graph")
        Path(graph_path).write_text(tailed_grid_text())
    out = tmp_path / f"{name}.csv"
    assert main(["build", graph_path, *budget_args, "--out", str(out)]) == 0
    assert main(["verify", graph_path, str(out), *budget_args]) == 0
    assert capsys.readouterr().out == "valid\n"


def test_cmd_trajectory_published_tau_lines(tmp_path, capsys):
    boundary = "0.0005,0.0081,0.1364,0.2727,0.5822"
    for delta, expected in (
        ("0", "tau 38,22,7,1,0"),
        ("0.001", "tau 25,20,7,1,0"),
        ("0.01", "tau 13,12,6,1,0"),
    ):
        out = tmp_path / f"traj{delta}.csv"
        code = main(
            [
                "trajectory", "--boundary", boundary,
                "--epsilon", "0.1823215568", "--delta", delta,
                "--steps", "60", "--out", str(out),
            ]
        )
        assert code == 0
        assert expected in capsys.readouterr().out
        series, rho, tau = parse_trajectory_csv(out.read_text())
        assert tau is not None and len(tau) == 5
        assert [k for k, *_ in series] == [1, 2, 3, 4, 5]
        assert all(len(t) == len(p) == 61 for _, _, t, p in series)


def test_cmd_trajectory_epsilon_zero_allowed(tmp_path, capsys):
    out = tmp_path / "flat.csv"
    code = main(
        ["trajectory", "--boundary", "0.5,0.5", "--epsilon", "0",
         "--delta", "0", "--steps", "3", "--out", str(out)]
    )
    assert code == 0
    assert "n/a (epsilon=0)" in capsys.readouterr().out
    series, rho, tau = parse_trajectory_csv(out.read_text())
    assert rho is None and tau is None
    assert all((p == 0.5).all() for _, _, _, p in series)


# Below about 1.1e-16, e^epsilon rounds to 1.0: the operator has no growth
# phase there, and the drift delta / (e^epsilon - 1) has no value.
@pytest.mark.parametrize("epsilon", ["1e-17", "1e-16"])
def test_cmd_trajectory_where_e_epsilon_rounds_to_1_writes_the_epsilon_0_csv(tmp_path, capsys, epsilon):
    outs = []
    for eps in (epsilon, "0"):
        outs.append(tmp_path / f"{eps}.csv")
        args = ["trajectory", "--boundary", "0.1,0.2,0.7", "--epsilon", eps, "--delta", "0.01", "--out", str(outs[-1])]
        assert main(args) == 0
        assert capsys.readouterr().out == "rho n/a (epsilon=0)\ntau n/a (epsilon=0)\n"
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("epsilon", ["1e-17", "1e-16"])
@pytest.mark.parametrize("delta", ["0.01", "0"])
def test_cmd_build_where_e_epsilon_rounds_to_1_writes_the_epsilon_0_csv(tmp_path, capsys, epsilon, delta):
    # path5 with one boundary vector for both rainbows, valid at every budget.
    text = (FIXTURES / "path5.graph").read_text().replace("boundary 2,1,3 0.4 0.2 0.4", "boundary 2,1,3 0.2 0.1 0.7")
    graph_file = tmp_path / "twin.graph"
    graph_file.write_text(text)
    outs = []
    for eps in (epsilon, "0"):
        outs.append(tmp_path / f"{eps}.csv")
        assert main(["build", str(graph_file), "--epsilon", eps, "--delta", delta, "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    capsys.readouterr()
    assert main(["verify", str(graph_file), str(outs[0]), "--epsilon", epsilon, "--delta", delta]) == 0
    assert capsys.readouterr().out == "valid\n"


def test_trajectory_rows_sorted_and_consistent(tmp_path):
    out = tmp_path / "t.csv"
    main(
        ["trajectory", "--boundary", "0.1,0.2,0.7", "--e-epsilon", "2",
         "--steps", "5", "--substeps", "4", "--out", str(out)]
    )
    lines = out.read_text().splitlines()
    cells = [line.split(",") for line in lines[lines.index("t,k,color,p,s") + 1:]]
    keys = [(float(t), int(k)) for t, k, *_ in cells]
    assert keys == sorted(keys) and len(keys) == 21 * 3
    t, p, s = r.build_trajectory(r.SimplexVector((0.1, 0.2, 0.7)), r.PrivacyBudget(math.log(2.0), 0.0), 5, 4)
    assert t.shape == (21,) and p.shape == s.shape == (21, 3)
    assert (np.diff(t) > 0).all()
    assert (np.diff(s, axis=1) >= -1e-12).all()
    assert np.abs(s[:, -1] - 1.0).max() <= 1e-9
    assert (p >= -1e-12).all()


def test_cmd_plot_fig2_shape(tmp_path):
    traj = tmp_path / "fig2.csv"
    main(
        ["trajectory", "--boundary", "0.0005,0.0081,0.1364,0.2727,0.5822",
         "--epsilon", "0.1823215568", "--delta", "0", "--steps", "60",
         "--out", str(traj)]
    )
    svg_path = tmp_path / "fig2.svg"
    assert main(["plot", str(traj), "--out", str(svg_path)]) == 0
    svg = svg_path.read_text()
    assert svg.count("<polyline") == 5
    assert svg.count("stroke-dasharray") == 5  # one marker per finite tau
    assert svg.count("<circle") == 0


def test_cmd_plot_single_point_and_binary(tmp_path):
    traj = tmp_path / "point.csv"
    main(["trajectory", "--boundary", "0.1,0.2,0.7", "--e-epsilon", "2",
          "--steps", "0", "--out", str(traj)])
    svg_path = tmp_path / "point.svg"
    assert main(["plot", str(traj), "--out", str(svg_path)]) == 0
    svg = svg_path.read_text()
    assert svg.count("<circle") == 3
    assert svg.count("<polyline") == 0

    traj2 = tmp_path / "binary.csv"
    main(["trajectory", "--boundary", "0.3,0.7", "--e-epsilon", "2",
          "--steps", "4", "--out", str(traj2)])
    svg2_path = tmp_path / "binary.svg"
    assert main(["plot", str(traj2), "--out", str(svg2_path)]) == 0
    assert svg2_path.read_text().count("<polyline") == 2


def test_cmd_plot_escapes_legend_labels(tmp_path):
    # A color label is CSV text; the legend writes it as XML character data.
    traj = tmp_path / "labels.csv"
    traj.write_text("t,k,color,p,s\n0,1,a&b,0.5,0.5\n1,1,<x>,0.5,0.5\n0,2,c,0.5,1\n")
    svg_path = tmp_path / "labels.svg"
    assert main(["plot", str(traj), "--out", str(svg_path)]) == 0
    texts = minidom.parse(str(svg_path)).getElementsByTagName("text")
    assert [t.firstChild.data for t in texts[-2:]] == ["<x>", "c"]
    assert "<x></text>" not in svg_path.read_text()


def test_cmd_plot_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    # Each error names its line, the rho and tau comments' values included.
    for text, error in [
        ("not,a,trajectory\n1,2,3\n", "error: line 1: expected trajectory header"),
        ("# rho abc\nt,k,color,p,s\n", "error: line 1: could not convert string to float: 'abc'"),
        ("t,k,color,p,s\n\n# tau 1,x\n", "error: line 3: could not convert string to float: 'x'"),
        ("t,k,color,p,s\n0,1,1,0.5\n", "error: line 2: expected 5 cells, got 4"),
        ("t,k,color,p,s\n0,1,1,x,0.5\n", "error: line 2: could not convert string to float: 'x'"),
        # Non-finite values would reach the SVG as nan coordinates or
        # overflow its tick step; a tau entry may be inf only.
        ("t,k,color,p,s\ninf,1,1,0.5,0.5\n", "error: line 2: t is not finite: 'inf'"),
        ("t,k,color,p,s\n0,1,1,0.5,0.5\n1,1,1,nan,0.5\n", "error: line 3: p is not finite: 'nan'"),
        ("t,k,color,p,s\n0,1,1,0.5,-inf\n", "error: line 2: s is not finite: '-inf'"),
        ("# rho nan\nt,k,color,p,s\n", "error: line 1: rho is not finite: 'nan'"),
        ("# tau nan,1\nt,k,color,p,s\n0,1,1,0.5,0.5\n", "error: line 1: tau entry is not a step or inf: 'nan'"),
        ("# tau 1,-inf\nt,k,color,p,s\n0,1,1,0.5,0.5\n", "error: line 1: tau entry is not a step or inf: '-inf'"),
        # Finite values off the canvas: t and tau below 0, p and s
        # outside [0, 1] by more than NEGATIVE_WINDOW.
        ("# tau -5,1\nt,k,color,p,s\n0,1,1,0.5,0.5\n", "error: line 1: tau entry is not a step or inf: '-5'"),
        ("t,k,color,p,s\n-3,1,a,0.5,0.5\n", "error: line 2: t is negative: '-3'"),
        ("t,k,color,p,s\n0,1,1,2.5,0.5\n", "error: line 2: p outside [0, 1]: '2.5'"),
        ("t,k,color,p,s\n0,1,1,0.5,-1e-6\n", "error: line 2: s outside [0, 1]: '-1e-6'"),
    ]:
        bad.write_text(text)
        assert main(["plot", str(bad), "--out", str(tmp_path / "x.svg")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(error) and err.count("\n") == 1
        assert not (tmp_path / "x.svg").exists()
    # 'inf' is how fmt_tau writes math.inf, so it still plots, and so do
    # values inside the window SimplexVector allows around [0, 1] and a
    # finite t whose power of ten is past float range.
    for text in ("# tau inf,1\nt,k,color,p,s\n0,1,1,-1e-10,1.0000000001\n",
                 "t,k,color,p,s\n0,1,1,0.5,0.5\n1.7e308,1,1,0.5,0.5\n"):
        bad.write_text(text)
        assert main(["plot", str(bad), "--out", str(tmp_path / "x.svg")]) == 0


def test_cmd_demo_no_optimal(capsys):
    assert main(["demo-no-optimal"]) == 0
    out = capsys.readouterr().out
    assert "mech1 valid: true" in out
    assert "mech2 valid: true" in out
    assert "forced mech3 valid: false" in out
    assert "margin 0.1" in out
    assert "boundary homogeneous: false" in out


def test_cmd_demo_no_optimal_parameterized(capsys):
    assert main(["demo-no-optimal", "--e-epsilon", "3"]) == 0
    capsys.readouterr()
    # At e^eps = 4 the forced mechanism becomes valid, so the expected
    # verdict triple no longer holds.
    assert main(["demo-no-optimal", "--e-epsilon", "4"]) == 2


def test_cmd_demo_homogenized(capsys):
    assert main(["demo-no-optimal", "--homogenized"]) == 0
    out = capsys.readouterr().out
    assert "node,1,2,3" in out
    assert "d2,0.7,0.050000000000000044,0.25" in out
    assert "verifies: true" in out
    # A budget too tight for the pentagon boundary is a clean violation.
    assert main(["demo-no-optimal", "--homogenized", "--e-epsilon", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: boundary condition violates closeness on 1 region pair(s)\n"
        "  boundary values for (1,2,3) and (1,3,2) are not close\n"
    )


def test_cmd_fuzz_clean_run(capsys):
    code = main(["fuzz", "--q", "5", "--trials", "1000", "--seed", "42",
                 "--epsilon", "0.18", "--delta", "0.01"])
    assert code == 0
    out = capsys.readouterr().out
    assert "result=ok" in out


def test_cmd_fuzz_deterministic_log(capsys):
    args = ["fuzz", "--q", "3", "--trials", "1", "--seed", "1", "--epsilon", "0.5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert first == "fuzz q=3 trials=1 seed=1 epsilon=0.5 delta=0 samples=64 result=ok\n"


def test_cmd_fuzz_mutant_mode(capsys):
    code = main(["fuzz", "--q", "4", "--trials", "20", "--seed", "3",
                 "--e-epsilon", "2", "--delta", "0.1", "--mutant-drop-delta"])
    assert code == 5
    out = capsys.readouterr().out
    assert "result=counterexample" in out
    assert '"margin"' in out


# Taken before sample_close and verify_dp moved to arrays; the bytes must
# not change. Every counterexample's `sample`, `prefix_index` and `margin`
# below were re-taken once, when the dominance check moved from random
# close samples to the lemma's witnesses: each is now the witness w_k, at
# the k where the mutant falls furthest below g(s_k), and that shortfall.
FUZZ_GOLDEN = [
    (
        ["--q", "6", "--trials", "40", "--samples", "48", "--seed", "11",
         "--e-epsilon", "3", "--delta", "0.02"],
        0,
        "fuzz q=6 trials=40 seed=11 epsilon=1.09861228867 delta=0.02 samples=48 result=ok\n",
    ),
    (
        ["--q", "7", "--trials", "30", "--seed", "5", "--epsilon", "0.4", "--delta", "0.03",
         "--mutant-drop-delta"],
        5,
        '{"margin": "0.03", "p": ["0.350142750395", "0.132218282097", "0.229358494287", '
        '"0.0933096073739", "0.00531429224935", "0.0764776122959", "0.113178961302"], '
        '"prefix_index": 0, "sample": ["0.552351602739", "0.0910773898503", "0.157991562652", '
        '"0.0642754946803", "0.00366070303816", "0.0526809242974", "0.0779623227428"], '
        '"seed": 5, "trial": 0}\n'
        "fuzz q=7 trials=30 seed=5 epsilon=0.4 delta=0.03 samples=64 "
        "result=counterexample trial=0\n",
    ),
]


# Taken before fuzz moved to blocks of trials: the degenerate budget, one
# and two samples per trial, delta = 1 and two mutant runs, one of them at
# epsilon = 0.
_FUZZ_Q5 = ["--q", "5", "--trials", "30", "--seed", "4"]
FUZZ_GOLDEN_BLOCKS = [
    (
        [*_FUZZ_Q5, "--epsilon", "0", "--delta", "0"],
        0,
        "fuzz q=5 trials=30 seed=4 epsilon=0 delta=0 samples=64 result=ok\n",
    ),
    (
        [*_FUZZ_Q5, "--epsilon", "0.3", "--delta", "0.01", "--samples", "1"],
        0,
        "fuzz q=5 trials=30 seed=4 epsilon=0.3 delta=0.01 samples=1 result=ok\n",
    ),
    (
        [*_FUZZ_Q5, "--epsilon", "0.3", "--delta", "0.01", "--samples", "2"],
        0,
        "fuzz q=5 trials=30 seed=4 epsilon=0.3 delta=0.01 samples=2 result=ok\n",
    ),
    (
        [*_FUZZ_Q5, "--epsilon", "0.3", "--delta", "1"],
        0,
        "fuzz q=5 trials=30 seed=4 epsilon=0.3 delta=1 samples=64 result=ok\n",
    ),
    (
        [*_FUZZ_Q5, "--epsilon", "0.3", "--delta", "1", "--mutant-drop-delta"],
        5,
        '{"margin": "0.411716076582", "p": ["0.444241427805", "0.0503783593318", '
        '"0.378914556506", "0.0165112073823", "0.109954448975"], "prefix_index": 0, '
        '"sample": ["1", "0", "0", "0", "0"], "seed": 4, "trial": 0}\n'
        "fuzz q=5 trials=30 seed=4 epsilon=0.3 delta=1 samples=64 result=counterexample trial=0\n",
    ),
    (
        [*_FUZZ_Q5, "--epsilon", "0", "--delta", "0.05", "--samples", "3", "--mutant-drop-delta"],
        5,
        '{"margin": "0.05", "p": ["0.444241427805", "0.0503783593318", "0.378914556506", '
        '"0.0165112073823", "0.109954448975"], "prefix_index": 1, "sample": ["0.489148792953", '
        '"0.055470994184", "0.341426488427", "0.0148776642635", "0.0990760601723"], '
        '"seed": 4, "trial": 0}\n'
        "fuzz q=5 trials=30 seed=4 epsilon=0 delta=0.05 samples=3 result=counterexample trial=0\n",
    ),
    (
        ["--q", "8", "--trials", "100", "--seed", "2", "--epsilon", "0.0001", "--delta", "1e-7"],
        0,
        "fuzz q=8 trials=100 seed=2 epsilon=0.0001 delta=1e-07 samples=64 result=ok\n",
    ),
]


# Taken before the streams were seeded a block at a time: at seed 5000
# every sample stream's seed takes two entropy words.
FUZZ_GOLDEN_STREAMS = [
    (
        ["--q", "6", "--trials", "200", "--seed", "5000", "--epsilon", "0.5", "--delta", "0.01"],
        0,
        "fuzz q=6 trials=200 seed=5000 epsilon=0.5 delta=0.01 samples=64 result=ok\n",
    ),
    (
        ["--q", "6", "--trials", "200", "--seed", "5000", "--epsilon", "0.5", "--delta", "0.01",
         "--mutant-drop-delta"],
        5,
        '{"margin": "0.01", "p": ["0.00274543653923", "0.152739716303", "0.498818982311", '
        '"0.0138431383165", "0.12351311225", "0.208339614281"], "prefix_index": 1, '
        '"sample": ["0.00470303188317", "0.261648646886", "0.433334843315", "0.0120258337916", '
        '"0.107298513172", "0.180989130952"], "seed": 5000, "trial": 0}\n'
        "fuzz q=6 trials=200 seed=5000 epsilon=0.5 delta=0.01 samples=64 "
        "result=counterexample trial=0\n",
    ),
    # Taken before fuzz checked that each step is close to its p: at
    # epsilon = 8 every step still is.
    (
        ["--q", "4", "--trials", "50", "--seed", "1", "--epsilon", "8", "--delta", "0.01"],
        0,
        "fuzz q=4 trials=50 seed=1 epsilon=8 delta=0.01 samples=64 result=ok\n",
    ),
]


# The mutant's counterexample at small epsilon: the witness w_k at the k
# where it falls furthest short.
FUZZ_GOLDEN_SMALL_EPSILON = [
    (
        ["--q", "4", "--trials", "50", "--seed", "3", "--epsilon", "0.0001", "--delta", "1e-7",
         "--mutant-drop-delta"],
        5,
        '{"margin": "1.00000000003e-07", "p": ["0.0268370654967", "0.0950530822421", '
        '"0.341404684006", "0.536705168255"], "prefix_index": 1, "sample": ["0.0268397713549", '
        '"0.0950626660082", "0.341399905862", "0.536697656775"], "seed": 3, "trial": 0}\n'
        "fuzz q=4 trials=50 seed=3 epsilon=0.0001 delta=1e-07 samples=64 "
        "result=counterexample trial=0\n",
    ),
]


# Taken when the dominance check moved to the lemma's witnesses: with one
# sample per trial only p was tested, and the mutant passed (result=ok).
FUZZ_GOLDEN_WITNESS = [
    (
        [*_FUZZ_Q5, "--epsilon", "0.3", "--delta", "0.01", "--samples", "1", "--mutant-drop-delta"],
        5,
        '{"margin": "0.00740818220682", "p": ["0.444241427805", "0.0503783593318", '
        '"0.378914556506", "0.0165112073823", "0.109954448975"], "prefix_index": 2, '
        '"sample": ["0.46467815895", "0.052695948194", "0.396346012542", "0.0112645997167", '
        '"0.0750152805965"], "seed": 4, "trial": 0}\n'
        "fuzz q=5 trials=30 seed=4 epsilon=0.3 delta=0.01 samples=1 result=counterexample trial=0\n",
    ),
]


@pytest.mark.parametrize(
    "args,code,stdout",
    FUZZ_GOLDEN + FUZZ_GOLDEN_BLOCKS + FUZZ_GOLDEN_STREAMS + FUZZ_GOLDEN_SMALL_EPSILON + FUZZ_GOLDEN_WITNESS,
)
def test_cmd_fuzz_golden_stdout(capsys, args, code, stdout):
    assert main(["fuzz", *args]) == code
    assert capsys.readouterr().out == stdout


def test_cmd_fuzz_reports_a_step_not_close_to_its_p(capsys):
    # At epsilon = 50 the operator's step loses the tail masses that
    # closeness needs (ROADMAP item 2): fuzz reports the first trial.
    args = ["fuzz", "--q", "4", "--trials", "50", "--seed", "1", "--epsilon", "50", "--delta", "0.01"]
    assert main(args) == 5
    assert capsys.readouterr().out == (
        '{"margin": "0.839364469608", "p": ["0.150635530392", "0.0433017204794", '
        '"0.754622442162", "0.0514403069674"], "seed": 1, "step": ["1", "0", "0", "0"], '
        '"trial": 0}\n'
        "fuzz q=4 trials=50 seed=1 epsilon=50 delta=0.01 samples=64 result=step-not-close trial=0\n"
    )
    # With the mutant, the step (sample row 1) of that trial also beats the
    # mutant's prefixes; it is reported as the miss it is, where the
    # falsifier's closeness self-check used to raise RuntimeError.
    args = ["fuzz", "--q", "2", "--trials", "30", "--seed", "0", "--epsilon", "12", "--delta", "0.01",
            "--mutant-drop-delta"]
    assert main(args) == 5
    assert capsys.readouterr().out.endswith("result=step-not-close trial=0\n")


@pytest.mark.parametrize("bad,message", [("--samples=0", "samples >= 1"), ("--seed=-1", "seed >= 0")])
def test_cmd_fuzz_rejects_bad_samples_and_seed(capsys, bad, message):
    assert main(["fuzz", "--q", "4", "--trials", "2", "--epsilon", "0.3", bad]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [
    # The real operator's first miss is past trial 0 (ROADMAP item 2);
    # when item 2 lands the run prints result=ok with every --samples.
    ["--q", "12", "--trials", "30", "--seed", "0", "--epsilon", "8", "--delta", "0"],
    ["--q", "7", "--trials", "30", "--seed", "5", "--epsilon", "0.4", "--delta", "0.03", "--mutant-drop-delta"],
])
def test_cmd_fuzz_samples_changes_only_the_summary_field(capsys, args):
    # --samples is checked and printed, and draws nothing.
    runs = []
    for samples in ("1", "2", "64", "65536"):
        code = main(["fuzz", *args, "--samples", samples])
        out = capsys.readouterr().out
        assert f" samples={samples} " in out
        runs.append((code, out.replace(f" samples={samples} ", " ")))
    assert runs == [runs[0]] * 4


def test_cmd_fuzz_caps_samples(capsys):
    # Checked before anything is drawn.
    assert main(["fuzz", "--q", "12", "--trials", "1000000", "--epsilon", "0.3", "--samples", "65537"]) == 1
    assert capsys.readouterr() == ("", "error: need samples <= 65536\n")
    assert main(["fuzz", "--q", "2", "--trials", "1", "--epsilon", "0.3", "--samples", "65536"]) == 0
    assert capsys.readouterr().out.endswith("samples=65536 result=ok\n")


def _fuzz_peak(args: list[str]) -> int:
    # Traced peak of a second, identical call: the first pays for the
    # imports and first-call set-up.
    assert main(args) == 0
    gc.collect()
    tracemalloc.start()
    try:
        assert main(args) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cmd_fuzz_peak_memory_at_the_sample_cap(capsys):
    # --samples draws nothing: one trial at the sample cap holds one
    # (1, 12) row of draws. Its peak was 68 KiB (6.1 MiB when each trial
    # drew samples - 1 rows), so 256 KiB leaves room for other Python and
    # numpy versions. A full block of 4096 trials peaked at 8.3 (4096, 12)
    # float64 arrays: its draws, p, steps and the checks' temporaries.
    args = ["fuzz", "--q", "12", "--epsilon", "0.3", "--delta", "0.01"]
    peak = _fuzz_peak([*args, "--trials", "1", "--samples", "65536"])
    assert peak < 2**18, peak / 2**10
    block = _fuzz_peak([*args, "--trials", "4096"])
    assert block < 10 * 4096 * 12 * 8, block / 2**20
    assert capsys.readouterr().out.endswith("samples=64 result=ok\n")


def test_cmd_trajectory_caps_cells(tmp_path, capsys):
    # Checked before any work: the CSV has a line per (t, k) cell. Each
    # rejected call is the first count over 2^17 cells.
    out = tmp_path / "t.csv"
    for boundary, steps, substeps in [("0.1,0.2,0.3,0.4", 32768, 1), ("0.5,0.5", 1, 65536)]:
        argv = ["trajectory", "--boundary", boundary, "--epsilon", "0.3", "--steps", str(steps),
                "--substeps", str(substeps), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: need (steps * substeps + 1) * q <= 131072\n")
        assert not out.exists()
    # (65535 + 1) * 2 cells is the cap itself, and plot reads as many.
    assert main(["trajectory", "--boundary", "0.5,0.5", "--epsilon", "0.3", "--steps", "1",
                 "--substeps", "65535", "--out", str(out)]) == 0
    assert out.read_text().count("\n") == 3 + 131072  # rho, tau, header, cells
    svg = tmp_path / "t.svg"
    assert main(["plot", str(out), "--out", str(svg)]) == 0
    assert svg.exists()
    # One data row more is refused at that row, before it is held.
    svg.unlink()
    with open(out, "a", encoding="utf-8") as fh:
        fh.write("1,1,1,0.5,0.5\n")
    assert main(["plot", str(out), "--out", str(svg)]) == 1
    assert capsys.readouterr().err == "error: line 131076: more than 131072 data rows\n"
    assert not svg.exists()


@pytest.mark.parametrize(
    "command,text,error",
    [
        ("build", "colors a\n", "line 1: need at least 2 colors"),
        ("build", "colors a b\nnode x a\n", "line 2: node line needs an id and 2 colors"),
        ("build", "colors a b\nnode x a b\nedge x\n", "line 3: edge line needs exactly two node ids"),
        (
            "build",
            "colors a b\nnode x a b\nboundary a,b 0.5 0.5\nboundary a,b 0.4 0.6\n",
            "line 4: duplicate boundary line for this rainbow",
        ),
        ("build", "colors a b\nnode x a b\nboundary a,b inf 0.5\n", "line 3: malformed probability 'inf'"),
        ("build", "# no directive\n\n", "empty graph file"),
        ("verify", "node,b,a\nx,0.5,0.5\n", "header 'node,b,a' does not match colors ('a', 'b')"),
        ("plot", "# rho 0.1\n# tau 1\n", "missing trajectory header"),
        ("plot", "# tau 1\nt,k,color,p,s\n", "empty trajectory table"),
        ("trajectory", "", "--e-epsilon must be >= 1"),
    ],
)
def test_input_errors_exit_1_with_one_line(tmp_path, capsys, command, text, error):
    # A malformed input is one error line on stderr, exit 1, and no output file.
    source = tmp_path / "input.txt"
    source.write_text(text)
    graph = tmp_path / "ok.graph"
    graph.write_text("colors a b\nnode x a b\nboundary a,b 0.5 0.5\n")
    out = tmp_path / "out"
    argv = {
        "build": ["build", str(source), "--e-epsilon", "2", "--out", str(out)],
        "verify": ["verify", str(graph), str(source), "--e-epsilon", "2"],
        "plot": ["plot", str(source), "--out", str(out)],
        "trajectory": ["trajectory", "--boundary", "0.5,0.5", "--e-epsilon", "0.5", "--out", str(out)],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert not out.exists()


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "nope.graph", "--out", "x.csv"])  # budget missing
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["trajectory", "--boundary", "0.5,0.5", "--epsilon", "1",
              "--e-epsilon", "2", "--steps", "1", "--out", "x.csv"])
    assert exc.value.code == 1
    capsys.readouterr()
    assert main(["fuzz", "--q", "40", "--trials", "1", "--epsilon", "1"]) == 1
    assert main(["trajectory", "--boundary", "0.5,oops", "--epsilon", "1",
                 "--steps", "1", "--out", "x.csv"]) == 1
    assert main(["trajectory", "--boundary", "0.5,0.5", "--epsilon", "1",
                 "--steps", "-1", "--out", "x.csv"]) == 1
    capsys.readouterr()



# The parser's text: stdout of `rainbow-dp [command] --help` at COLUMNS=80,
# as argparse lays it out (taken on Python 3.11).
HELP_TEXT = {
    (): """\
usage: rainbow-dp [-h] {build,verify,trajectory,plot,demo-no-optimal,fuzz} ...

Subcommand dispatcher. Exit codes: 0 ok, 1 usage or malformed input, 2
privacy/boundary violation, 3 unconstrained region, 4 incomplete input, 5
falsification found.

positional arguments:
  {build,verify,trajectory,plot,demo-no-optimal,fuzz}
    build               construct the optimal mechanism for a graph file
    verify              check a mechanism CSV against a graph file
    trajectory          emit the closed-form trajectory of a boundary vector
    plot                render a trajectory CSV as a standalone SVG
    demo-no-optimal     run the pentagon demonstration (no optimal mechanism
                        for a non-homogeneous boundary)
    fuzz                check the operator's one-step claim on random start
                        distributions

options:
  -h, --help            show this help message and exit
""",
    ('build',): """\
usage: rainbow-dp build [-h] (--epsilon EPSILON | --e-epsilon E_EPSILON)
                        [--delta DELTA] --out OUT
                        graph_file

positional arguments:
  graph_file

options:
  -h, --help            show this help message and exit
  --epsilon EPSILON     privacy parameter epsilon
  --e-epsilon E_EPSILON
                        e^epsilon; sets epsilon = log of this value
  --delta DELTA         privacy parameter delta
  --out OUT             output mechanism CSV path
""",
    ('verify',): """\
usage: rainbow-dp verify [-h] (--epsilon EPSILON | --e-epsilon E_EPSILON)
                         [--delta DELTA]
                         graph_file mechanism_file

positional arguments:
  graph_file
  mechanism_file

options:
  -h, --help            show this help message and exit
  --epsilon EPSILON     privacy parameter epsilon
  --e-epsilon E_EPSILON
                        e^epsilon; sets epsilon = log of this value
  --delta DELTA         privacy parameter delta
""",
    ('trajectory',): """\
usage: rainbow-dp trajectory [-h] --boundary BOUNDARY
                             (--epsilon EPSILON | --e-epsilon E_EPSILON)
                             [--delta DELTA] [--steps STEPS]
                             [--substeps SUBSTEPS] --out OUT

options:
  -h, --help            show this help message and exit
  --boundary BOUNDARY   comma-separated probabilities, preference order
  --epsilon EPSILON     privacy parameter epsilon
  --e-epsilon E_EPSILON
                        e^epsilon; sets epsilon = log of this value
  --delta DELTA         privacy parameter delta
  --steps STEPS
  --substeps SUBSTEPS   samples per unit t
  --out OUT             output trajectory CSV path
""",
    ('plot',): """\
usage: rainbow-dp plot [-h] --out OUT trajectory_csv

positional arguments:
  trajectory_csv

options:
  -h, --help      show this help message and exit
  --out OUT       output SVG path
""",
    ('demo-no-optimal',): """\
usage: rainbow-dp demo-no-optimal [-h]
                                  [--epsilon EPSILON | --e-epsilon E_EPSILON]
                                  [--delta DELTA] [--homogenized]

options:
  -h, --help            show this help message and exit
  --epsilon EPSILON     privacy parameter epsilon
  --e-epsilon E_EPSILON
                        e^epsilon; sets epsilon = log of this value
  --delta DELTA         privacy parameter delta
  --homogenized         build and print the optimal mechanism on the
                        homogenized pentagon instead
""",
    ('fuzz',): """\
usage: rainbow-dp fuzz [-h] --q Q [--trials TRIALS] [--seed SEED]
                       (--epsilon EPSILON | --e-epsilon E_EPSILON)
                       [--delta DELTA] [--samples SAMPLES]

options:
  -h, --help            show this help message and exit
  --q Q                 alphabet size, 2..12
  --trials TRIALS       number of random start distributions
  --seed SEED
  --epsilon EPSILON     privacy parameter epsilon
  --e-epsilon E_EPSILON
                        e^epsilon; sets epsilon = log of this value
  --delta DELTA         privacy parameter delta
  --samples SAMPLES     1..65536; accepted and printed, with no effect on any
                        draw (each trial checks q witnesses)
""",
}
USAGE_ERROR = """\
usage: rainbow-dp build [-h] (--epsilon EPSILON | --e-epsilon E_EPSILON)
                        [--delta DELTA] --out OUT
                        graph_file
rainbow-dp build: error: one of the arguments --epsilon --e-epsilon is required
"""


@pytest.mark.parametrize("command", HELP_TEXT)
def test_help_text_is_pinned(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (HELP_TEXT[command], "")


def test_usage_error_text_is_pinned(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["build", "g.graph", "--out", "m.csv"])  # budget missing
    assert exc.value.code == 1
    assert capsys.readouterr() == ("", USAGE_ERROR)


@pytest.fixture
def unbuilt_parser():
    """No parser built yet, and none left built from this test's patches."""
    cli_main.build_parser.cache_clear()
    yield
    cli_main.build_parser.cache_clear()


def test_the_parser_is_built_on_the_first_call_only(monkeypatch, unbuilt_parser):
    # Subparsers are made with the main parser's class, so this counts all seven.
    built = []

    class Counted(cli_main._Parser):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli_main, "_Parser", Counted)
    counts = []
    for _ in range(3):
        assert main(["fuzz", "--q", "3", "--trials", "1", "--seed", "1", "--epsilon", "0.5"]) == 0
        counts.append(len(built))
    assert counts == [7, 7, 7]


def test_no_parser_is_built_at_import():
    code = "import rainbowdp.cli.main as m; print(m.build_parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), check=True)
    assert done.stdout == "0\n"


def test_a_command_rebound_after_the_parser_is_built_is_the_one_run(monkeypatch, tmp_path):
    argv = ["verify", str(tmp_path / "g.graph"), "m.csv", "--epsilon", "1"]
    assert main(argv) == 1  # no such graph file
    seen = []
    monkeypatch.setattr(cli_main, "cmd_verify", lambda args: seen.append(args.mechanism_file) or 7)
    assert main(argv) == 7
    assert seen == ["m.csv"]


def test_a_usage_error_between_calls_leaves_the_next_call_unchanged(capsys):
    args = ["fuzz", "--q", "4", "--trials", "20", "--seed", "3", "--e-epsilon", "2", "--delta", "0.1"]
    first = main(args), capsys.readouterr()
    # A fuzz call that sets the mutant flag, then fails on its budget.
    with pytest.raises(SystemExit) as exc:
        main([*args, "--mutant-drop-delta", "--epsilon", "1"])
    assert exc.value.code == 1
    capsys.readouterr()
    assert (main(args), capsys.readouterr()) == first
    assert first[0] == 0

WRITERS = ["build", "trajectory", "plot"]


@pytest.fixture
def writer_argv(tmp_path):
    """Each command that writes an --out file, with its arguments but --out."""
    traj = tmp_path / "t.csv"
    assert main(["trajectory", "--boundary", "0.1,0.2,0.7", "--e-epsilon", "2",
                 "--steps", "2", "--out", str(traj)]) == 0
    return {
        "build": ["build", str(FIXTURES / "path5.graph"), "--e-epsilon", "2"],
        "trajectory": ["trajectory", "--boundary", "0.1,0.2,0.7", "--e-epsilon", "2"],
        "plot": ["plot", str(traj)],
    }


@pytest.mark.parametrize("command", WRITERS)
def test_unwritable_out_exits_1(tmp_path, capsys, writer_argv, command):
    capsys.readouterr()
    assert main([*writer_argv[command], "--out", str(tmp_path / "missing" / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command", WRITERS)
def test_out_is_overwritten_in_place(tmp_path, writer_argv, command):
    # The output is written over the old file and cut at its end: a longer
    # old file keeps no tail, and a symlink, a hard link and the file's
    # mode are kept. A new file gets open()'s mode; /dev/null is no file.
    argv = writer_argv[command]
    fresh = tmp_path / "fresh"
    assert main([*argv, "--out", str(fresh)]) == 0
    expected = fresh.read_bytes()
    umask = os.umask(0)
    os.umask(umask)
    assert fresh.stat().st_mode & 0o777 == 0o666 & ~umask
    target, twin, link = tmp_path / "target", tmp_path / "twin", tmp_path / "link"
    target.write_bytes(b"x" * (len(expected) + 4096))
    target.chmod(0o600)
    os.link(target, twin)
    link.symlink_to(target)
    assert main([*argv, "--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_bytes() == expected
    assert twin.read_bytes() == expected
    assert target.stat().st_mode & 0o777 == 0o600
    assert main([*argv, "--out", os.devnull]) == 0


@pytest.mark.parametrize("command", WRITERS)
def test_out_is_opened_without_truncation(tmp_path, monkeypatch, writer_argv, command):
    # A truncating open makes ext4 free the old file's blocks before the
    # rewrite (auto_da_alloc): about 0.24 s for a 4.3 MB CSV on an ext4
    # mounted discard, against 0.6 ms in place.
    out = tmp_path / "out"
    out.write_bytes(b"old")
    flags = []
    real_open = os.open

    def spy(path, flag, *args, **kwargs):
        if os.fspath(path) == str(out):
            flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    assert main([*writer_argv[command], "--out", str(out)]) == 0
    assert flags and not any(flag & os.O_TRUNC for flag in flags)


FILE_SIZE_LIMITED = """\
import resource, signal, sys
from rainbowdp.cli.main import main
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[1]), resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("command", WRITERS)
def test_failed_write_leaves_an_empty_file(tmp_path, writer_argv, command):
    # A file-size limit of half the output fails the write after its first
    # bytes, as a full disk would: the 1 MB old file keeps no tail.
    pytest.importorskip("resource")
    argv = writer_argv[command]
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    assert main([*argv, "--out", str(fresh)]) == 0
    out.write_bytes(b"x" * 2**20)
    proc = subprocess.run(
        [sys.executable, "-c", FILE_SIZE_LIMITED, str(fresh.stat().st_size // 2), *argv, "--out", str(out)],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert out.read_bytes() == b""


@pytest.mark.parametrize("command", ["build", "verify", "trajectory", "demo-no-optimal", "fuzz"])
def test_epsilon_beyond_float_range_exits_1(tmp_path, capsys, command):
    # e^1000 overflows a float; the budget is rejected before any work.
    graph = str(FIXTURES / "path5.graph")
    mech = tmp_path / "m.csv"
    assert main(["build", graph, "--e-epsilon", "2", "--out", str(mech)]) == 0
    argv = {
        "build": ["build", graph, "--out", str(tmp_path / "x.csv")],
        "verify": ["verify", graph, str(mech)],
        "trajectory": ["trajectory", "--boundary", "0.1,0.2,0.7", "--out", str(tmp_path / "t.csv")],
        "demo-no-optimal": ["demo-no-optimal"],
        "fuzz": ["fuzz", "--q", "3", "--trials", "1"],
    }[command]
    assert main([*argv, "--epsilon", "1000"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.out == ""


# Failures whose exit code and stderr must cross the process boundary as
# a shell sees them: argv (run in a directory holding only inf.csv), exit
# code, and a fragment of stdout.
CONSOLE_FAILURES = {
    "build": (["build", str(FIXTURES / "path5.graph"), "--epsilon", "50", "--out", "out.csv"], 2, ""),
    "fuzz": (
        ["fuzz", "--q", "4", "--trials", "50", "--seed", "1", "--epsilon", "50", "--delta", "0.01"],
        5,
        "result=step-not-close",
    ),
    "plot": (["plot", "inf.csv", "--out", "out.svg"], 1, ""),
}


@pytest.mark.parametrize("case", CONSOLE_FAILURES)
def test_console_failures_exit_without_a_traceback(tmp_path, case):
    argv, code, fragment = CONSOLE_FAILURES[case]
    (tmp_path / "inf.csv").write_text("t,k,color,p,s\ninf,1,1,0.5,0.5\n")
    proc = subprocess.run(
        [sys.executable, "-m", "rainbowdp", *argv],
        capture_output=True, text=True, cwd=tmp_path, env=child_env(), timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert fragment in proc.stdout
    assert "Traceback" not in proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["inf.csv"]


def test_byte_identical_reruns(tmp_path):
    # The second build to b.csv writes over the first one's file.
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["build", str(FIXTURES / "pentagon.graph"), "--e-epsilon", "2"]
    assert main(args + ["--out", str(out1)]) == 0
    for _ in range(2):
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


GOLDEN_BUILDS = [
    pytest.param(
        "path5", ["--e-epsilon", "2", "--delta", "0.01"],
        "e7c8d196614c4d2a05be4359d9ed8f967ceea1ac016a0e40c01021780305e9c6",
        id="path5",
    ),
    pytest.param(
        "pentagon", ["--e-epsilon", "2"],
        "b66547d263c17c3f2896e2a9833b46eeafe2062c9d71b15ddb6c63926dff6e63",
        id="pentagon",
    ),
    pytest.param(
        "grid30", ["--epsilon", "0.4", "--delta", "0.001"],
        "21ffdf87f519af09d75d798bd130626ab7408f2cef8cc951232443edec417205",
        id="grid30",
    ),
]


def _golden_graph_text(name: str) -> str:
    if name == "grid30":
        return striped_grid_text(30, 4, 5, seed=30, spread=0.08)
    return (FIXTURES / f"{name}.graph").read_text()


@pytest.mark.parametrize("name,budget_args,sha", GOLDEN_BUILDS)
def test_build_csv_matches_golden_hash(tmp_path, name, budget_args, sha):
    # The hashes pin the bytes of build's CSV: repr(float) cells, which
    # read back as the exact floats of the built mechanism.
    graph_path = tmp_path / f"{name}.graph"
    graph_path.write_text(_golden_graph_text(name))
    out = tmp_path / f"{name}.csv"
    assert main(["build", str(graph_path), *budget_args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


def test_verify_stdout_matches_golden_hash(tmp_path, capsys):
    # grid30's mechanism, built at epsilon 0.4, checked at epsilon 0.2:
    # 930 violation lines, whose text and sorted order must not move.
    graph_path = tmp_path / "grid30.graph"
    graph_path.write_text(_golden_graph_text("grid30"))
    out = tmp_path / "grid30.csv"
    assert main(["build", str(graph_path), "--epsilon", "0.4", "--delta", "0.001", "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(["verify", str(graph_path), str(out), "--epsilon", "0.2", "--delta", "0.001"])
    assert code == 2
    stdout = capsys.readouterr().out
    assert len(stdout.splitlines()) == 930
    assert hashlib.sha256(stdout.encode()).hexdigest() == (
        "259869c77503282e417a5ad5c37046d9bc0d2deb3660f4c4c539da30adab251f"
    )


GOLDEN_TRAJECTORIES = [
    pytest.param(
        ["--boundary", "0.1,0.2,0.7", "--e-epsilon", "2", "--delta", "0.01",
         "--steps", "6", "--substeps", "4"],
        "cc426947ea67015b3f2ba26e489947e7908de5bcb3cd3f13a798d4ab8e5fd2dd",
        id="substeps-delta",
    ),
    pytest.param(
        ["--boundary", "0.2,0.3,0.5", "--epsilon", "0", "--delta", "0.05", "--steps", "25"],
        "cf1fdbb621373273d75bc1e1053f7533430439c41741f3ee40db0b17253320d2",
        id="epsilon-zero",
    ),
    pytest.param(
        ["--boundary", "0,0.25,0.75", "--epsilon", "0.5", "--steps", "12", "--substeps", "2"],
        "63919ee87980e5aced851c752b15c09f84e59b4fa737921a61d02efba1073af3",
        id="zero-prefix",
    ),
]


@pytest.mark.parametrize("args,sha", GOLDEN_TRAJECTORIES)
def test_trajectory_csv_matches_golden_hash(tmp_path, args, sha):
    # Hashes of the CSVs written while closed_form_prefix recomputed each
    # prefix's crossing step for every t; the bytes must not move. The
    # zero-prefix case has tau = inf at delta = 0.
    out = tmp_path / "traj.csv"
    assert main(["trajectory", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


# Hand-written trajectory CSVs for the plot goldens. Rows are out of
# (t, k) order; (t, k) = (1, 1) appears twice with different p; k = 2 is
# labelled two ways, and k = 1 three ways, two of them on its last t.
PLOT_UNSORTED = """\
# rho 0.05
# tau 2,inf,0,1
t,k,color,p,s
2,2,blue,0.3,0.9
0,1,red,0.2,0.2
1,2,blue,0.5,0.8
0,2,green,0.4,0.6
1,1,red,0.6,0.6
1,1,red,0.1,0.1
2,1,crimson,0.7,0.7
2,1,scarlet,0.25,0.25
0.5,12,x,0.05,1
"""
# Every series is one point, so each is drawn as a circle.
PLOT_POINTS = """\
# tau 1,inf,4
t,k,color,p,s
3,2,b,0.25,0.5
0,1,a,0.5,0.5
1.5,3,c,0.125,0.625
0.5,4,d,1,1
"""
# t up to 5000: past the largest listed tick step. One tau entry is
# inf and one lies past the span.
PLOT_WIDE = """\
# rho 0
# tau inf,7000,2500,0
t,k,color,p,s
0,1,1,0.9,0.9
0,2,2,0.1,1
1250,1,1,0.6,0.6
1250,2,2,0.4,1
2500,1,1,0.3,0.3
2500,2,2,0.7,1
5000,1,1,0,0
5000,2,2,1,1
"""

# SVG hashes taken while plot built one row object per CSV line and
# sorted them all by (t, k): the drawn label of a k is the one on its
# last row in that order (file order among ties), and each k's points
# are drawn in (t, p) order.
_PLOT_SHAS = {
    "substeps-delta": "9931218bb53f2c13d8485efd235acf6f9b0b5667300ead8e366c1cb3949367dd",
    "epsilon-zero": "97b93ad67cfeb23f74dcfc191ea5ced1eb52cfcc3fdd007159bd6686a4ff8386",
    "zero-prefix": "0b22172cdd562c29d741135761c1da65de7ff1d913a00b0fb60130133e6fa3fb",
}
GOLDEN_PLOTS = [
    *(pytest.param(param.values[0], _PLOT_SHAS[param.id], id=param.id) for param in GOLDEN_TRAJECTORIES),
    pytest.param(PLOT_UNSORTED, "38a111f2d6a0756b9a9ae3a7f5ad15e44def8402591a3703c17c030f1d25ff45", id="unsorted"),
    pytest.param(PLOT_POINTS, "42b1f9462bedafc527fe73751bd50fd7c85c092b2ca33bb416e7c6c5a87e176d", id="points"),
    pytest.param(PLOT_WIDE, "b7dcd20d7422eda1ff22f04950be6bb9ed53dbee221874cfaeae8f9cc95a2e73", id="wide"),
]


@pytest.mark.parametrize("source,sha", GOLDEN_PLOTS)
def test_plot_svg_matches_golden_hash(tmp_path, source, sha):
    # source is a trajectory CSV's text or the trajectory arguments that
    # write one; the hashes pin the bytes of plot's SVG of it.
    csv = tmp_path / "traj.csv"
    if isinstance(source, str):
        csv.write_text(source)
    else:
        assert main(["trajectory", *source, "--out", str(csv)]) == 0
    svg = tmp_path / "traj.svg"
    assert main(["plot", str(csv), "--out", str(svg)]) == 0
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == sha
