import gc
import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rainbowdp as r
from helpers import striped_grid_text
from rainbowdp.cli.graphfile import GraphFileError, emit_graph_file, parse_graph_file
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
    regions = r.decompose_regions(gf.graph)
    c123 = gf.graph.preference["d1"]
    assert regions[c123].boundary == frozenset({"d1", "d4"})
    assert regions[c123].interior == frozenset({"d2", "d3"})


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


def test_graph_file_round_trip():
    gf = parse_graph_file((FIXTURES / "pentagon.graph").read_text())
    again = parse_graph_file(emit_graph_file(gf))
    assert again.graph.nodes == gf.graph.nodes
    assert again.graph.edges == gf.graph.edges
    assert again.graph.preference == gf.graph.preference
    assert again.graph.color_space == gf.graph.color_space
    assert again.boundary.values == gf.boundary.values
    assert emit_graph_file(again) == emit_graph_file(gf)


def test_mechanism_csv_round_trip():
    gf = parse_graph_file((FIXTURES / "path5.graph").read_text())
    mech = r.optimal_mechanism(gf.graph, gf.boundary, r.PrivacyBudget(math.log(2), 0.0))
    text = mechanism_csv(gf.graph, mech)
    parsed = parse_mechanism_csv(text, gf.graph.color_space)
    assert set(parsed.row_of) == set(gf.graph.nodes)
    for d in gf.graph.nodes:
        assert parsed.assignment[d].p == mech.assignment[d].p
    assert mechanism_csv(gf.graph, parsed) == text


def test_mechanism_csv_rows_for_shared_and_distinct_vectors():
    gf = parse_graph_file(
        "colors x y z\nnode a x y z\nnode b x y z\nnode c x y z\nedge a b\nedge b c\n"
    )
    shared = r.SimplexVector((0.5, 0.25, 0.25))
    mech = r.Mechanism(
        {"c": shared, "a": shared, "b": r.SimplexVector((0.5, 0.5, 0.0))},
        gf.graph.color_space,
    )
    assert mechanism_csv(gf.graph, mech) == (
        "node,x,y,z\na,0.5,0.25,0.25\nb,0.5,0.5,0.0\nc,0.5,0.25,0.25\n"
    )


def test_mechanism_csv_errors_give_physical_line_numbers():
    space = r.ColorSpace(("1", "2"))
    with pytest.raises(ValueError, match=r"^line 6: entries sum to 1\.1, not 1$"):
        parse_mechanism_csv("node,1,2\n\nx,0.5,0.5\n\n\ny,0.5,0.6\n", space)
    with pytest.raises(ValueError, match=r"^line 5: duplicate row for node 'x'$"):
        parse_mechanism_csv("\nnode,1,2\nx,0.5,0.5\n\nx,0.5,0.5\n", space)
    with pytest.raises(ValueError, match="empty mechanism file"):
        parse_mechanism_csv("\n  \n", space)


def test_mechanism_csv_row_sum_is_added_left_to_right():
    # A compensated sum, builtin sum() from Python 3.12 on, gives 1.1.
    space = r.ColorSpace(("1", "2", "3", "4"))
    with pytest.raises(ValueError, match=r"^line 2: entries sum to 1\.0999999999999999, not 1$"):
        parse_mechanism_csv("node,1,2,3,4\nx,0.7,0.1,0.1,0.2\n", space)


def test_mechanism_csv_writes_no_negative_zero():
    gf = parse_graph_file("colors x y\nnode a x y\nnode b y x\nedge a b\n")
    mech = r.Mechanism.from_rows(np.array([[1.0, -0.0]]), {"a": 0, "b": 0}, gf.graph.color_space)
    assert mechanism_csv(gf.graph, mech) == "node,x,y\na,1.0,0.0\nb,1.0,0.0\n"


def test_mechanism_csv_rejects_cells_off_the_simplex_by_line():
    # Rows are taken as read: a cell that is not finite or lies outside
    # [0, 1] by more than NEGATIVE_WINDOW is reported with its line; a
    # row sum is checked first, and nan passes it.
    space = r.ColorSpace(("1", "2", "3"))
    head = "node,1,2,3\nx,0.2,0.3,0.5\n\n"
    for row, message in (
        ("y,nan,0.5,0.5", "entry nan outside [0, 1]"),
        ("y,inf,0.5,0.5", "entries sum to inf, not 1"),
        ("y,-inf,inf,0.5", "entry -inf outside [0, 1]"),
        ("y,1.5,-0.5,0.0", "entry 1.5 outside [0, 1]"),
        ("y,0.5,0.5000000011,-0.0000000011", "entry -1.1e-09 outside [0, 1]"),
    ):
        with pytest.raises(ValueError) as exc:
            parse_mechanism_csv(head + row + "\n", space)
        assert str(exc.value) == f"line 4: {message}"
    # Inside the window a row is kept as it is, with no clamping.
    mech = parse_mechanism_csv(head + "y,0.5,0.5000000005,-0.0000000005\n", space)
    assert mech.rows[mech.row_of["y"]].tolist() == [0.5, 0.5000000005, -0.0000000005]
    assert mech.assignment["y"].p == (0.5, 0.5000000005, -0.0000000005)


def test_mechanism_csv_reports_the_first_failing_line():
    space = r.ColorSpace(("1", "2"))
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
        with pytest.raises(ValueError) as exc:
            parse_mechanism_csv(text, space)
        assert str(exc.value) == message


def test_mechanism_csv_parses_each_distinct_row_once(monkeypatch):
    # 10,000 nodes share 3 row texts: the matrix has 3 rows, read with one
    # float() call per cell of each distinct row, and every node's row is
    # the float() of its own line's cells, bit for bit.
    texts = ["0.5,0.25,0.25", "0.1,0.2,0.7", "1.0,0.0,0.0"]
    n = 10_000
    text = "node,a,b,c\n" + "".join(f"n{i},{texts[i % 3]}\n" for i in range(n))
    calls = []

    def counted_float(cell):
        calls.append(cell)
        return float(cell)

    monkeypatch.setattr(tables, "float", counted_float, raising=False)
    mech = parse_mechanism_csv(text, r.ColorSpace(("a", "b", "c")))
    assert mech.rows.shape == (3, 3)
    assert len(calls) == 9
    assert len(mech.row_of) == n
    for i in range(n):
        want = np.array([float(x) for x in texts[i % 3].split(",")])
        assert mech.rows[mech.row_of[f"n{i}"]].tobytes() == want.tobytes()


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
def test_mechanism_csv_distinct_rows_keep_error_lines(text, message):
    with pytest.raises(ValueError) as exc:
        parse_mechanism_csv(text, r.ColorSpace(("1", "2")))
    assert str(exc.value) == message


def test_mechanism_csv_distinct_rows_read_in_blocks_keep_error_lines():
    # A cell that fails to read in the second block of distinct rows is
    # reported on its line, after the first bad row before it, if any.
    rows = [f"n{i},{i / 8192!r},{1 - i / 8192!r}" for i in range(6000)]
    rows[4500] = "bad,0.5,x"
    text = "node,1,2\n" + "\n".join(rows) + "\n"
    with pytest.raises(ValueError, match=r"^line 4502: could not convert string to float: 'x'$"):
        parse_mechanism_csv(text, r.ColorSpace(("1", "2")))
    rows[4400] = "off,0.5,0.6"
    text = "node,1,2\n" + "\n".join(rows) + "\n"
    with pytest.raises(ValueError, match=r"^line 4402: entries sum to 1\.1, not 1$"):
        parse_mechanism_csv(text, r.ColorSpace(("1", "2")))


def test_build_and_verify_leave_the_string_views_unbuilt(tmp_path, monkeypatch, capsys):
    # The CLI runs on node ids: the name-pair edges and the preference
    # dict of the parsed graph are never built.
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


def test_verify_dp_names_the_first_missing_node_in_sorted_edge_order():
    # The node is found from the edge rows, with no name-pair edge set.
    gf = parse_graph_file(
        "colors a b\nnode z a b\nnode y b a\nnode x a b\nnode w b a\n"
        "edge z y\nedge y x\nedge x w\nedge w z\n"
    )
    graph = gf.graph
    rows = np.array([[0.5, 0.5]])
    budget = r.PrivacyBudget(math.log(2.0), 0.0)
    for row_of, first in (({"z": 0, "y": 0}, "w"), ({"w": 0, "x": 0, "z": 0}, "y"), ({"y": 0, "x": 0}, "w")):
        mech = r.Mechanism.from_rows(rows, row_of, graph.color_space)
        with pytest.raises(KeyError) as exc:
            r.verify_dp(graph, mech, budget)
        assert exc.value.args[0] == f"mechanism has no distribution for node {first!r}"
    assert "edges" not in vars(graph)


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
    [("path5", ["--e-epsilon", "2", "--delta", "0.01"]), ("pentagon", ["--e-epsilon", "2"])],
)
def test_cmd_verify_accepts_build_output(tmp_path, capsys, name, budget_args):
    graph_path = str(FIXTURES / f"{name}.graph")
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
        table, rho, tau = parse_trajectory_csv(out.read_text())
        assert tau is not None and len(tau) == 5
        assert len(table.rows) == 61 * 5


def test_cmd_trajectory_epsilon_zero_allowed(tmp_path, capsys):
    out = tmp_path / "flat.csv"
    code = main(
        ["trajectory", "--boundary", "0.5,0.5", "--epsilon", "0",
         "--delta", "0", "--steps", "3", "--out", str(out)]
    )
    assert code == 0
    assert "n/a (epsilon=0)" in capsys.readouterr().out
    table, rho, tau = parse_trajectory_csv(out.read_text())
    assert rho is None and tau is None
    assert all(row.p in (0.5,) for row in table.rows)


def test_trajectory_rows_sorted_and_consistent(tmp_path):
    out = tmp_path / "t.csv"
    main(
        ["trajectory", "--boundary", "0.1,0.2,0.7", "--e-epsilon", "2",
         "--steps", "5", "--substeps", "4", "--out", str(out)]
    )
    table, _, _ = parse_trajectory_csv(out.read_text())
    keys = [(row.t, row.k) for row in table.rows]
    assert keys == sorted(keys)
    by_t: dict[float, list] = {}
    for row in table.rows:
        by_t.setdefault(row.t, []).append(row)
    for rows in by_t.values():
        s = [row.s for row in rows]
        assert all(s[i] <= s[i + 1] + 1e-12 for i in range(len(s) - 1))
        assert abs(s[-1] - 1.0) <= 1e-9
        assert all(row.p >= -1e-12 for row in rows)


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


def test_cmd_plot_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    # Each error names its line, the rho and tau comments' values included.
    for text, error in [
        ("not,a,trajectory\n1,2,3\n", "error: line 1: expected trajectory header"),
        ("# rho abc\nt,k,color,p,s\n", "error: line 1: could not convert string to float: 'abc'"),
        ("t,k,color,p,s\n\n# tau 1,x\n", "error: line 3: could not convert string to float: 'x'"),
        ("t,k,color,p,s\n0,1,1,0.5\n", "error: line 2: expected 5 cells, got 4"),
        ("t,k,color,p,s\n0,1,1,x,0.5\n", "error: line 2: could not convert string to float: 'x'"),
    ]:
        bad.write_text(text)
        assert main(["plot", str(bad), "--out", str(tmp_path / "x.svg")]) == 1
        assert capsys.readouterr().err.startswith(error)


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
# not change.
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
        '"prefix_index": 0, "sample": ["0.552351602739", "0.120774222112", "0.153743596449", '
        '"0.0625473003104", "0.00356227662523", "0.0512644765949", "0.0557565251692"], '
        '"seed": 5, "trial": 0}\n'
        "fuzz q=7 trials=30 seed=5 epsilon=0.4 delta=0.03 samples=64 "
        "result=counterexample trial=0\n",
    ),
]


# Taken before fuzz moved to blocks of trials: the degenerate budget, one
# and two samples per trial (no rejection sampling), delta = 1 and two
# mutant runs, one of them at epsilon = 0.
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
        '"0.0165112073823", "0.109954448975"], "prefix_index": 1, "sample": ["0.494241427805", '
        '"0.0503783593318", "0.378914556506", "0.0165112073823", "0.059954448975"], '
        '"seed": 4, "trial": 0}\n'
        "fuzz q=5 trials=30 seed=4 epsilon=0 delta=0.05 samples=3 result=counterexample trial=0\n",
    ),
    (
        ["--q", "8", "--trials", "100", "--seed", "2", "--epsilon", "0.0001", "--delta", "1e-7"],
        0,
        "fuzz q=8 trials=100 seed=2 epsilon=0.0001 delta=1e-07 samples=64 result=ok\n",
    ),
]


@pytest.mark.parametrize("args,code,stdout", FUZZ_GOLDEN + FUZZ_GOLDEN_BLOCKS)
def test_cmd_fuzz_golden_stdout(capsys, args, code, stdout):
    assert main(["fuzz", *args]) == code
    assert capsys.readouterr().out == stdout


@pytest.mark.parametrize("bad,message", [("--samples=0", "samples >= 1"), ("--seed=-1", "seed >= 0")])
def test_cmd_fuzz_rejects_bad_samples_and_seed(capsys, bad, message):
    assert main(["fuzz", "--q", "4", "--trials", "2", "--epsilon", "0.3", bad]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_cmd_fuzz_caps_samples(capsys):
    # Checked before anything is drawn: a trial's samples are held at once.
    assert main(["fuzz", "--q", "12", "--trials", "1000000", "--epsilon", "0.3", "--samples", "65537"]) == 1
    assert capsys.readouterr() == ("", "error: need samples <= 65536\n")
    assert main(["fuzz", "--q", "2", "--trials", "1", "--epsilon", "0.3", "--samples", "65536"]) == 0
    assert capsys.readouterr().out.endswith("samples=65536 result=ok\n")


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


@pytest.mark.parametrize("command", ["build", "trajectory", "plot"])
def test_unwritable_out_exits_1(tmp_path, capsys, command):
    traj = tmp_path / "t.csv"
    assert main(["trajectory", "--boundary", "0.1,0.2,0.7", "--e-epsilon", "2",
                 "--steps", "2", "--out", str(traj)]) == 0
    inputs = {
        "build": [str(FIXTURES / "path5.graph"), "--e-epsilon", "2"],
        "trajectory": ["--boundary", "0.1,0.2,0.7", "--e-epsilon", "2"],
        "plot": [str(traj)],
    }[command]
    capsys.readouterr()
    assert main([command, *inputs, "--out", str(tmp_path / "missing" / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


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


def test_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["build", str(FIXTURES / "pentagon.graph"), "--e-epsilon", "2"]
    assert main(args + ["--out", str(out1)]) == 0
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
