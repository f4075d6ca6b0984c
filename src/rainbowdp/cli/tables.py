"""CSV emission and parsing for mechanisms and trajectories.

Mechanism CSV cells are written as repr(float), the shortest decimal
that reads back as the same float, so parsing a written mechanism gives
it back bit for bit. Each slice of distinct rows is formatted by one %
call with a %r per cell, and each block of distinct row texts is read
by numpy's C reader (np.loadtxt), which parses a cell with the routine
float() uses; float() stays the reference, and reads, cell by cell, a
block numpy rejects, so it gives every parse error. Trajectory CSVs,
and the numbers the CLI prints, use fmt: 12 significant digits. Lines
end in LF, so identical invocations produce byte-identical files.
"""

from __future__ import annotations

import math
from array import array
from functools import partial
from itertools import islice
from typing import Iterator, TextIO

import numpy as np

from ..core import NEGATIVE_WINDOW, _first_bad_row
from ..graph import RainbowGraph
from ..mechanism import Mechanism, _node_rows


# Text, or a text file, is split into lines this many characters at a time
# (cut after a newline), so a parser never holds every line of a large file.
_BLOCK_CHARS = 1 << 16
# Distinct mechanism rows are read this many at a time, and formatted
# _ROWS_PER_FORMAT at a time: a format slice's text is held whole, and the
# smaller slice kept deep-path's bench peak RSS from rising.
_ROWS_PER_READ = 4096
_ROWS_PER_FORMAT = 512
# The most (t, k) cells of a trajectory, one CSV line each: `trajectory`
# refuses to write more and `plot` to read more.
MAX_TRAJECTORY_CELLS = 1 << 17

# One series of a trajectory as plot draws it: its k, its label, and the
# t and p of its points.
Series = tuple[int, str, np.ndarray, np.ndarray]


class MissingNodes(LookupError):
    """A mechanism file has no row for some node of the graph."""


def numbered_lines(source: str | TextIO) -> Iterator[tuple[int, str]]:
    """(line number, line) for each line of source, a string or a text
    file, as enumerate(text.splitlines(), start=1) gives them for its whole
    text, split one bounded block at a time. A block ends just after a
    newline, so no line break, not even a CR LF pair, is cut in two."""
    if isinstance(source, str):
        chunks = (source[i:i + _BLOCK_CHARS] for i in range(0, len(source), _BLOCK_CHARS))
    else:
        chunks = iter(partial(source.read, _BLOCK_CHARS), "")
    first, rest = 1, ""
    for chunk in chunks:
        head, newline, rest = (rest + chunk).rpartition("\n")
        lines = (head + newline).splitlines()
        yield from enumerate(lines, first)
        first += len(lines)
    yield from enumerate(rest.splitlines(), first)


def fmt(x: float) -> str:
    """Shortest 12-significant-digit decimal form, '.' separator."""
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".12g")


def mechanism_csv(graph: RainbowGraph, mech: Mechanism) -> str:
    """The joined mechanism_csv_blocks."""
    return "".join(mechanism_csv_blocks(graph, mech))


def mechanism_csv_blocks(graph: RainbowGraph, mech: Mechanism) -> Iterator[str]:
    """The header, then one row per node, _ROWS_PER_READ a block, in
    graph.name_order: repr(float) cells in canonical color order. Each row
    of mech.rows is formatted once, by one % call per slice; a mechanism
    not on the graph's nodes and colors raises ValueError."""
    nodes, node_rows = graph.nodes, _node_rows(graph, mech).tolist()
    rows = mech.rows + 0.0  # turns -0.0 into 0.0, as fmt does
    line = "," + ",".join(["%r"] * rows.shape[1]) + "\n"
    cells: list[str] = []
    for lo in range(0, len(rows), _ROWS_PER_FORMAT):
        part = rows[lo:lo + _ROWS_PER_FORMAT]
        cells += (line * len(part) % tuple(part.ravel().tolist())).splitlines(True)
    yield "node," + ",".join(graph.color_space.colors) + "\n"
    order = graph.name_order
    for lo in range(0, len(order), _ROWS_PER_READ):
        parts = []
        for i in order[lo:lo + _ROWS_PER_READ].tolist():
            parts += (nodes[i], cells[node_rows[i]])
        yield "".join(parts)


def _read_cells(cells: array, block: list[str], q: int) -> None:
    """Append the q cells of each row text of block to cells, as float()
    reads them. numpy's C reader reads the block in one call; a block it
    rejects or reads to another shape (a cell with '_' or non-ASCII
    digits, which only float() takes) is read by float() cell by cell,
    whose ValueError leaves the cells before the bad one appended."""
    try:
        read = np.loadtxt(block, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        read = None
    if read is not None and read.shape == (len(block), q):
        cells.frombytes(read.tobytes())
    else:
        cells.extend(map(float, ",".join(block).split(",")))


def _first_nodes(names: list[str]) -> str:
    """The count of names and the first three of them, since a mechanism
    file can miss every node of a large graph."""
    more = f" and {len(names) - 3} more" if len(names) > 3 else ""
    return f"({len(names)}): {names[:3]}{more}"


def parse_mechanism_csv(source: str | TextIO, graph: RainbowGraph) -> Mechanism:
    """Parse a mechanism CSV, a string or a text file read a block at a
    time, into a Mechanism whose rows are the cells as read by float():
    nothing is clamped or renormalized, and a row _first_bad_row finds
    fault with is rejected. Blank lines are skipped.

    Each distinct row text (a line after its node name) is read once, as
    mechanism_csv formats each row once: the Mechanism has one row per
    distinct text, numbered in order of first appearance, and nodes with
    the same text share it. An error names the physical line of the
    first bad line, where a row text is reported at its first appearance;
    the entry checks run on the rows read before that line.

    Names resolve to ids on graph.nodes as they are read: by position while
    the lines follow graph.name_order, as mechanism_csv writes them, and by
    graph.node_index from the first line that does not. Rows for
    undeclared nodes raise ValueError, and, failing that, nodes with no
    row raise MissingNodes; each error gives the count and first three
    names, sorted."""
    lines = numbered_lines(source)
    header = next((line for _, line in lines if line.strip()), None)
    if header is None:
        raise ValueError("empty mechanism file")
    space = graph.color_space
    if header != "node," + ",".join(space.colors):
        raise ValueError(f"header {header!r} does not match colors {space.colors}")
    q, nodes, order = space.q, graph.nodes, graph.name_order
    # want is the next name in name order while the lines follow it, and
    # None once they leave it; a line matching it gets i = -1, and its row
    # id goes to by_position.
    expected = map(nodes.__getitem__, memoryview(order))
    want, by_position = next(expected, None), array("q")

    def scattered() -> np.ndarray:
        node_rows = np.full(len(nodes), -1, dtype=np.intp)
        node_rows[order[:len(by_position)]] = by_position
        return node_rows

    node_rows, unknown = None, set()
    # Each distinct row text's row id, and the line where it first appears.
    row_ids: dict[str, int] = {}
    first_line = array("q")
    fault = None
    for lineno, line in lines:
        name, _, row = line.partition(",")
        r = row_ids.get(row)
        # A row text has q - 1 commas; a blank line has row "".
        if r is None and row.count(",") != q - 1:
            if not line.strip():
                continue
            fault = f"line {lineno}: expected {1 + q} cells, got {line.count(',') + 1}"
            break
        if name == want:
            want, i = next(expected, None), -1
        else:
            if node_rows is None:
                node_rows, index, want = scattered().tolist(), graph.node_index, None
            i = index.get(name)
            if name in unknown if i is None else node_rows[i] >= 0:
                fault = f"line {lineno}: duplicate row for node {name!r}"
                break
        if r is None:
            r = row_ids[row] = len(row_ids)
            first_line.append(lineno)
        if i is None:
            unknown.add(name)
        elif i < 0:
            by_position.append(r)
        else:
            node_rows[i] = r
    # The row texts, all from lines before any fault the loop found, are
    # read a block at a time, so a cell that fails to read is the first fault.
    cells_read = array("d")
    texts = iter(row_ids)
    try:
        while block := list(islice(texts, _ROWS_PER_READ)):
            _read_cells(cells_read, block, q)
    except ValueError as exc:
        # _read_cells keeps the cells read before the failing one.
        fault = f"line {first_line[len(cells_read) // q]}: {exc}"
    rows = np.frombuffer(cells_read, dtype=np.float64)[:len(cells_read) // q * q].reshape(-1, q)
    bad = _first_bad_row(rows)
    if bad is not None:
        i, message = bad
        raise ValueError(f"line {first_line[i]}: {message}")
    if fault is not None:
        raise ValueError(fault)
    if unknown:
        raise ValueError(f"mechanism file has rows for undeclared nodes {_first_nodes(sorted(unknown))}")
    node_rows = scattered() if node_rows is None else np.array(node_rows, dtype=np.intp)
    if (node_rows < 0).any():
        missing = sorted(map(nodes.__getitem__, np.flatnonzero(node_rows < 0).tolist()))
        raise MissingNodes(f"mechanism file is missing nodes {_first_nodes(missing)}")
    return Mechanism(rows, node_rows, nodes, space)


def trajectory_csv(
    t: np.ndarray, p: np.ndarray, s: np.ndarray, profile: tuple[float, tuple[float, ...]] | None = None
) -> str:
    """build_trajectory's arrays as rows (t, k, color, p, s) sorted by
    (t, k), k = 1..q also naming the color, preceded by the drift and the
    transition indices as comment lines when tau_profile's (rho, tau) is
    given (the plotter reads them back for its markers)."""
    lines: list[str] = []
    if profile is not None:
        rho, tau = profile
        lines.append("# rho " + fmt(rho))
        lines.append("# tau " + ",".join(map(fmt_tau, tau)))
    lines.append("t,k,color,p,s")
    ks = [f",{k},{k}," for k in range(1, p.shape[1] + 1)]
    # Each time is formatted once; p and s are read flat, in (t, k) order,
    # with no Python list per time. The flat lists are referenced only by
    # the comprehension, so they are freed before the join.
    heads = (time + k for time in map(fmt, t.tolist()) for k in ks)
    lines += [
        f"{head}{fmt(pk)},{fmt(sk)}"
        for head, pk, sk in zip(heads, p.ravel().tolist(), s.ravel().tolist())
    ]
    return "\n".join(lines) + "\n"


def fmt_tau(v: float) -> str:
    """A transition index as an integer, or 'inf' for math.inf."""
    return "inf" if math.isinf(v) else str(int(v))


def _finite(name: str, cell: str) -> float:
    x = float(cell)
    if not math.isfinite(x):
        raise ValueError(f"{name} is not finite: {cell!r}")
    return x


def _time(cell: str) -> float:
    x = _finite("t", cell)
    if x < 0.0:
        raise ValueError(f"t is negative: {cell!r}")
    return x


def _probability(name: str, cell: str) -> float:
    # The window SimplexVector allows around [0, 1].
    x = _finite(name, cell)
    if not -NEGATIVE_WINDOW <= x <= 1.0 + NEGATIVE_WINDOW:
        raise ValueError(f"{name} outside [0, 1]: {cell!r}")
    return x


def _tau_entry(cell: str) -> float:
    # fmt_tau writes math.inf as 'inf'; nan, -inf and negative values are
    # no transition step.
    x = float(cell)
    if not x >= 0.0:
        raise ValueError(f"tau entry is not a step or inf: {cell!r}")
    return x


def parse_trajectory_csv(
    text: str,
) -> tuple[list[Series], float | None, tuple[float, ...] | None]:
    """Parse a trajectory CSV into its series, one per k in increasing k,
    plus any rho/tau comment values found. A series has its points in
    (t, p) order, as plot draws them, and the label of its last row by t
    (the last in the file among rows of that t). t, p, s and rho must be
    finite, t and each tau entry at least 0, p and s in [0, 1] (up to
    NEGATIVE_WINDOW); a tau entry may be 'inf'. At most
    MAX_TRAJECTORY_CELLS data rows are read: the first row past them is
    an error."""
    rho: float | None = None
    tau: tuple[float, ...] | None = None
    # Each k's series number, in order of first appearance, and per data
    # row its series number, t, p and label.
    numbers: dict[int, int] = {}
    group, ts, ps = array("q"), array("d"), array("d")
    labels: list[str] = []
    header_seen = False
    for lineno, raw in numbered_lines(text):
        line = raw.strip()
        if not line:
            continue
        comment = line.startswith("#")
        if not comment and not header_seen:
            if line != "t,k,color,p,s":
                raise ValueError(f"line {lineno}: expected trajectory header, got {line!r}")
            header_seen = True
            continue
        try:
            if comment:
                body = line[1:].strip()
                if body.startswith("rho "):
                    rho = _finite("rho", body[4:])
                elif body.startswith("tau "):
                    tau = tuple(map(_tau_entry, body[4:].split(",")))
                continue
            if len(ts) == MAX_TRAJECTORY_CELLS:
                raise ValueError(f"more than {MAX_TRAJECTORY_CELLS} data rows")
            cells = line.split(",")
            if len(cells) != 5:
                raise ValueError(f"expected 5 cells, got {len(cells)}")
            t = _time(cells[0])
            k = int(cells[1])
            p = _probability("p", cells[3])
            _probability("s", cells[4])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        group.append(numbers.setdefault(k, len(numbers)))
        ts.append(t)
        ps.append(p)
        labels.append(cells[2])
    if not header_seen:
        raise ValueError("missing trajectory header")
    g, t, p = np.array(group, dtype=np.int64), np.array(ts), np.array(ps)
    # Both orders put each series' rows together, by t; lexsort is
    # stable, so rows of equal t keep file order in the first.
    by_time, drawn = np.lexsort((t, g)), np.lexsort((p, t, g))
    bounds = np.cumsum([0, *np.bincount(g, minlength=len(numbers)).tolist()])
    series = []
    for k, n in sorted(numbers.items()):
        rows = drawn[bounds[n]:bounds[n + 1]]
        series.append((k, labels[by_time[bounds[n + 1] - 1]], t[rows], p[rows]))
    return series, rho, tau
