"""CSV emission and parsing for mechanisms and trajectories.

Mechanism CSV cells are written as repr(float), the shortest decimal
that reads back as the same float, so parsing a written mechanism gives
it back bit for bit. Trajectory CSVs, and the numbers the CLI prints,
use fmt: 12 significant digits. Lines end in LF, so identical
invocations produce byte-identical files.
"""

from __future__ import annotations

import math
from array import array
from itertools import islice, repeat
from typing import Iterator

import numpy as np

from ..core import NEGATIVE_WINDOW, _outside_window, _row_sums
from ..graph import RainbowGraph
from ..mechanism import Mechanism, _node_rows

# Rows written by mechanism_csv read back exactly and miss a sum of 1
# only by the rounding of their own float entries (a few 1e-16). The
# window admits hand-written rows rounded to about 9 digits;
# SimplexVector's SUM_WINDOW is for rounded boundary vectors, which are
# renormalized, and mechanism rows never are.
ROW_SUM_TOL = 1e-9


# Text is split into lines this many characters at a time (cut after a
# newline), so a parser never holds a list of every line of a large file.
_BLOCK_CHARS = 1 << 16
# Distinct mechanism rows are joined and read this many at a time.
_ROWS_PER_READ = 4096
# The most (t, k) cells of a trajectory, one CSV line each: `trajectory`
# refuses to write more and `plot` to read more.
MAX_TRAJECTORY_CELLS = 1 << 17

# One series of a trajectory as plot draws it: its k, its label, and the
# t and p of its points.
Series = tuple[int, str, np.ndarray, np.ndarray]


class MissingNodes(LookupError):
    """A mechanism file has no row for some node of the graph."""


def numbered_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, line) for each line of text, numbered from 1, as
    enumerate(text.splitlines(), start=1) gives them, split one bounded
    block at a time. A block ends just after a newline, so no line break,
    not even a CR LF pair, is cut in two."""
    first, start = 1, 0
    while start < len(text):
        stop = text.find("\n", start + _BLOCK_CHARS) + 1 or len(text)
        lines = text[start:stop].splitlines()
        yield from enumerate(lines, first)
        first += len(lines)
        start = stop


def fmt(x: float) -> str:
    """Shortest 12-significant-digit decimal form, '.' separator."""
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".12g")


def mechanism_csv(graph: RainbowGraph, mech: Mechanism) -> str:
    """One row per node, probabilities in canonical color order as
    repr(float) cells; rows sorted by node identifier. Each row of
    mech.rows is formatted once and shared by every node that has it;
    a mechanism not on graph.nodes raises ValueError."""
    nodes, node_rows = graph.nodes, _node_rows(graph, mech).tolist()
    # Adding 0.0 turns -0.0 into 0.0, as fmt does.
    cells = ["," + ",".join(map(repr, row)) + "\n" for row in (mech.rows + 0.0).tolist()]
    parts = ["node," + ",".join(graph.color_space.colors) + "\n"]
    for i in sorted(range(len(nodes)), key=nodes.__getitem__):
        parts += (nodes[i], cells[node_rows[i]])
    return "".join(parts)


def _first_bad_row(rows: np.ndarray) -> tuple[int, str] | None:
    """The first row whose entries, added left to right, miss a sum of 1
    by more than ROW_SUM_TOL, or that holds an entry that is not finite
    or lies outside [0, 1] by more than NEGATIVE_WINDOW, with the error;
    a row failing both reports its sum."""
    total = _row_sums(rows)
    bad_sum = np.abs(total - 1.0) > ROW_SUM_TOL
    bad_entry = _outside_window(rows)
    bad = bad_sum | bad_entry.any(axis=1)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    if bad_sum[i]:
        return i, f"entries sum to {float(total[i])!r}, not 1"
    return i, f"entry {float(rows[i, int(np.argmax(bad_entry[i]))])!r} outside [0, 1]"


def _first_nodes(names: list[str]) -> str:
    """The count of names and the first three of them, since a mechanism
    file can miss every node of a large graph."""
    more = f" and {len(names) - 3} more" if len(names) > 3 else ""
    return f"({len(names)}): {names[:3]}{more}"


def parse_mechanism_csv(text: str, graph: RainbowGraph) -> Mechanism:
    """Parse a mechanism CSV into a Mechanism whose rows are the cells as
    read by float(): nothing is clamped or renormalized, and a row
    _first_bad_row finds fault with is rejected. Blank lines are skipped.

    Each distinct row text (a line after its node name) is read once, as
    mechanism_csv formats each row once: the Mechanism has one row per
    distinct text, numbered in order of first appearance, and nodes with
    the same text share it. An error names the physical line of the
    first bad line, where a row text is reported at its first appearance;
    the entry checks run on the rows read before that line.

    Names then resolve to ids on graph.nodes: rows for undeclared nodes
    raise ValueError, and, failing that, nodes with no row raise
    MissingNodes; each error gives the count and first three names, sorted."""
    lines = numbered_lines(text)
    header = next((line for _, line in lines if line.strip()), None)
    if header is None:
        raise ValueError("empty mechanism file")
    space = graph.color_space
    expected_header = "node," + ",".join(space.colors)
    if header != expected_header:
        raise ValueError(f"header {header!r} does not match colors {space.colors}")
    q = space.q
    row_by_name: dict[str, int] = {}
    # Each distinct row text's row id, and the line where it first appears.
    row_ids: dict[str, int] = {}
    first_line = array("q")
    fault = None
    try:
        for lineno, line in lines:
            name, _, row = line.partition(",")
            r = row_ids.get(row)
            # A row text has q - 1 commas; a blank line has row "".
            if r is None and row.count(",") != q - 1:
                if not line.strip():
                    continue
                raise ValueError(f"expected {1 + q} cells, got {line.count(',') + 1}")
            if name in row_by_name:
                raise ValueError(f"duplicate row for node {name!r}")
            if r is None:
                r = row_ids[row] = len(row_ids)
                first_line.append(lineno)
            row_by_name[name] = r
    except ValueError as exc:
        fault = f"line {lineno}: {exc}"
    # The row texts, all from lines before any fault the loop found, are
    # read a block at a time, so a cell that fails to read is the first fault.
    cells_read = array("d")
    texts = iter(row_ids)
    try:
        while block := list(islice(texts, _ROWS_PER_READ)):
            cells_read.extend(map(float, ",".join(block).split(",")))
    except ValueError as exc:
        # extend keeps the cells read before the failing one.
        fault = f"line {first_line[len(cells_read) // q]}: {exc}"
    rows = np.frombuffer(cells_read, dtype=np.float64)[:len(cells_read) // q * q].reshape(-1, q)
    bad = _first_bad_row(rows)
    if bad is not None:
        i, message = bad
        raise ValueError(f"line {first_line[i]}: {message}")
    if fault is not None:
        raise ValueError(fault)
    nodes = graph.nodes
    node_rows = np.fromiter(map(row_by_name.get, nodes, repeat(-1)), dtype=np.intp, count=len(nodes))
    if len(row_by_name) != len(nodes) or (node_rows < 0).any():  # the sorted differences only when they differ
        names = graph.node_index.keys()
        unknown = sorted(row_by_name.keys() - names)
        if unknown:
            raise ValueError(f"mechanism file has rows for undeclared nodes {_first_nodes(unknown)}")
        raise MissingNodes(f"mechanism file is missing nodes {_first_nodes(sorted(names - row_by_name.keys()))}")
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
