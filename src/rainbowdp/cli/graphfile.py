"""Line-oriented text format for rainbow graphs.

    colors <c1> <c2> ... <cq>            # canonical color order, first
    node <id> <r1> <r2> ... <rq>         # rainbow, most preferred first
    edge <idA> <idB>                     # undirected, idA != idB
    boundary <r1>,<r2>,...,<rq> <p1> ... <pq>
        # rainbow comma-separated in preference order;
        # probabilities in canonical color order

`#` starts a comment; tokens are whitespace-separated. Lines after
`colors` may come in any order: an edge may name a node declared further
down. The parser round-trips with emit_graph_file.

parse_graph_file has two readers. The bulk reader (_parse_bytes) takes
the form emit_graph_file writes: `colors` on the first line, printable
ASCII tokens split by single spaces, an LF after every line, and no
comments, tabs, CRs or blank lines. It reads the file's bytes with
numpy, with no Python step per node or edge line. Any other form, and
any file with an error, goes to the line reader (_parse_lines), which
alone gives diagnostics, so these carry line numbers whichever form the
file has.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from ..core import ColorSpace, Rainbow, SimplexVector
from ..graph import RainbowGraph
from ..mechanism import BoundaryCondition
from .tables import fmt, numbered_lines


class GraphFileError(ValueError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True, eq=False)
class GraphFile:
    graph: RainbowGraph
    boundary: BoundaryCondition | None


def _check_identifier(lineno: int, kind: str, ident: str) -> str:
    if "," in ident:
        raise GraphFileError(lineno, f"{kind} identifier {ident!r} may not contain a comma")
    return ident


def _parse_probability(lineno: int, token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise GraphFileError(lineno, f"malformed probability {token!r}") from None
    if not value == value or value in (float("inf"), float("-inf")):
        raise GraphFileError(lineno, f"malformed probability {token!r}")
    return value


def _rainbow_from_names(
    lineno: int, names: list[str], space: ColorSpace
) -> Rainbow:
    for name in names:
        if name not in space.colors:
            raise GraphFileError(lineno, f"unknown color {name!r}")
    if len(names) != space.q or len(set(names)) != len(names):
        raise GraphFileError(lineno, f"rainbow {' '.join(names)!r} is not a permutation of the colors")
    return Rainbow(tuple(space.index_of(n) for n in names))


def parse_graph_file(text: str) -> GraphFile:
    """Parse and validate a graph file: in bulk when it has the emitted
    form and no error, else line by line (see the module docstring). The
    two readers give the same graph and boundary condition."""
    gf = _parse_bytes(text)
    return gf if gf is not None else _parse_lines(text)


# Every byte the bulk reader takes: printable ASCII except '#', and LF.
_BULK_BYTES = bytes(c for c in range(0x20, 0x7F) if c != ord("#")) + b"\n"


def _fixed_width(buf: np.ndarray, start: np.ndarray, stop: np.ndarray, width: int) -> np.ndarray:
    """The byte strings buf[start[i]:stop[i]], none longer than width, as
    one 'S<width>' array padded with NULs, gathered one column at a time."""
    out = np.empty((len(start), width), dtype=np.uint8)
    for k in range(width):
        out[:, k] = buf.take(start + k, mode="clip")
    out[np.arange(width) >= (stop - start)[:, None]] = 0
    return out.view(f"S{width}").ravel()


def _body_fields(
    buf: np.ndarray, q: int
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], list[tuple[int, int]]] | None:
    """(names, rainbows, ends, others) of the lines after the first, in
    the emitted form: the node ids and rainbow texts of the node lines and
    the endpoint pairs of the edge lines as fixed-width byte strings, and
    the (start, stop) spans of the other lines; None if any line is out
    of that form or a node id holds a comma."""
    stops = np.flatnonzero(buf == ord("\n")).astype(np.int32)
    starts, stops = stops[:-1] + 1, stops[1:]
    # No token is empty: no space follows a space or ends a line.
    spaces = np.flatnonzero(buf == ord(" ")).astype(np.int32)
    after = buf[spaces + 1]
    if ((after == ord(" ")) | (after == ord("\n"))).any():
        return None
    # Each line's first space, as an index into spaces, and its number of spaces.
    first = np.searchsorted(spaces, starts)
    count = np.diff(first, append=len(spaces))
    kind = buf[starts]
    node, edge = kind == ord("n"), kind == ord("e")
    node_starts, edge_starts = starts[node], starts[edge]
    # A prefix read past the end of the file meets its last LF and fails.
    for line_starts, prefix in ((node_starts, b"node "), (edge_starts, b"edge ")):
        for k, c in enumerate(prefix):
            if (buf.take(line_starts + k, mode="clip") != c).any():
                return None
    if len(node_starts) == 0 or (count[node] != q + 1).any() or (count[edge] != 2).any():
        return None
    # "node <id> <rainbow>" and "edge <a> <b>": each line's second space
    # ends its first field.
    id_stops, mid = spaces[first[node] + 1], spaces[first[edge] + 1]
    width = int((id_stops - node_starts).max()) - 5
    names = _fixed_width(buf, node_starts + 5, id_stops, width)
    if (names.view(np.uint8) == ord(",")).any():
        return None
    rainbow_width = int((stops[node] - id_stops).max()) - 1
    rainbows = _fixed_width(buf, id_stops + 1, stops[node], rainbow_width)
    spans = ((edge_starts + 5, mid), (mid + 1, stops[edge]))
    if any(int((stop - start).max(initial=0)) > width for start, stop in spans):
        return None
    ends = [_fixed_width(buf, start, stop, width) for start, stop in spans]
    other = ~(node | edge)
    return names, rainbows, ends, list(zip(starts[other].tolist(), stops[other].tolist()))


def _edge_ends(names: np.ndarray, ends: list[np.ndarray]) -> np.ndarray | None:
    """The edges' rows of node ids (positions in names), each turned so
    that its smaller name comes first; None on a duplicate node, an
    undeclared endpoint, a self-loop or a repeated edge."""
    order = np.argsort(names)
    ranked = names[order]
    if (ranked[1:] == ranked[:-1]).any():
        return None
    ranks = []
    for names_at in ends:
        rank = np.searchsorted(ranked, names_at)
        if (ranked.take(rank, mode="clip") != names_at).any():
            return None
        ranks.append(rank)
    # Byte order is str order for ASCII, so the smaller rank is the smaller name.
    low, high = np.minimum(*ranks), np.maximum(*ranks)
    codes = np.sort(low * len(names) + high)
    if (low == high).any() or (codes[1:] == codes[:-1]).any():
        return None
    return np.stack((order[low], order[high]), axis=1)


def _parse_bytes(text: str) -> GraphFile | None:
    """The graph file read on its bytes, or None when text is not in the
    emitted form or holds anything _parse_lines would reject; never an
    error. Node ids are node-line positions, as _parse_lines numbers
    them. Names are fixed-width byte strings; one sort of the node names
    and a searchsorted turn edge endpoints into ids, and each distinct
    rainbow text is checked once. Byte positions are int32, and each
    array is dropped once used, so that the peak stays below the line
    reader's."""
    if not text.isascii() or len(text) >= 2**31:
        return None
    data = text.encode("ascii")
    if data.translate(None, _BULK_BYTES) or not data.endswith(b"\n"):
        return None
    tokens = text[: data.index(b"\n")].split(" ")
    if tokens[0] != "colors" or len(tokens) < 3 or not all(tokens) or any("," in t for t in tokens):
        return None
    try:
        space = ColorSpace(tuple(tokens[1:]))
    except ValueError:
        return None
    fields = _body_fields(np.frombuffer(data, dtype=np.uint8), space.q)
    del data
    if fields is None:
        return None
    names, rainbow_texts, ends, others = fields
    edge_ends = _edge_ends(names, ends)
    if edge_ends is None:
        return None
    del ends
    distinct, rainbow_ids = np.unique(rainbow_texts, return_inverse=True)
    del rainbow_texts
    boundary: dict[Rainbow, SimplexVector] = {}
    try:
        rainbows = [_rainbow_from_names(0, t.split(" "), space) for t in distinct.astype(str).tolist()]
        for start, stop in others:
            tokens = text[start:stop].split(" ")
            if tokens[0] != "boundary" or len(tokens) != 2 + space.q:
                return None
            rainbow = _rainbow_from_names(0, tokens[1].split(","), space)
            if rainbow in boundary:
                return None
            boundary[rainbow] = SimplexVector(tuple(_parse_probability(0, t) for t in tokens[2:]))
    except ValueError:
        return None
    nodes = tuple(names.astype(str).tolist())
    del names
    graph = RainbowGraph.from_ids(nodes, rainbow_ids.ravel(), rainbows, edge_ends, space)
    return GraphFile(graph, BoundaryCondition(boundary) if boundary else None)


def _parse_lines(text: str) -> GraphFile:
    """Parse and validate a graph file line by line; diagnostics carry line
    numbers and come in line order, except that an edge naming an undeclared
    node is reported after the last line, since nodes may follow edges.

    The graph is built straight from node ids (RainbowGraph.from_ids):
    each node gets an id when first named, each edge is kept as two ids
    turned so that the smaller name comes first, and duplicate edges are
    found on id pairs. Edges keep their file order. When an edge names a
    node before its node line, the ids are renumbered into declaration
    order after the last line, so `nodes` follows the node lines."""
    space: ColorSpace | None = None
    # One Rainbow per distinct name tuple, as an index into rainbow_list;
    # a bad tuple fails on its first line.
    rainbows: dict[tuple[str, ...], int] = {}
    rainbow_list: list[Rainbow] = []
    # Node ids in order of first mention, each id's rainbow (-1 until its
    # node line), and the ids in node-line order.
    index: dict[str, int] = {}
    rainbow_of: list[int] = []
    declared: list[int] = []
    # Each edge as the key a << 32 | b of its ids (a, b), in file order.
    edge_keys = array("q")
    seen: set[int] = set()
    # (line, node id) of each node first named by an edge, not a node line.
    forward: list[tuple[int, str]] = []
    boundary: dict[Rainbow, SimplexVector] = {}

    def rainbow_at(lineno: int, names: list[str]) -> int:
        key = tuple(names)
        if key not in rainbows:
            rainbows[key] = len(rainbow_list)
            rainbow_list.append(_rainbow_from_names(lineno, names, space))
        return rainbows[key]

    def first_named_by_edge(lineno: int, ident: str) -> int:
        i = index[ident] = len(rainbow_of)
        rainbow_of.append(-1)
        forward.append((lineno, ident))
        return i

    for lineno, raw in numbered_lines(text):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        tokens = raw.split()
        if not tokens:
            continue
        directive = tokens[0]
        if space is None:
            if directive != "colors":
                raise GraphFileError(lineno, "first directive must be 'colors'")
            if len(tokens) < 3:
                raise GraphFileError(lineno, "need at least 2 colors")
            names = [_check_identifier(lineno, "color", t) for t in tokens[1:]]
            try:
                space = ColorSpace(tuple(names))
            except ValueError as exc:
                raise GraphFileError(lineno, str(exc)) from None
        elif directive == "node":
            if len(tokens) != 2 + space.q:
                raise GraphFileError(lineno, f"node line needs an id and {space.q} colors")
            ident = _check_identifier(lineno, "node", tokens[1])
            i = index.setdefault(ident, len(rainbow_of))
            if i == len(rainbow_of):
                rainbow_of.append(-1)
            elif rainbow_of[i] >= 0:
                raise GraphFileError(lineno, f"duplicate node {ident!r}")
            rainbow_of[i] = rainbow_at(lineno, tokens[2:])
            declared.append(i)
        elif directive == "edge":
            if len(tokens) != 3:
                raise GraphFileError(lineno, "edge line needs exactly two node ids")
            a, b = tokens[1], tokens[2]
            if a == b:
                raise GraphFileError(lineno, f"self-loop on node {a!r}")
            ia = index[a] if a in index else first_named_by_edge(lineno, a)
            ib = index[b] if b in index else first_named_by_edge(lineno, b)
            key = ia << 32 | ib if a < b else ib << 32 | ia
            if key in seen:
                raise GraphFileError(lineno, f"duplicate edge {a!r} {b!r}")
            seen.add(key)
            edge_keys.append(key)
        elif directive == "boundary":
            if len(tokens) != 2 + space.q:
                raise GraphFileError(lineno, f"boundary line needs a rainbow and {space.q} probabilities")
            rainbow = rainbow_list[rainbow_at(lineno, tokens[1].split(","))]
            if rainbow in boundary:
                raise GraphFileError(lineno, "duplicate boundary line for this rainbow")
            probs = [_parse_probability(lineno, t) for t in tokens[2:]]
            try:
                boundary[rainbow] = SimplexVector(tuple(probs))
            except ValueError as exc:
                raise GraphFileError(lineno, str(exc)) from None
        elif directive == "colors":
            raise GraphFileError(lineno, "'colors' may appear only once")
        else:
            raise GraphFileError(lineno, f"unknown directive {directive!r}")

    if space is None:
        raise ValueError("empty graph file")
    for lineno, ident in forward:
        if rainbow_of[index[ident]] < 0:
            raise GraphFileError(lineno, f"edge references undeclared node {ident!r}")

    keys = np.array(edge_keys, dtype=np.int64)
    ends = np.stack((keys >> 32, keys & 0xFFFFFFFF), axis=1)
    nodes = tuple(index)
    rainbow_ids = np.array(rainbow_of, dtype=np.intp)
    if forward:
        order = np.array(declared, dtype=np.intp)
        renumber = np.empty_like(order)
        renumber[order] = np.arange(len(order))
        ends, rainbow_ids = renumber[ends], rainbow_ids[order]
        nodes = tuple(map(nodes.__getitem__, declared))
    graph = RainbowGraph.from_ids(nodes, rainbow_ids, rainbow_list, ends, space)
    bc = BoundaryCondition(boundary) if boundary else None
    return GraphFile(graph, bc)


def emit_graph_file(gf: GraphFile) -> str:
    """Serialize a GraphFile; parse_graph_file(emit_graph_file(gf)) is
    semantically identical to gf."""
    space = gf.graph.color_space
    out = ["colors " + " ".join(space.colors)]
    for d in gf.graph.nodes:
        names = gf.graph.preference[d].color_names(space)
        out.append("node " + d + " " + " ".join(names))
    for a, b in sorted(gf.graph.edges):
        out.append(f"edge {a} {b}")
    if gf.boundary is not None:
        for c in sorted(gf.boundary.values, key=lambda r: r.order):
            label = ",".join(c.color_names(space))
            probs = " ".join(fmt(x) for x in gf.boundary.values[c])
            out.append(f"boundary {label} {probs}")
    return "\n".join(out) + "\n"
