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
    """Parse and validate a graph file in one pass; diagnostics carry line
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
