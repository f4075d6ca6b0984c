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

from dataclasses import dataclass

from ..core import ColorSpace, Rainbow, SimplexVector
from ..graph import RainbowGraph
from ..mechanism import BoundaryCondition


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
    node is reported after the last line, since nodes may follow edges."""
    space: ColorSpace | None = None
    # One Rainbow per distinct name tuple; a bad tuple fails on its first line.
    rainbows: dict[tuple[str, ...], Rainbow] = {}
    preference: dict[str, Rainbow] = {}
    # Each declared node id to its node line's string, which every later
    # edge naming the node shares instead of holding a copy of its own.
    ids: dict[str, str] = {}
    edges: set[tuple[str, str]] = set()
    # (line, node id) of each edge endpoint not yet declared when its edge was read.
    forward: list[tuple[int, str]] = []
    boundary: dict[Rainbow, SimplexVector] = {}

    def rainbow_at(lineno: int, names: list[str]) -> Rainbow:
        key = tuple(names)
        if key not in rainbows:
            rainbows[key] = _rainbow_from_names(lineno, names, space)
        return rainbows[key]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
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
            if ident in preference:
                raise GraphFileError(lineno, f"duplicate node {ident!r}")
            preference[ident] = rainbow_at(lineno, tokens[2:])
            ids[ident] = ident
        elif directive == "edge":
            if len(tokens) != 3:
                raise GraphFileError(lineno, "edge line needs exactly two node ids")
            a, b = tokens[1], tokens[2]
            if a == b:
                raise GraphFileError(lineno, f"self-loop on node {a!r}")
            if a in ids:
                a = ids[a]
            else:
                forward.append((lineno, a))
            if b in ids:
                b = ids[b]
            else:
                forward.append((lineno, b))
            pair = (a, b) if a < b else (b, a)
            if pair in edges:
                raise GraphFileError(lineno, f"duplicate edge {a!r} {b!r}")
            edges.add(pair)
        elif directive == "boundary":
            if len(tokens) != 2 + space.q:
                raise GraphFileError(lineno, f"boundary line needs a rainbow and {space.q} probabilities")
            rainbow = rainbow_at(lineno, tokens[1].split(","))
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
        raise GraphFileError(0, "empty graph file")
    for lineno, ident in forward:
        if ident not in preference:
            raise GraphFileError(lineno, f"edge references undeclared node {ident!r}")

    try:
        graph = RainbowGraph(tuple(preference), edges, preference, space)
    except ValueError as exc:
        raise GraphFileError(0, str(exc)) from None
    bc = BoundaryCondition(boundary) if boundary else None
    return GraphFile(graph, bc)


def emit_graph_file(gf: GraphFile) -> str:
    """Serialize a GraphFile; parse_graph_file(emit_graph_file(gf)) is
    semantically identical to gf."""
    from .tables import fmt

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
