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
numpy, with no Python step per node or edge line, and compares tokens
as big-endian 8-byte words. A name of at most 8 bytes is one word, its
exact key, which sorts as str does; a longer name is keyed by a mix of
its words, each hit is confirmed word by word, and two names with one
key send the file to the line reader (_parse_lines). Key order is name
order, handed to the graph as its name_order; no name dict is built.
Any other form and any file with an error go to the line reader: only
it gives diagnostics, so these carry line numbers whichever form the
file has. The line reader keeps names to its last line, then numbers
the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..core import ColorSpace, Rainbow, SimplexVector
from ..graph import RainbowGraph
from ..mechanism import BoundaryCondition
from .tables import numbered_lines


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
# _KEEP[r] keeps the first r bytes of a big-endian word; _MIX is the odd
# factor of the mix that keys tokens longer than one word.
_KEEP = np.array([2**64 - 2 ** (64 - 8 * r) for r in range(9)], dtype=np.uint64)
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _words(view: np.ndarray, start: np.ndarray, stop: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(words, key) of the tokens buf[start[i]:stop[i]]: row k of words holds
    their k-th 8 bytes as big-endian words read from view (view[i] is the
    word at buf[i]), zero past each token's end; key is the one word or a mix."""
    last = len(view) - 1
    out = np.empty((count, len(start)), dtype=np.uint64)
    for k, row in enumerate(out):
        at = start + 8 * k
        row[:] = view[np.minimum(at, last)]
        # A word that starts in the last 7 bytes is the last word, moved up.
        late = np.flatnonzero((at > last) & (at < stop))
        row[late] <<= (8 * (at[late] - last)).astype(np.uint64)
        row &= _KEEP.take(np.clip(stop - at, 0, 8))
        key = row if k == 0 else (key ^ row) * _MIX
    return out, key


def _parse_bytes(text: str) -> GraphFile | None:
    """The graph file read on its bytes, or None when text is not in the
    emitted form or holds anything _parse_lines would reject; never an
    error. Byte positions, below twice the file's length, are int32, and
    arrays are dropped once used, so the peak stays below the line reader's."""
    if not text.isascii() or len(text) >= 2**30:
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
    buf = np.frombuffer(data, dtype=np.uint8)
    view = np.ndarray((len(buf) - 7,), dtype=">u8", buffer=buf, strides=(1,))
    # Spaces and LFs, the only bytes taken that are not above a space. No
    # token is empty: no two separators are adjacent.
    seps = np.flatnonzero(buf <= ord(" ")).astype(np.int32)
    if np.diff(seps).min() == 1:
        return None
    # After the first line, line i ends at the LF seps[lf[i + 1]], and its
    # count[i] spaces are the separators from seps[first[i]] up to it.
    lf = np.flatnonzero(buf[seps] == ord("\n")).astype(np.int32)
    starts, stops = seps[lf[:-1]] + 1, seps[lf[1:]]
    first, count = lf[:-1] + 1, np.diff(lf) - 1
    # Each line's first 5 bytes, from the word at its start. A word read
    # past a short line holds its LF and fails. A line in the last 7 bytes
    # reads the file's last word, which holds the LF before that line in
    # its first 5 bytes: past them, the LF would follow the prefix's space
    # or precede the final LF.
    prefix = view[np.minimum(starts, len(view) - 1)] >> 24
    node, edge = prefix == int.from_bytes(b"node ", "big"), prefix == int.from_bytes(b"edge ", "big")
    del prefix
    if not node.any() or (count[node] != space.q + 1).any() or (count[edge] != 2).any():
        return None
    # Each line's start moves to its first field.
    node_starts, edge_starts = starts[node] + 5, starts[edge] + 5
    # "node <id> <rainbow>" and "edge <a> <b>": each line's second space
    # ends its first field.
    id_stops, mid = seps[first[node] + 1], seps[first[edge] + 1]
    text_starts, text_stops = id_stops + 1, stops[node]
    ends = [(edge_starts, mid), (mid + 1, stops[edge])]
    others = list(zip(starts[~(node | edge)].tolist(), stops[~(node | edge)].tolist()))
    del starts, stops, seps, lf, first, count, node, edge
    # No name is as long as an endpoint with more words than any name.
    width = max(int((b - a).max(initial=0)) for a, b in [(node_starts, id_stops), *ends])
    words, key = _words(view, node_starts, id_stops, (width + 7) // 8)
    by_key = np.argsort(key)
    ranked = key[by_key]
    if (ranked[1:] == ranked[:-1]).any():
        return None
    # Name order is key order for one-word names. rank and sorted_words are in key order.
    order = by_key if len(words) == 1 else np.lexsort(words[::-1])
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.arange(len(order), dtype=np.int32)
    rank, sorted_words = rank[by_key], words[:, by_key]
    ranks = []
    for a, b in ends:
        end_words, end_key = _words(view, a, b, len(words))
        at = np.searchsorted(ranked, end_key)
        # Every hit is confirmed word by word.
        if (sorted_words.take(at, axis=1, mode="clip") != end_words).any():
            return None
        ranks.append(rank[at])
        del end_words, end_key, at
    low, high = np.minimum(*ranks), np.maximum(*ranks)
    del node_starts, edge_starts, id_stops, mid, ends, ranks, key, by_key, ranked, rank, sorted_words
    # A self-loop, or a repeated edge: two equal sorted pair codes.
    if (low == high).any() or not np.diff(np.sort(low.astype(np.int64) * len(order) + high)).all():
        return None
    edge_ends = np.stack((order[low], order[high]), axis=1)
    texts, key = _words(view, text_starts, text_stops, (int((text_stops - text_starts).max()) + 7) // 8)
    del low, high, data, buf, view
    _, first, rainbow_ids = np.unique(key, return_index=True, return_inverse=True)
    # Every rainbow text is confirmed word by word.
    if (texts != texts[:, first[rainbow_ids.ravel()]]).any():
        return None
    boundary: dict[Rainbow, SimplexVector] = {}
    try:
        spans = zip(text_starts[first].tolist(), text_stops[first].tolist())
        labels = [text[a:b].split(" ") for a, b in spans]
        rainbows = [_rainbow_from_names(0, colors, space) for colors in labels]
        # A boundary label that a node line spells takes that line's Rainbow.
        known = dict(zip(map(",".join, labels), rainbows))
        for a, b in others:
            tokens = text[a:b].split(" ")
            if tokens[0] != "boundary" or len(tokens) != 2 + space.q:
                return None
            rainbow = known.get(tokens[1]) or _rainbow_from_names(0, tokens[1].split(","), space)
            if rainbow in boundary:
                return None
            boundary[rainbow] = SimplexVector(tuple(_parse_probability(0, t) for t in tokens[2:]))
    except ValueError:
        return None
    del texts, key, text_starts, text_stops
    # Every name in one string: its bytes without their NUL padding, then an LF.
    names = np.ascontiguousarray(words.T, dtype=">u8").view(np.uint8)
    names = np.concatenate((names, np.full((len(names), 1), ord("\n"), dtype=np.uint8)), axis=1)
    names = names[names != 0]
    if (names == ord(",")).any():
        return None
    nodes = names.tobytes().decode("ascii").split()
    del words, names
    graph = RainbowGraph.from_ids(nodes, rainbow_ids.ravel(), rainbows, edge_ends, space, order)
    return GraphFile(graph, BoundaryCondition(boundary) if boundary else None)


def _parse_lines(text: str) -> GraphFile:
    """Parse and validate a graph file line by line; diagnostics carry line
    numbers and come in line order, except that an edge naming an undeclared
    node is reported after the last line, since nodes may follow edges.
    Names are kept until then, and duplicate edges are found on name pairs;
    then the nodes are numbered once, in node-line order, and the graph is
    built from the ids (RainbowGraph.from_ids), edges in file order."""
    space: ColorSpace | None = None
    # One Rainbow per distinct name tuple, as an index into rainbow_list;
    # a bad tuple fails on its first line.
    rainbows: dict[tuple[str, ...], int] = {}
    rainbow_list: list[Rainbow] = []
    # Each node's rainbow, as an index into rainbow_list, in node-line order.
    preference: dict[str, int] = {}
    # One str per name, which its node line and its edges share.
    names: dict[str, str] = {}
    # Each edge's turned name pair: its line, negated if the larger end is written first.
    edges: dict[tuple[str, str], int] = {}
    boundary: dict[Rainbow, SimplexVector] = {}

    def rainbow_at(lineno: int, colors: list[str]) -> int:
        key = tuple(colors)
        if key not in rainbows:
            rainbows[key] = len(rainbow_list)
            rainbow_list.append(_rainbow_from_names(lineno, colors, space))
        return rainbows[key]

    for lineno, raw in numbered_lines(text):
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        directive = tokens[0]
        if space is None:
            if directive != "colors":
                raise GraphFileError(lineno, "first directive must be 'colors'")
            if len(tokens) < 3:
                raise GraphFileError(lineno, "need at least 2 colors")
            colors = [_check_identifier(lineno, "color", t) for t in tokens[1:]]
            try:
                space = ColorSpace(tuple(colors))
            except ValueError as exc:
                raise GraphFileError(lineno, str(exc)) from None
        elif directive == "node":
            if len(tokens) != 2 + space.q:
                raise GraphFileError(lineno, f"node line needs an id and {space.q} colors")
            ident = _check_identifier(lineno, "node", tokens[1])
            if ident in preference:
                raise GraphFileError(lineno, f"duplicate node {ident!r}")
            preference[names.setdefault(ident, ident)] = rainbow_at(lineno, tokens[2:])
        elif directive == "edge":
            if len(tokens) != 3:
                raise GraphFileError(lineno, "edge line needs exactly two node ids")
            a, b = tokens[1], tokens[2]
            if a == b:
                raise GraphFileError(lineno, f"self-loop on node {a!r}")
            a, b = names.setdefault(a, a), names.setdefault(b, b)
            pair = (a, b) if a < b else (b, a)
            if pair in edges:
                raise GraphFileError(lineno, f"duplicate edge {a!r} {b!r}")
            edges[pair] = lineno if a < b else -lineno
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
    del names
    nodes = tuple(preference)
    index = dict(zip(nodes, range(len(nodes))))
    try:
        ends = np.fromiter(map(index.__getitem__, chain.from_iterable(edges)), dtype=np.intp, count=2 * len(edges))
    except KeyError:
        # The first undeclared endpoint in file order, the written-first end first.
        for (lo, hi), line in edges.items():
            for ident in (lo, hi) if line > 0 else (hi, lo):
                if ident not in index:
                    raise GraphFileError(abs(line), f"edge references undeclared node {ident!r}") from None
    rainbow_ids = np.fromiter(preference.values(), dtype=np.intp, count=len(nodes))
    del preference, index, edges
    graph = RainbowGraph.from_ids(nodes, rainbow_ids, rainbow_list, ends, space)
    return GraphFile(graph, BoundaryCondition(boundary) if boundary else None)


def emit_graph_file(gf: GraphFile) -> str:
    """Serialize a GraphFile. Parsing the text gives gf back: boundary cells are
    repr(float), moved only by the parsed vectors' renormalization, an ulp or so.
    A color or node name the format cannot carry (empty, or holding whitespace,
    '#' or ',') raises ValueError."""
    space = gf.graph.color_space
    for kind, names in (("color", space.colors), ("node", gf.graph.nodes)):
        for name in names:
            if name.split() != [name] or "#" in name or "," in name:
                raise ValueError(f"{kind} name {name!r} is empty or holds whitespace, '#' or ','")
    out = ["colors " + " ".join(space.colors)]
    for d in gf.graph.nodes:
        names = gf.graph.preference[d].color_names(space)
        out.append("node " + d + " " + " ".join(names))
    for a, b in sorted(gf.graph.edges):
        out.append(f"edge {a} {b}")
    if gf.boundary is not None:
        for c in sorted(gf.boundary.values, key=lambda r: r.order):
            label = ",".join(c.color_names(space))
            probs = " ".join(map(repr, gf.boundary.values[c]))
            out.append(f"boundary {label} {probs}")
    return "\n".join(out) + "\n"
