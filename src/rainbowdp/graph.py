"""Rainbow graphs, region topology, boundary graphs, and morphisms.

A rainbow graph is a simple undirected graph of datasets where every
node carries a preference order (rainbow) over the output colors. Each
rainbow's node class splits into interior (all neighbors share the
rainbow) and boundary (the rest). The boundary graph compresses each
class to a chain indexed by distance-to-boundary, and the boundary
morphism sends a node to its (rainbow, distance) pair. One search,
_chain_layout, lays the chains out for both constructions: boundary-graph
node k is row k of the optimal mechanism's matrix.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import ColorSpace, Rainbow


class UnconstrainedRegion(RuntimeError):
    """A rainbow class with no boundary: nothing ties its distributions
    to the rest of the graph, so no unique optimum exists there."""

    def __init__(self, rainbow: Rainbow, space: ColorSpace):
        self.rainbow = rainbow
        label = ",".join(rainbow.color_names(space))
        super().__init__(f"rainbow ({label}) has an empty boundary in some component")


def _normalize_edge(a: str, b: str) -> tuple[str, str]:
    if a == b:
        raise ValueError(f"self-loop on node {a!r}")
    return (a, b) if a < b else (b, a)


def _kept_edge(edge: tuple[str, str]) -> tuple[str, str]:
    """The edge itself when it is already a normalized (a, b) tuple, else
    a normalized copy; saves a tuple per edge for callers that pass them."""
    a, b = edge
    return edge if a < b and type(edge) is tuple else _normalize_edge(a, b)


def _node_index(nodes: tuple[str, ...]) -> dict[str, int]:
    index = dict(zip(nodes, range(len(nodes))))
    if len(index) != len(nodes):
        raise ValueError("duplicate node identifiers")
    return index


class RainbowGraph:
    """Datasets, symmetric neighbor edges, and a rainbow per dataset.

    The graph is held by node ids: node_index numbers the nodes in
    `nodes` order, rainbow_ids gives each node's rainbow as an index into
    rainbows(), and edge_ends holds the endpoint ids of each edge, one
    row (a, b) per edge with nodes[a] < nodes[b]. The string views
    `edges` (normalized (a, b) name pairs, a < b) and `preference` (node
    name to Rainbow) are built from them on first use, unless the graph
    was constructed from them.

    RainbowGraph(nodes, edges, preference, color_space) takes the string
    views and derives the ids; RainbowGraph.from_ids takes the ids.
    """

    def __init__(
        self,
        nodes: Iterable[str],
        edges: Iterable[tuple[str, str]],
        preference: Mapping[str, Rainbow],
        color_space: ColorSpace,
    ):
        nodes = tuple(nodes)
        index = _node_index(nodes)
        edges = frozenset(_kept_edge(e) for e in edges)
        try:
            ends = np.fromiter(
                map(index.__getitem__, chain.from_iterable(edges)),
                dtype=np.intp, count=2 * len(edges),
            )
        except KeyError:
            a, b = min(e for e in edges if e[0] not in index or e[1] not in index)
            raise ValueError(f"edge ({a!r}, {b!r}) references an undeclared node") from None
        pref = dict(preference)
        if pref.keys() != index.keys():
            raise ValueError("preference must assign a rainbow to exactly the declared nodes")
        # Each distinct Rainbow object is hashed once, not once per node.
        prefs = list(map(pref.__getitem__, nodes))
        objects = dict(zip(map(id, prefs), prefs))
        rainbows = tuple(set(objects.values()))
        rank = {c: k for k, c in enumerate(rainbows)}
        rank_of_object = {key: rank[c] for key, c in objects.items()}
        rainbow_ids = np.fromiter(
            map(rank_of_object.__getitem__, map(id, prefs)), dtype=np.intp, count=len(nodes)
        )
        self._set(nodes, index, rainbow_ids, rainbows, ends, color_space)
        # The given string views are kept, not rebuilt on first use.
        self.__dict__.update(edges=edges, preference=pref)

    @classmethod
    def from_ids(
        cls,
        nodes: Iterable[str],
        rainbow_ids: np.ndarray,
        rainbows: Sequence[Rainbow],
        edge_ends: np.ndarray,
        color_space: ColorSpace,
    ) -> RainbowGraph:
        """The graph whose node i is nodes[i] with rainbow
        rainbows[rainbow_ids[i]], and whose edges join nodes[a] and
        nodes[b] for each row (a, b) of edge_ends. The caller vouches for
        the edges: ids in range, no self-loops or repeated edges, and
        every row turned so that nodes[a] < nodes[b]. The rainbows must
        be distinct and may come in any order; those no node has are
        dropped."""
        graph = object.__new__(cls)
        nodes = tuple(nodes)
        graph._set(nodes, _node_index(nodes), rainbow_ids, rainbows, edge_ends, color_space)
        return graph

    def _set(
        self,
        nodes: tuple[str, ...],
        index: dict[str, int],
        rainbow_ids: np.ndarray,
        rainbows: Sequence[Rainbow],
        edge_ends: np.ndarray,
        color_space: ColorSpace,
    ) -> None:
        # rainbows() lists the rainbows the nodes have, in rainbow order;
        # rainbow_ids are renumbered to index it.
        rainbow_ids = np.asarray(rainbow_ids, dtype=np.intp)
        used = np.flatnonzero(np.bincount(rainbow_ids, minlength=len(rainbows))).tolist()
        kept = sorted(used, key=lambda k: rainbows[k].order)
        ordered = tuple(map(rainbows.__getitem__, kept))
        wrong = np.array([c.q != color_space.q for c in rainbows], dtype=bool)[rainbow_ids]
        if wrong.any():
            raise ValueError(f"rainbow of node {nodes[int(np.argmax(wrong))]!r} has wrong length")
        rank = np.zeros(len(rainbows), dtype=np.intp)
        rank[kept] = np.arange(len(kept))
        self.nodes = nodes
        self.color_space = color_space
        self.node_index = index
        self.rainbow_ids = rank[rainbow_ids]
        self.edge_ends = np.asarray(edge_ends, dtype=np.intp).reshape(-1, 2)
        self._rainbows = ordered

    @cached_property
    def edges(self) -> frozenset[tuple[str, str]]:
        nodes = self.nodes
        a, b = (map(nodes.__getitem__, col) for col in self.edge_ends.T.tolist())
        return frozenset(zip(a, b))

    @cached_property
    def preference(self) -> dict[str, Rainbow]:
        return dict(zip(self.nodes, map(self._rainbows.__getitem__, self.rainbow_ids.tolist())))

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices): the neighbor ids of node i, in increasing
        order, are indices[indptr[i]:indptr[i + 1]]."""
        ends = self.edge_ends
        src = np.concatenate((ends[:, 0], ends[:, 1]))
        dst = np.concatenate((ends[:, 1], ends[:, 0]))
        n = len(self.nodes)
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return indptr, dst[np.argsort(src * n + dst, kind="stable")]

    @cached_property
    def topology(self) -> Topology:
        return _topology(self)

    def rainbows(self) -> tuple[Rainbow, ...]:
        """Distinct rainbows occurring in the graph, in a deterministic order."""
        return self._rainbows


@dataclass(frozen=True)
class Region:
    """A rainbow's node class with its interior/boundary split."""

    members: frozenset[str]
    interior: frozenset[str]
    boundary: frozenset[str]


@dataclass(frozen=True, eq=False)
class Topology:
    """Regions (rainbows in order), the rainbow pairs joined by an edge,
    sorted by rainbow order, and the rim, a bool mask of boundary node
    ids; computed once per graph by RainbowGraph.topology."""

    regions: dict[Rainbow, Region]
    adjacent_pairs: tuple[tuple[Rainbow, Rainbow], ...]
    rim: np.ndarray = field(repr=False)


def _topology(graph: RainbowGraph) -> Topology:
    nodes, ends, rainbows = graph.nodes, graph.edge_ends, graph.rainbows()
    # Rainbow ids follow rainbow order, so pairs (lo, hi) of ids sorted
    # as codes lo * k + hi come in (lo, hi) rainbow order.
    k = len(rainbows)
    ca, cb = graph.rainbow_ids[ends[:, 0]], graph.rainbow_ids[ends[:, 1]]
    cross = ca != cb
    rim = np.zeros(len(nodes), dtype=bool)
    rim[ends[cross].ravel()] = True
    codes = np.minimum(ca, cb)[cross] * k + np.maximum(ca, cb)[cross]
    codes = codes[np.argsort(codes, kind="stable")]
    # Distinct codes, without np.unique, whose first call imports numpy.ma.
    codes = codes[np.flatnonzero(np.diff(codes, prepend=-1))]
    pairs = tuple((rainbows[code // k], rainbows[code % k]) for code in codes.tolist())
    # Node ids grouped by rainbow id, each group in node order.
    grouped = np.argsort(graph.rainbow_ids, kind="stable")
    stops = np.cumsum(np.bincount(graph.rainbow_ids, minlength=k)).tolist()
    regions: dict[Rainbow, Region] = {}
    for c, start, stop in zip(rainbows, [0] + stops, stops):
        ids = grouped[start:stop]
        group = frozenset(map(nodes.__getitem__, ids.tolist()))
        boundary = frozenset(map(nodes.__getitem__, ids[rim[ids]].tolist()))
        regions[c] = Region(group, group - boundary, boundary)
    return Topology(regions, pairs, rim)


def decompose_regions(graph: RainbowGraph) -> dict[Rainbow, Region]:
    """Partition the nodes by rainbow and classify each node as interior
    (every neighbor shares its rainbow) or boundary (some neighbor does
    not); one Region per rainbow, in rainbow order. Computed once per
    graph and cached."""
    return graph.topology.regions


def _chain_layout(graph: RainbowGraph) -> tuple[np.ndarray, ...]:
    """The boundary search and chain layout: (dist, depths, starts, chain_row).
    Node id i is at distance dist[i] from its class's boundary and sits in
    row chain_row[i] of the chains, one per rainbow id k with depths[k] + 1
    rows from row starts[k], stacked in rainbow id order.

    A path that leaves a class first passes one of that class's boundary
    nodes, so a node's nearest boundary node of any rainbow lies on its
    own class's boundary: one breadth-first search over graph.csr, from
    every node of the topology's rim at once, gives every node its own
    class's distance. A node it never reaches sits in a component with
    no boundary; UnconstrainedRegion then names the first rainbow, in
    rainbow order, with such a member (or with an empty boundary).
    """
    n = len(graph.nodes)
    rim = graph.topology.rim
    dist = np.where(rim, 0, -1).tolist()
    queue = np.flatnonzero(rim).tolist()
    # Memoryviews hand out Python ints one at a time, with no list of them.
    indptr, indices = map(memoryview, graph.csr)
    # The queue grows while it is walked; no node enters it twice.
    for i in queue:
        if len(queue) == n:
            break
        step = dist[i] + 1
        for j in indices[indptr[i]:indptr[i + 1]]:
            if dist[j] < 0:
                dist[j] = step
                queue.append(j)
    dist = np.array(dist, dtype=np.intp)
    ids = graph.rainbow_ids
    if len(queue) < n:  # the lowest rainbow id is the first rainbow in order
        raise UnconstrainedRegion(graph.rainbows()[int(ids[dist < 0].min())], graph.color_space)
    depths = np.zeros(len(graph.rainbows()), dtype=np.intp)
    np.maximum.at(depths, ids, dist)
    starts = np.cumsum(depths + 1) - (depths + 1)
    return dist, depths, starts, starts[ids] + dist


def boundary_distances(graph: RainbowGraph, regions: Mapping[Rainbow, Region]) -> dict[str, int]:
    """Each node's distance to its own rainbow class's boundary, in `nodes`
    order, from _chain_layout's search; `regions` is not read."""
    return dict(zip(graph.nodes, _chain_layout(graph)[0].tolist()))


@dataclass(eq=False)
class Morphism:
    """A candidate graph map; validity is judged by check_morphism."""

    domain: RainbowGraph
    codomain: RainbowGraph
    mapping: Mapping[str, str]

    def __post_init__(self) -> None:
        self.mapping = dict(self.mapping)
        # Set comparisons first; the culprits are listed only on failure.
        if not self.mapping.keys() >= self.domain.node_index.keys():
            missing = [d for d in self.domain.nodes if d not in self.mapping]
            raise ValueError(f"mapping not total on domain nodes: missing {missing[:3]}")
        if not self.codomain.node_index.keys() >= set(self.mapping.values()):
            bad = [d for d, v in self.mapping.items() if v not in self.codomain.node_index]
            raise ValueError(f"mapping leaves the codomain at {bad[:3]}")

    def __call__(self, node: str) -> str:
        return self.mapping[node]


@dataclass(frozen=True)
class MorphismReport:
    is_morphism: bool
    is_rainbow_preserving: bool
    violations: tuple[tuple, ...]


def check_morphism(m: Morphism) -> MorphismReport:
    """Report whether every domain edge maps to a codomain edge or
    collapses, and whether rainbows are preserved under the map.

    Violations are data, not errors: ("edge", a, b) for an edge sent to
    distinct non-adjacent images, ("rainbow", d) for a node whose
    rainbow differs from its image's.
    """
    violations: list[tuple] = []
    cod_edges = m.codomain.edges
    for a, b in sorted(m.domain.edges):
        ga, gb = m.mapping[a], m.mapping[b]
        if ga != gb and _normalize_edge(ga, gb) not in cod_edges:
            violations.append(("edge", a, b))
    edge_ok = not violations
    for d in sorted(m.domain.nodes):
        if m.domain.preference[d] != m.codomain.preference[m.mapping[d]]:
            violations.append(("rainbow", d))
    rainbow_ok = all(v[0] != "rainbow" for v in violations)
    return MorphismReport(edge_ok, rainbow_ok, tuple(violations))


def _chain_ids(space: ColorSpace, rainbow: Rainbow, distances: range) -> list[str]:
    """Names "<colors>@<i>" of the boundary-graph nodes (rainbow, i), i in distances."""
    label = ",".join(rainbow.color_names(space))
    return [f"{label}@{i}" for i in distances]


@dataclass(eq=False)
class BoundaryGraph:
    """One chain per rainbow, indexed by distance to boundary, with head
    edges between rainbows whose classes touch in the source graph."""

    graph: RainbowGraph
    depths: dict[Rainbow, int]
    morphism: Morphism

    def node_id(self, rainbow: Rainbow, i: int) -> str:
        """Name of the boundary-graph node for (rainbow, distance i)."""
        return _chain_ids(self.graph.color_space, rainbow, range(i, i + 1))[0]


def build_boundary_graph(graph: RainbowGraph) -> BoundaryGraph:
    """Compress a rainbow graph to its boundary graph.

    Per rainbow c the chain (c,0)-(c,1)-...-(c,depth_c) is created,
    depth_c being the largest distance-to-boundary inside the class.
    Heads (c,0), (c',0) are joined exactly when some source edge joins
    the two classes. The returned morphism sends d to
    (rainbow of d, distance of d), and is rainbow-preserving.

    Node k is row k of optimal_mechanism's matrix (_chain_layout). A
    self-check raises AssertionError unless every edge joins nodes of one
    rainbow at distances differing by at most 1, or nodes at distance 0.
    """
    dist, chain_depths, starts, chain_row = _chain_layout(graph)
    ends = graph.edge_ends
    da, db = dist[ends[:, 0]], dist[ends[:, 1]]
    same = graph.rainbow_ids[ends[:, 0]] == graph.rainbow_ids[ends[:, 1]]
    broken = ends[~((same & (np.abs(da - db) <= 1)) | ((da == 0) & (db == 0)))]
    if len(broken):
        first = min((graph.nodes[a], graph.nodes[b]) for a, b in broken.tolist())
        raise AssertionError(f"boundary morphism fails on {len(broken)} edge(s), first {first}")

    space, rainbows = graph.color_space, graph.rainbows()
    names = list(chain.from_iterable(
        _chain_ids(space, c, range(depth + 1)) for c, depth in zip(rainbows, chain_depths.tolist())
    ))
    row_rainbow = np.repeat(np.arange(len(rainbows)), chain_depths + 1)
    # Chain edges (i, i + 1) inside each rainbow's chain, then one head
    # edge per adjacent rainbow pair, each row turned so that its first
    # node's name sorts first.
    links = np.flatnonzero(row_rainbow[:-1] == row_rainbow[1:])
    rank = {c: k for k, c in enumerate(rainbows)}
    heads = [(starts[rank[ca]], starts[rank[cb]]) for ca, cb in graph.topology.adjacent_pairs]
    pairs = np.concatenate((
        np.stack((links, links + 1), axis=1), np.array(heads, dtype=np.intp).reshape(-1, 2)
    ))
    a, b = (map(names.__getitem__, col) for col in pairs.T.tolist())
    turned = np.fromiter(map(operator.gt, a, b), dtype=bool, count=len(pairs))
    pairs[turned] = pairs[turned, ::-1]

    bgraph = RainbowGraph.from_ids(names, row_rainbow, rainbows, pairs, space)
    mapping = dict(zip(graph.nodes, np.array(names, dtype=object)[chain_row].tolist()))
    depths = dict(zip(rainbows, chain_depths.tolist()))
    return BoundaryGraph(bgraph, depths, Morphism(graph, bgraph, mapping))


def pullback(mechanism_on_codomain, morphism: Morphism):
    """Transport a mechanism from the morphism's codomain to its domain
    by composition: node d receives the distribution of its image, the
    image's row of the same matrix."""
    row_of = mechanism_on_codomain.row_of
    try:
        pulled = {d: row_of[morphism.mapping[d]] for d in morphism.domain.nodes}
    except KeyError as exc:
        raise KeyError(f"codomain node {exc.args[0]!r} has no distribution") from None
    return type(mechanism_on_codomain).from_rows(
        mechanism_on_codomain.rows, pulled, mechanism_on_codomain.color_space
    )
