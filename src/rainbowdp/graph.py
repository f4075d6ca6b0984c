"""Rainbow graphs, region topology, and boundary graphs.

A rainbow graph is a simple undirected graph of datasets where every
node carries a preference order (rainbow) over the output colors. Each
rainbow's node class splits into interior (all neighbors share the
rainbow) and boundary (the rest). The boundary graph compresses each
class to a chain indexed by distance-to-boundary, and the boundary
morphism sends a node to its (rainbow, distance) pair. One cached search,
RainbowGraph.search, lays the chains out, and its chain_row is that
morphism: boundary-graph node k is row k of the optimal mechanism's
matrix, and node i goes to node chain_row[i]. The search is a
breadth-first search from every boundary node at once, a whole level at a
time on arrays while levels are wide and a node at a time after.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
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


# The narrowest level RainbowGraph.search expands on arrays: per level, both
# phases cost the same at about 64 nodes on grids and on bundles of paths.
_ARRAY_LEVEL_WIDTH = 64


def _distinct_codes(codes: np.ndarray, size: int) -> np.ndarray:
    """The distinct values of codes, each in [0, size), in increasing
    order: marked in a table of size flags when size <= len(codes), else
    sorted and compared with their neighbours (not by np.unique, whose
    first call imports numpy.ma)."""
    if size <= len(codes):
        seen = np.zeros(size, dtype=bool)
        seen[codes] = True
        return np.flatnonzero(seen)
    codes = np.sort(codes)
    return codes[np.flatnonzero(np.diff(codes, prepend=-1))]


def _kept_edge(edge: tuple[str, str]) -> tuple[str, str]:
    """The edge as an (a, b) tuple with a < b: itself when it already is one."""
    a, b = edge
    if a == b:
        raise ValueError(f"self-loop on node {a!r}")
    return (edge if type(edge) is tuple else (a, b)) if a < b else (b, a)


class RainbowGraph:
    """Datasets, symmetric neighbor edges, and a rainbow per dataset.

    The graph is held by node ids: node i is nodes[i], rainbow_ids gives
    each node's rainbow as an index into rainbows(), and edge_ends holds
    the endpoint ids of each edge, one row (a, b) per edge with
    nodes[a] < nodes[b]. The name-to-id dict `node_index` and the string
    views `edges` (normalized (a, b) name pairs, a < b) and `preference`
    (node name to Rainbow) are built on first use, unless the graph was
    constructed from them.

    RainbowGraph(nodes, edges, preference, color_space) takes the string
    views and derives the ids; RainbowGraph.from_ids takes the ids.

    Four attributes on node ids are cached on first read: `name_order`,
    the node ids in name order (a reader may hand it over), `rim`, a bool
    mask of the boundary node ids, `adjacent_pairs`, the rainbow pairs
    joined by an edge, in rainbow order, and `search`, the boundary
    search. `rim` and `adjacent_pairs` come from one pass over the edges,
    `_cross`, which also keeps the pairs as rainbow ids. They, rainbow_ids
    and edge_ends are read-only, so no write can move the cached topology
    away from the graph it was read from.
    """

    def __init__(
        self,
        nodes: Iterable[str],
        edges: Iterable[tuple[str, str]],
        preference: Mapping[str, Rainbow],
        color_space: ColorSpace,
    ):
        nodes = tuple(nodes)
        index = dict(zip(nodes, range(len(nodes))))
        if len(index) != len(nodes):
            raise ValueError("duplicate node identifiers")
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
        rank = {c: k for k, c in enumerate(set(pref.values()))}
        rainbow_ids = np.fromiter(map(rank.__getitem__, map(pref.__getitem__, nodes)), dtype=np.intp, count=len(nodes))
        self._set(nodes, rainbow_ids, tuple(rank), ends, color_space)
        # The index and the given string views are kept, not rebuilt on first use.
        self.__dict__.update(node_index=index, edges=edges, preference=pref)

    @classmethod
    def from_ids(
        cls,
        nodes: Iterable[str],
        rainbow_ids: np.ndarray,
        rainbows: Sequence[Rainbow],
        edge_ends: np.ndarray,
        color_space: ColorSpace,
        name_order: np.ndarray | None = None,
    ) -> RainbowGraph:
        """The graph whose node i is nodes[i] with rainbow
        rainbows[rainbow_ids[i]], and whose edges join nodes[a] and
        nodes[b] for each row (a, b) of edge_ends. The caller vouches for
        distinct names, for the edges (ids in range, no self-loops or
        repeated edges, each row turned so that nodes[a] < nodes[b]) and
        for name_order, if given (the node ids in name order). The
        rainbows must be distinct and may come in any order; those no node
        has are dropped. The graph keeps edge_ends and name_order, not
        copies, so the caller must not write to them afterwards."""
        graph = object.__new__(cls)
        graph._set(tuple(nodes), rainbow_ids, rainbows, edge_ends, color_space)
        if name_order is not None:  # a view, so that freezing it leaves the caller's array writable
            order = graph.__dict__["name_order"] = np.asarray(name_order, dtype=np.intp).view()
            order.flags.writeable = False
        return graph

    def _set(
        self,
        nodes: tuple[str, ...],
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
        self.rainbow_ids = rank[rainbow_ids]
        # reshape gives a view, so freezing it leaves the caller's array writable.
        self.edge_ends = np.asarray(edge_ends, dtype=np.intp).reshape(-1, 2)
        self.rainbow_ids.flags.writeable = self.edge_ends.flags.writeable = False
        self._rainbows = ordered

    @cached_property
    def node_index(self) -> dict[str, int]:
        return dict(zip(self.nodes, range(len(self.nodes))))

    @cached_property
    def name_order(self) -> np.ndarray:
        order = np.array(sorted(range(len(self.nodes)), key=self.nodes.__getitem__), dtype=np.intp)
        order.flags.writeable = False
        return order

    @cached_property
    def edges(self) -> frozenset[tuple[str, str]]:
        nodes = self.nodes
        a, b = (map(nodes.__getitem__, col) for col in self.edge_ends.T.tolist())
        return frozenset(zip(a, b))

    @cached_property
    def preference(self) -> dict[str, Rainbow]:
        return dict(zip(self.nodes, map(self._rainbows.__getitem__, self.rainbow_ids.tolist())))

    @cached_property
    def _cross(self) -> tuple[np.ndarray, np.ndarray]:
        """(rim, pair_ids) from one pass over the cross-class edges: the rim
        mask, and the distinct (lo, hi) rainbow id pairs they join, one row
        each in rainbow order, found through a table of k * k flags when the
        k rainbows have k * k <= cross edges, else by sorting pair codes."""
        ends, ids, k = self.edge_ends, self.rainbow_ids, len(self._rainbows)
        # Each column on its own: a pick from 1-D arrays is several times
        # quicker than one of 2-column rows.
        a, b = ends[:, 0], ends[:, 1]
        ra, rb = ids[a], ids[b]
        cross = np.flatnonzero(ra != rb)
        rim = np.zeros(len(self.nodes), dtype=bool)
        rim[a[cross]] = rim[b[cross]] = True
        # One code lo * k + hi per unordered pair, sorting as the (lo, hi)
        # pairs do, since rainbow ids follow rainbow order; built in place in
        # the picked copy, so fewer edge-length arrays are alive at once.
        ra, rb = ra[cross], rb[cross]
        hi = np.maximum(ra, rb)
        codes = np.minimum(ra, rb, out=ra)
        codes *= k
        codes += hi
        codes = _distinct_codes(codes, k * k)
        pair_ids = np.stack((codes // k, codes % k), axis=1)
        for array in (rim, pair_ids):  # shared by every reader of the cache
            array.flags.writeable = False
        return rim, pair_ids

    @cached_property
    def rim(self) -> np.ndarray:
        return self._cross[0]

    @cached_property
    def adjacent_pairs(self) -> tuple[tuple[Rainbow, Rainbow], ...]:
        rainbows = self._rainbows
        return tuple((rainbows[a], rainbows[b]) for a, b in self._cross[1].tolist())

    @cached_property
    def search(self) -> tuple[np.ndarray, ...]:
        """The boundary search and chain layout: (dist, depths, starts,
        chain_row). Node id i is at distance dist[i] from its class's
        boundary and sits in row chain_row[i] of the chains, one per
        rainbow id k with depths[k] + 1 rows from row starts[k], stacked
        in rainbow id order.

        A path that leaves a class first passes one of that class's
        boundary nodes, so a node's nearest boundary node of any rainbow
        lies on its own class's boundary: one breadth-first search, from
        every rim node at once, gives every node its own class's distance.
        A node it never reaches sits in a component with no boundary;
        UnconstrainedRegion then names the first rainbow, in rainbow
        order, with such a member (or with an empty boundary).

        An all-rim graph gets no neighbor list. Otherwise levels of at
        least _ARRAY_LEVEL_WIDTH nodes are expanded on arrays, and the
        first narrower one goes to a queue that ends the search a node at
        a time, where a numpy step per level would cost more than it saves.
        """
        ends, rim, n = self.edge_ends, self.rim, len(self.nodes)
        dist = rim.astype(np.intp) - 1
        frontier = np.flatnonzero(rim)
        reached = len(frontier)
        if reached < n:  # an all-rim graph needs no neighbor list
            # Neighbors as CSR: node i's are indices[indptr[i]:indptr[i + 1]].
            src = np.concatenate((ends[:, 0], ends[:, 1]))
            degree = np.bincount(src, minlength=n)
            indptr = np.zeros(n + 1, dtype=np.intp)
            np.cumsum(degree, out=indptr[1:])
            indices = np.concatenate((ends[:, 1], ends[:, 0]))[np.argsort(src, kind="stable")]
            # A wide level is expanded on arrays: its nodes' neighbor slices
            # in one gather, then the unreached ones, sorted and deduplicated
            # (not by np.unique, whose first call imports numpy.ma).
            while len(frontier) >= _ARRAY_LEVEL_WIDTH:
                lo, count = indptr[frontier], degree[frontier]
                nbrs = indices[np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count, count)]
                nbrs = np.sort(nbrs[dist[nbrs] < 0])
                dist[nbrs] = dist[frontier[0]] + 1
                frontier = nbrs[np.flatnonzero(np.diff(nbrs, prepend=-1))]
                reached += len(frontier)
            if len(frontier):
                # The narrow levels left go node at a time; memoryviews hand
                # out Python ints one at a time, with no list of them.
                dist, queue = dist.tolist(), frontier.tolist()
                indptr, indices = memoryview(indptr), memoryview(indices)
                # The queue grows while it is walked; no node enters it twice.
                for i in queue:
                    step = dist[i] + 1
                    for j in indices[indptr[i]:indptr[i + 1]]:
                        if dist[j] < 0:
                            dist[j] = step
                            queue.append(j)
                reached += len(queue) - len(frontier)
                dist = np.array(dist, dtype=np.intp)
        ids = self.rainbow_ids
        if reached < n:  # the lowest rainbow id is the first rainbow in order
            raise UnconstrainedRegion(self._rainbows[int(ids[dist < 0].min())], self.color_space)
        depths = np.zeros(len(self._rainbows), dtype=np.intp)
        np.maximum.at(depths, ids, dist)
        starts = np.cumsum(depths + 1) - (depths + 1)
        layout = (dist, depths, starts, starts[ids] + dist)
        for a in layout:  # shared by every reader of the cache
            a.flags.writeable = False
        return layout

    def rainbows(self) -> tuple[Rainbow, ...]:
        """Distinct rainbows occurring in the graph, in a deterministic order."""
        return self._rainbows


def decompose_regions(graph: RainbowGraph) -> np.ndarray:
    """Every rainbow class's boundary: graph.rim itself, the read-only mask
    of node ids with a neighbor of another rainbow. graph.rainbow_ids is
    the partition into classes, and a class's interior is off the rim.
    bench/ reads this; it leaves src/ after ROADMAP item 6's tracer change."""
    return graph.rim


def boundary_distances(graph: RainbowGraph, rim: np.ndarray) -> dict[str, int]:
    """Each node's distance to its own rainbow class's boundary, in `nodes`
    order, from the graph's search; `rim` is not read.
    bench/ reads this; it leaves src/ after ROADMAP item 6's tracer change."""
    return dict(zip(graph.nodes, graph.search[0].tolist()))


def _chain_ids(space: ColorSpace, rainbow: Rainbow, distances: range) -> list[str]:
    """Names "<colors>@<i>" of the boundary-graph nodes (rainbow, i), i in distances."""
    label = ",".join(rainbow.color_names(space))
    return [f"{label}@{i}" for i in distances]


@dataclass(eq=False)
class BoundaryGraph:
    """One chain per rainbow, indexed by distance to boundary, with head
    edges between rainbows whose classes touch in the source graph.
    Source node id i maps to boundary-graph node id source.search[3][i],
    the search's chain_row: the boundary morphism."""

    graph: RainbowGraph
    depths: dict[Rainbow, int]

    def node_id(self, rainbow: Rainbow, i: int) -> str:
        """Name of the boundary-graph node for (rainbow, distance i)."""
        return _chain_ids(self.graph.color_space, rainbow, range(i, i + 1))[0]


def build_boundary_graph(graph: RainbowGraph) -> BoundaryGraph:
    """Compress a rainbow graph to its boundary graph.

    Per rainbow c the chain (c,0)-(c,1)-...-(c,depth_c) is created,
    depth_c being the largest distance-to-boundary inside the class.
    Heads (c,0), (c',0) are joined exactly when some source edge joins
    the two classes. Node k is row k of optimal_mechanism's matrix, and
    the search's chain_row, the boundary morphism, sends d to (rainbow of
    d, distance of d). A self-check raises AssertionError unless every
    edge maps to a chain link or a head edge, or collapses.
    bench/ reads this; it leaves src/ after ROADMAP item 6's tracer change.
    """
    dist, chain_depths, starts, _ = graph.search
    space, rainbows = graph.color_space, graph.rainbows()
    names = list(chain.from_iterable(
        _chain_ids(space, c, range(depth + 1)) for c, depth in zip(rainbows, chain_depths.tolist())
    ))
    row_rainbow = np.repeat(np.arange(len(rainbows)), chain_depths + 1)
    # Chain edges (i, i + 1) inside each rainbow's chain, then one head
    # edge per adjacent rainbow pair, each row turned so that its first
    # node's name sorts first.
    links = np.flatnonzero(row_rainbow[:-1] == row_rainbow[1:])
    pairs = np.concatenate((np.stack((links, links + 1), axis=1), starts[graph._cross[1]]))
    a, b = (map(names.__getitem__, col) for col in pairs.T.tolist())
    turned = np.fromiter(map(operator.gt, a, b), dtype=bool, count=len(pairs))
    pairs[turned] = pairs[turned, ::-1]

    # Every cross-class edge gives a head edge, so an edge maps to a link,
    # a head edge or one node exactly when its ends' distances differ by
    # at most one inside a class and are both 0 between classes. An
    # explicit raise, so that the check holds under python -O too.
    ends = graph.edge_ends
    d, joined = dist[ends], graph.rainbow_ids[ends]
    inside = joined[:, 0] == joined[:, 1]
    broken = np.flatnonzero(np.where(inside, np.abs(d[:, 0] - d[:, 1]) > 1, d.any(axis=1)))
    if len(broken):
        first = min((graph.nodes[i], graph.nodes[j]) for i, j in ends[broken].tolist())
        raise AssertionError(f"boundary morphism fails on {len(broken)} edge(s), first {first}")
    bgraph = RainbowGraph.from_ids(names, row_rainbow, rainbows, pairs, space)
    return BoundaryGraph(bgraph, dict(zip(rainbows, chain_depths.tolist())))
