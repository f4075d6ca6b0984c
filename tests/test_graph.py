import math
from pathlib import Path

import numpy as np
import pytest

import rainbowdp as r
from helpers import (
    adjacency,
    assert_same_graph,
    bfs_depths,
    boundary_line_mechanisms,
    distinct_rainbows,
    path5_bc,
    path5_graph,
    random_blowup_morphism,
    random_budget,
    random_dense_graph,
    random_dp_mechanism,
    random_homogeneous_bc,
    random_solvable_graph,
    rng,
    striped_grid_text,
    sv,
)
from rainbowdp.cli.graphfile import parse_graph_file

FIXTURES = Path(__file__).parent.parent / "fixtures"


def triangle_graph():
    space = r.ColorSpace(("1", "2", "3"))
    c = r.Rainbow((0, 1, 2))
    nodes = ("a", "b", "c")
    edges = frozenset((("a", "b"), ("b", "c"), ("a", "c")))
    return r.RainbowGraph(nodes, edges, {d: c for d in nodes}, space), c


def test_rainbow_graph_validation():
    space = r.ColorSpace(("1", "2"))
    c = r.Rainbow((0, 1))
    with pytest.raises(ValueError):
        r.RainbowGraph(("a", "a"), frozenset(), {"a": c}, space)
    with pytest.raises(ValueError):
        r.RainbowGraph(("a",), frozenset((("a", "a"),)), {"a": c}, space)
    with pytest.raises(ValueError):
        r.RainbowGraph(("a", "b"), frozenset((("a", "z"),)), {"a": c, "b": c}, space)
    with pytest.raises(ValueError):
        r.RainbowGraph(("a", "b"), frozenset(), {"a": c}, space)


def test_undeclared_node_error_names_the_first_edge_in_sorted_order():
    # Fifty bad edges: the error names the smallest whatever the string hashes.
    space = r.ColorSpace(("1", "2"))
    c = r.Rainbow((0, 1))
    edges = {("a", "b")} | {(d, f"x{i:02d}") for d in "ab" for i in range(25)}
    with pytest.raises(ValueError) as exc:
        r.RainbowGraph(("a", "b"), frozenset(edges), {"a": c, "b": c}, space)
    assert str(exc.value) == "edge ('a', 'x00') references an undeclared node"


def test_rainbow_graph_keeps_normalized_edges():
    space = r.ColorSpace(("1", "2"))
    c = r.Rainbow((0, 1))
    ab, bc = ("a", "b"), ("b", "c")
    edges = frozenset((ab, bc))
    pref = {"a": c, "b": c, "c": c}
    graph = r.RainbowGraph(("a", "b", "c"), edges, pref, space)
    held = {id(e) for e in graph.edges}
    assert id(ab) in held and id(bc) in held
    # One edge given reversed: that one is normalized, the other is kept.
    graph = r.RainbowGraph(("a", "b", "c"), [ab, ("c", "b")], pref, space)
    assert graph.edges == edges
    assert id(ab) in {id(e) for e in graph.edges}


def test_decompose_regions_path5():
    graph = path5_graph()
    b = graph.preference["n0"]
    red = graph.preference["n3"]
    regions = r.decompose_regions(graph)
    assert regions[b].members == frozenset({"n0", "n1", "n2"})
    assert regions[b].boundary == frozenset({"n2"})
    assert regions[b].interior == frozenset({"n0", "n1"})
    assert regions[red].members == frozenset({"n3", "n4"})
    assert regions[red].boundary == frozenset({"n3"})
    assert regions[red].interior == frozenset({"n4"})


def test_decompose_regions_single_rainbow_triangle():
    graph, c = triangle_graph()
    regions = r.decompose_regions(graph)
    assert regions[c].boundary == frozenset()
    assert regions[c].interior == frozenset(graph.nodes)


def test_decompose_regions_pentagon():
    graph = r.pentagon_graph()
    c123 = graph.preference["d1"]
    regions = r.decompose_regions(graph)
    assert regions[c123].boundary == frozenset({"d1", "d4"})
    assert regions[c123].interior == frozenset({"d2", "d3"})


def test_decompose_regions_partitions_nodes():
    g = rng(20)
    for _ in range(30):
        graph = random_solvable_graph(g, max_nodes=25)
        regions = r.decompose_regions(graph)
        seen: set[str] = set()
        for c in graph.rainbows():
            members = regions[c].members
            assert regions[c].interior | regions[c].boundary == members
            assert not regions[c].interior & regions[c].boundary
            assert not members & seen
            seen |= members
        assert seen == set(graph.nodes)


def test_boundary_distances_path5():
    graph = path5_graph()
    dist = r.boundary_distances(graph, r.decompose_regions(graph))
    assert dist == {"n0": 2, "n1": 1, "n2": 0, "n3": 0, "n4": 1}


def test_boundary_distances_errors_on_unconstrained_region():
    graph, c = triangle_graph()
    with pytest.raises(r.UnconstrainedRegion) as exc:
        r.boundary_distances(graph, r.decompose_regions(graph))
    assert exc.value.rainbow == c


def test_boundary_distances_errors_per_component():
    # A disconnected all-one-rainbow component is unconstrained even if
    # the same rainbow has a boundary elsewhere.
    space = r.ColorSpace(("1", "2"))
    c12 = r.Rainbow((0, 1))
    c21 = r.Rainbow((1, 0))
    nodes = ("a", "b", "x", "y")
    edges = frozenset((("a", "b"), ("x", "y")))
    pref = {"a": c12, "b": c21, "x": c12, "y": c12}
    graph = r.RainbowGraph(nodes, edges, pref, space)
    with pytest.raises(r.UnconstrainedRegion) as exc:
        r.boundary_distances(graph, r.decompose_regions(graph))
    assert exc.value.rainbow == c12


def _multi_component_graph(g):
    # Three rainbows over q = 3 and few random edges: several components,
    # isolated nodes among them, often lack a boundary.
    space = r.ColorSpace(("1", "2", "3"))
    rainbows = distinct_rainbows(g, 3, 3)
    n = int(g.integers(2, 25))
    nodes = tuple(f"v{i:02d}" for i in range(n))
    edges = set()
    for _ in range(int(g.integers(0, n + 1))):
        i, j = sorted(g.choice(n, size=2, replace=False))
        edges.add((nodes[i], nodes[j]))
    pref = {d: rainbows[int(g.integers(3))] for d in nodes}
    return r.RainbowGraph(nodes, frozenset(edges), pref, space)


def test_boundary_distances_against_naive_bfs():
    g = rng(21)
    graphs = [random_solvable_graph(g, max_nodes=20) for _ in range(25)]
    graphs += [_multi_component_graph(g) for _ in range(300)]
    for graph in graphs:
        regions = r.decompose_regions(graph)
        expected = _full_bfs_distances(graph, regions)
        unconstrained = [
            c for c in sorted(regions, key=lambda c: c.order)
            if any(expected[d] is None for d in regions[c].members)
        ]
        if unconstrained:
            # The first rainbow, in rainbow order, with a member that
            # reaches no boundary node of its own rainbow.
            with pytest.raises(r.UnconstrainedRegion) as exc:
                r.boundary_distances(graph, regions)
            assert exc.value.rainbow == unconstrained[0]
            continue
        dist = r.boundary_distances(graph, regions)
        assert dist == expected
        # Same-rainbow neighbors differ by at most one step.
        for a, b in graph.edges:
            if graph.preference[a] == graph.preference[b]:
                assert abs(dist[a] - dist[b]) <= 1


def test_build_boundary_graph_path5():
    graph = path5_graph()
    b = graph.preference["n0"]
    red = graph.preference["n3"]
    bg = r.build_boundary_graph(graph)
    assert bg.depths == {b: 2, red: 1}
    expected_nodes = {
        bg.node_id(b, 0), bg.node_id(b, 1), bg.node_id(b, 2),
        bg.node_id(red, 0), bg.node_id(red, 1),
    }
    assert set(bg.graph.nodes) == expected_nodes
    expected_edges = {
        tuple(sorted((bg.node_id(b, 0), bg.node_id(b, 1)))),
        tuple(sorted((bg.node_id(b, 1), bg.node_id(b, 2)))),
        tuple(sorted((bg.node_id(red, 0), bg.node_id(red, 1)))),
        tuple(sorted((bg.node_id(b, 0), bg.node_id(red, 0)))),
    }
    assert set(bg.graph.edges) == expected_edges
    assert bg.morphism.mapping["n0"] == bg.node_id(b, 2)
    assert bg.graph.preference[bg.node_id(b, 2)] == b


def test_build_boundary_graph_depth_matches_chain():
    # Rainbow (blue, red, green) at depth 2 produces a 3-node chain.
    space = r.ColorSpace(("blue", "red", "green"))
    c = r.Rainbow((0, 1, 2))
    other = r.Rainbow((1, 0, 2))
    nodes = ("m0", "m1", "m2", "x")
    edges = frozenset((("m0", "m1"), ("m1", "m2"), ("m2", "x")))
    pref = {"m0": c, "m1": c, "m2": c, "x": other}
    bg = r.build_boundary_graph(r.RainbowGraph(nodes, edges, pref, space))
    assert bg.depths[c] == 2
    assert bg.node_id(c, 2) == "blue,red,green@2"


def test_boundary_morphism_validates_on_random_graphs():
    g = rng(22)
    for _ in range(30):
        graph = random_solvable_graph(g, max_nodes=30)
        bg = r.build_boundary_graph(graph)
        report = r.check_morphism(bg.morphism)
        assert report.is_morphism and report.is_rainbow_preserving


def test_boundary_graph_idempotent():
    g = rng(23)
    for _ in range(20):
        graph = random_solvable_graph(g, max_nodes=30)
        bg = r.build_boundary_graph(graph)
        bg2 = r.build_boundary_graph(bg.graph)
        assert bg2.depths == bg.depths
        assert set(bg2.graph.nodes) == set(bg.graph.nodes)
        assert bg2.graph.edges == bg.graph.edges
        # On a graph already in boundary form the morphism is injective.
        values = list(bg2.morphism.mapping.values())
        assert len(values) == len(set(values))


def test_check_morphism_identity_and_collapse():
    graph = path5_graph()
    ident = r.Morphism(graph, graph, {d: d for d in graph.nodes})
    report = r.check_morphism(ident)
    assert report == r.MorphismReport(True, True, ())

    collapse = r.Morphism(
        graph, graph, {"n0": "n1", "n1": "n1", "n2": "n2", "n3": "n3", "n4": "n4"}
    )
    assert r.check_morphism(collapse).is_morphism


def test_check_morphism_flags_broken_edge():
    graph = path5_graph()
    # n0 and n1 are adjacent but map to the non-adjacent pair (n0, n2).
    broken = r.Morphism(
        graph, graph, {"n0": "n0", "n1": "n2", "n2": "n2", "n3": "n3", "n4": "n4"}
    )
    report = r.check_morphism(broken)
    assert not report.is_morphism
    assert ("edge", "n0", "n1") in report.violations


def test_morphism_requires_total_map():
    graph = path5_graph()
    with pytest.raises(ValueError):
        r.Morphism(graph, graph, {"n0": "n0"})
    with pytest.raises(ValueError):
        r.Morphism(graph, graph, {d: "nope" for d in graph.nodes})


def test_pullback_identity_and_constant():
    graph = path5_graph()
    g = rng(24)
    mech = random_dp_mechanism(g, graph, r.PrivacyBudget(math.log(2.0), 0.0))
    ident = r.Morphism(graph, graph, {d: d for d in graph.nodes})
    pulled = r.pullback(mech, ident)
    assert pulled.assignment == mech.assignment

    constant = r.Morphism(graph, graph, {d: "n2" for d in graph.nodes})
    const_mech = r.pullback(mech, constant)
    assert all(v == mech.assignment["n2"] for v in const_mech.assignment.values())
    for _ in range(5):
        budget = random_budget(g)
        assert r.verify_dp(graph, const_mech, budget).valid


def test_pullback_missing_distribution():
    graph = path5_graph()
    mech = r.Mechanism({"n2": sv(0.3, 0.3, 0.4)}, graph.color_space)
    ident = r.Morphism(graph, graph, {d: d for d in graph.nodes})
    with pytest.raises(KeyError):
        r.pullback(mech, ident)


def test_pullback_of_boundary_lines_matches_optimal_mechanism():
    # Two independent routes to the same mechanism: closed-form per-node
    # construction vs iterated steps on the boundary graph pulled back.
    graph = path5_graph()
    bc = path5_bc()
    budget = r.PrivacyBudget(math.log(2.0), 0.0)
    direct = r.optimal_mechanism(graph, bc, budget)
    line_mech, bg = boundary_line_mechanisms(graph, bc, budget)
    pulled = r.pullback(line_mech, bg.morphism)
    for d in graph.nodes:
        for a, b in zip(direct.assignment[d], pulled.assignment[d]):
            assert abs(a - b) <= 1e-12


def test_pullback_preserves_dp_on_random_morphisms():
    g = rng(25)
    for _ in range(30):
        codomain = random_solvable_graph(g, max_nodes=12)
        budget = random_budget(g)
        mech = random_dp_mechanism(g, codomain, budget)
        assert r.verify_dp(codomain, mech, budget).valid
        morphism = random_blowup_morphism(g, codomain)
        assert r.check_morphism(morphism).is_morphism
        pulled = r.pullback(mech, morphism)
        assert r.verify_dp(morphism.domain, pulled, budget).valid


def _naive_topology(graph):
    # The definitions, evaluated node by node and edge by edge.
    nbrs = adjacency(graph)
    regions = {}
    for c in sorted(set(graph.preference.values()), key=lambda c: c.order):
        members = frozenset(d for d in graph.nodes if graph.preference[d] == c)
        interior = frozenset(
            d for d in members if all(graph.preference[n] == c for n in nbrs[d])
        )
        regions[c] = (members, interior, members - interior)
    pairs = set()
    for a, b in graph.edges:
        ca, cb = graph.preference[a], graph.preference[b]
        if ca != cb:
            pairs.add(tuple(sorted((ca, cb), key=lambda c: c.order)))
    return regions, sorted(pairs, key=lambda pr: (pr[0].order, pr[1].order))


def test_topology_matches_definition():
    g = rng(22)
    graphs = [path5_graph(), r.pentagon_graph(), triangle_graph()[0]]
    graphs += [random_solvable_graph(g, max_nodes=25) for _ in range(10)]
    graphs += [random_dense_graph(g) for _ in range(5)]
    dense = graphs[-1]
    reversed_edges = [(b, a) for a, b in sorted(dense.edges)]
    graphs.append(r.RainbowGraph(dense.nodes, reversed_edges, dense.preference, dense.color_space))
    for graph in graphs:
        # The integer view agrees with the string views.
        nodes = graph.nodes
        assert graph.node_index == {d: i for i, d in enumerate(nodes)}
        assert [graph.rainbows()[k] for k in graph.rainbow_ids.tolist()] == [
            graph.preference[d] for d in nodes
        ]
        assert [(nodes[a], nodes[b]) for a, b in graph.edge_ends.tolist()] == list(graph.edges)
        indptr, indices = (a.tolist() for a in graph.csr)
        nbrs = adjacency(graph)
        for i, d in enumerate(nodes):
            ids = indices[indptr[i]:indptr[i + 1]]
            assert ids == sorted(ids)
            assert tuple(sorted(nodes[j] for j in ids)) == nbrs[d]
        regions, pairs = _naive_topology(graph)
        topo = graph.topology
        assert graph.rainbows() == tuple(regions)
        assert list(topo.regions) == list(regions)
        for c, (members, interior, boundary) in regions.items():
            assert topo.regions[c] == r.Region(members, interior, boundary)
        assert list(topo.adjacent_pairs) == pairs
        assert r.decompose_regions(graph) is topo.regions
        assert graph.topology is topo


def _full_bfs_distances(graph, regions):
    # Distance to the nearest same-rainbow boundary node, by one
    # full-graph search per node; None for a node that reaches none.
    nbrs = adjacency(graph)
    dist = {}
    for d in graph.nodes:
        depths = bfs_depths(nbrs, d)
        boundary = regions[graph.preference[d]].boundary
        dist[d] = min((depths[x] for x in boundary if x in depths), default=None)
    return dist


def test_boundary_distances_early_exit_matches_full_bfs_on_dense_graphs():
    g = rng(23)
    for _ in range(8):
        graph = random_dense_graph(
            g, n=int(g.integers(30, 80)), extra_edges=int(g.integers(50, 600)),
            n_rainbows=int(g.integers(6, 16)), tail_len=8,
        )
        regions = r.decompose_regions(graph)
        dist = r.boundary_distances(graph, regions)
        assert dist == _full_bfs_distances(graph, regions)
        assert max(dist.values()) >= 1


def test_boundary_distances_unconstrained_component_in_dense_graph():
    # A second component made of one rainbow's nodes alone has no
    # boundary for that rainbow, although the rainbow has one elsewhere.
    g = rng(24)
    for _ in range(4):
        dense = random_dense_graph(g, n=40, extra_edges=200, n_rainbows=10)
        c = dense.preference["d003"]
        island = {f"x{i}": c for i in range(5)}
        island_edges = {(f"x{i}", f"x{i + 1}") for i in range(4)}
        graph = r.RainbowGraph(
            dense.nodes + tuple(island), dense.edges | island_edges,
            {**dense.preference, **island}, dense.color_space,
        )
        with pytest.raises(r.UnconstrainedRegion) as exc:
            r.boundary_distances(graph, r.decompose_regions(graph))
        assert exc.value.rainbow == c


def test_build_boundary_graph_on_long_path():
    space = r.ColorSpace(("1", "2"))
    c12, c21 = r.Rainbow((0, 1)), r.Rainbow((1, 0))
    n, split = 3000, 1000
    nodes = tuple(f"v{i:04d}" for i in range(n))
    edges = frozenset(zip(nodes, nodes[1:]))
    pref = {d: (c12 if i < split else c21) for i, d in enumerate(nodes)}
    bg = r.build_boundary_graph(r.RainbowGraph(nodes, edges, pref, space))
    assert bg.depths == {c12: split - 1, c21: n - split - 1}
    assert len(bg.graph.nodes) == n
    assert bg.morphism(nodes[0]) == bg.node_id(c12, split - 1)
    assert bg.morphism(nodes[-1]) == bg.node_id(c21, n - split - 1)


def _split_path(n=3000, split=1000):
    space = r.ColorSpace(("1", "2"))
    c12, c21 = r.Rainbow((0, 1)), r.Rainbow((1, 0))
    nodes = tuple(f"v{i:04d}" for i in range(n))
    pref = {d: (c12 if i < split else c21) for i, d in enumerate(nodes)}
    graph = r.RainbowGraph(nodes, frozenset(zip(nodes, nodes[1:])), pref, space)
    return graph, r.BoundaryCondition({c12: sv(0.7, 0.3), c21: sv(0.6, 0.4)})


def _index_cases():
    log2 = r.PrivacyBudget(math.log(2.0), 0.0)
    yield path5_graph(), path5_bc(), log2
    pentagon = parse_graph_file((FIXTURES / "pentagon.graph").read_text())
    yield pentagon.graph, pentagon.boundary, log2
    grid = parse_graph_file(striped_grid_text(30, 4, 5, seed=30, spread=0.08))
    yield grid.graph, grid.boundary, r.PrivacyBudget(0.4, 0.001)
    g = rng(26)
    for graph in [random_solvable_graph(g, max_nodes=40) for _ in range(15)] + [
        random_dense_graph(g, n=50, extra_edges=300, n_rainbows=8, tail_len=6) for _ in range(5)
    ]:
        budget = random_budget(g)
        yield graph, random_homogeneous_bc(g, graph, budget), budget
    yield (*_split_path(), r.PrivacyBudget(0.3, 0.001))


def test_boundary_graph_indexes_the_mechanism():
    # Boundary-graph node k is row k of the optimal mechanism's matrix, so
    # pulling the matrix back along the boundary morphism gives the same
    # mechanism, bit for bit.
    for graph, bc, budget in _index_cases():
        mech = r.optimal_mechanism(graph, bc, budget)
        bg = r.build_boundary_graph(graph)
        # Built from ids, it is the string constructor's graph of the
        # chains in rainbow order, linked at their heads.
        chains = {c: [bg.node_id(c, i) for i in range(bg.depths[c] + 1)] for c in graph.rainbows()}
        edges = {e for ids in chains.values() for e in zip(ids, ids[1:])}
        edges |= {(chains[ca][0], chains[cb][0]) for ca, cb in graph.topology.adjacent_pairs}
        preference = {d: c for c, ids in chains.items() for d in ids}
        assert_same_graph(bg.graph, r.RainbowGraph(preference, edges, preference, graph.color_space))
        index = bg.graph.node_index
        assert len(mech.rows) == len(index)
        for d in graph.nodes:
            assert mech.row_of[d] == index[bg.morphism(d)]
        chains = r.Mechanism.from_rows(mech.rows, index, graph.color_space)
        pulled = r.pullback(chains, bg.morphism)
        for d in graph.nodes:
            want = [x.hex() for x in mech.rows[mech.row_of[d]].tolist()]
            assert [x.hex() for x in pulled.rows[pulled.row_of[d]].tolist()] == want


def test_boundary_morphism_self_check_raises_on_a_moved_distance(monkeypatch):
    # An interior node's search distance, moved up by 2, is 3 steps from
    # its search parent's: the edge maps to no boundary-graph edge. The
    # check is an explicit raise, so it holds under python -O too.
    search = r.graph._chain_layout

    def moved_search(graph):
        dist, _, _, _ = search(graph)
        dist = dist.copy()
        dist[np.flatnonzero(dist > 0)[0]] += 2
        depths = np.zeros(len(graph.rainbows()), dtype=np.intp)
        np.maximum.at(depths, graph.rainbow_ids, dist)
        starts = np.cumsum(depths + 1) - (depths + 1)
        return dist, depths, starts, starts[graph.rainbow_ids] + dist

    monkeypatch.setattr(r.graph, "_chain_layout", moved_search)
    g = rng(27)
    graphs = [path5_graph(), _split_path()[0]]
    graphs += [random_solvable_graph(g, max_nodes=30) for _ in range(10)]
    for graph in graphs:
        if not (search(graph)[0] > 0).any():
            continue
        with pytest.raises(AssertionError, match="boundary morphism fails on"):
            r.build_boundary_graph(graph)
