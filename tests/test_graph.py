import gc
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rainbowdp as r
from helpers import (
    adjacency,
    assert_same_graph,
    bfs_depths,
    boundary_line_mechanisms,
    boundary_map,
    check_morphism_reference,
    distinct_rainbows,
    path5_bc,
    path5_graph,
    pullback,
    random_blowup_morphism,
    random_budget,
    random_dense_graph,
    random_dp_mechanism,
    random_homogeneous_bc,
    random_solvable_graph,
    reference_search,
    rng,
    split_path,
    striped_grid_text,
    sv,
)
from rainbowdp.cli.graphfile import parse_graph_file
from rainbowdp.graph import _ARRAY_LEVEL_WIDTH

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
    assert boundary_map(graph, bg) == {
        "n0": bg.node_id(b, 2), "n1": bg.node_id(b, 1), "n2": bg.node_id(b, 0),
        "n3": bg.node_id(red, 0), "n4": bg.node_id(red, 1),
    }
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
        assert check_morphism_reference(graph, bg.graph, boundary_map(graph, bg)) == ((), ())


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
        image = bg.graph.search[3].tolist()
        assert len(image) == len(set(image))


def test_check_morphism_identity_and_collapse():
    graph = path5_graph()
    assert check_morphism_reference(graph, graph, {d: d for d in graph.nodes}) == ((), ())
    collapse = {"n0": "n1", "n1": "n1", "n2": "n2", "n3": "n3", "n4": "n4"}
    assert check_morphism_reference(graph, graph, collapse)[0] == ()


def test_check_morphism_flags_broken_edge():
    graph = path5_graph()
    # n0 and n1 are adjacent but map to the non-adjacent pair (n0, n2).
    broken = {"n0": "n0", "n1": "n2", "n2": "n2", "n3": "n3", "n4": "n4"}
    assert ("n0", "n1") in check_morphism_reference(graph, graph, broken)[0]


def test_check_morphism_flags_a_node_whose_rainbow_changes():
    # The pentagon's reflection through d3 keeps every edge, but swaps d1
    # (rainbow 1,2,3) with d5 (rainbow 1,3,2).
    graph = r.pentagon_graph()
    mirror = {"d1": "d5", "d2": "d4", "d3": "d3", "d4": "d2", "d5": "d1"}
    assert check_morphism_reference(graph, graph, mirror) == ((), ("d1", "d5"))


def test_pullback_identity_and_constant():
    graph = path5_graph()
    g = rng(24)
    mech = random_dp_mechanism(g, graph, r.PrivacyBudget(math.log(2.0), 0.0))
    pulled = pullback(mech, graph, {d: d for d in graph.nodes})
    assert pulled.assignment == mech.assignment

    const_mech = pullback(mech, graph, {d: "n2" for d in graph.nodes})
    assert all(v == mech.assignment["n2"] for v in const_mech.assignment.values())
    for _ in range(5):
        budget = random_budget(g)
        assert r.verify_dp(graph, const_mech, budget).valid


def test_pullback_missing_distribution():
    graph = path5_graph()
    mech = r.Mechanism(np.array([sv(0.3, 0.3, 0.4).p]), [0], ("n2",), graph.color_space)
    with pytest.raises(KeyError):
        pullback(mech, graph, {d: d for d in graph.nodes})


def test_pullback_needs_rows_only_for_the_image():
    # n0 and n4 are outside the image, and the mechanism is not on them.
    graph = path5_graph()
    rows = np.array([sv(0.2, 0.3, 0.5).p, sv(0.3, 0.3, 0.4).p, sv(0.4, 0.3, 0.3).p])
    mech = r.Mechanism(rows, [0, 1, 2], ("n1", "n2", "n3"), graph.color_space)
    fold = {"n0": "n2", "n1": "n1", "n2": "n2", "n3": "n3", "n4": "n2"}
    pulled = pullback(mech, graph, fold)
    assert pulled.nodes is graph.nodes
    assert pulled.node_rows.tolist() == [1, 0, 1, 2, 1]
    assert pulled.assignment == {d: mech.assignment[fold[d]] for d in graph.nodes}


def test_assert_same_graph_raises_on_a_different_graph():
    # The helper's asserts are rewritten into raises, so this holds under -O.
    graph = path5_graph()
    fewer = r.RainbowGraph(graph.nodes, graph.edges - {("n3", "n4")}, graph.preference, graph.color_space)
    assert_same_graph(graph, path5_graph())
    with pytest.raises(AssertionError):
        assert_same_graph(fewer, graph)


def test_pullback_of_boundary_lines_matches_optimal_mechanism():
    # Two independent routes to the same mechanism: closed-form per-node
    # construction vs iterated steps on the boundary graph pulled back.
    graph = path5_graph()
    bc = path5_bc()
    budget = r.PrivacyBudget(math.log(2.0), 0.0)
    direct = r.optimal_mechanism(graph, bc, budget)
    line_mech, bg = boundary_line_mechanisms(graph, bc, budget)
    pulled = pullback(line_mech, graph, boundary_map(graph, bg))
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
        domain, mapping = random_blowup_morphism(g, codomain)
        assert check_morphism_reference(domain, codomain, mapping)[0] == ()
        pulled = pullback(mech, domain, mapping)
        assert r.verify_dp(domain, pulled, budget).valid


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
        regions, pairs = _naive_topology(graph)
        adjacent_pairs = graph.adjacent_pairs
        decomposed = r.decompose_regions(graph)
        assert graph.rainbows() == tuple(regions)
        assert list(decomposed) == list(regions)
        for c, (members, interior, boundary) in regions.items():
            assert decomposed[c] == r.Region(members, interior, boundary)
        assert list(adjacent_pairs) == pairs
        assert graph.adjacent_pairs is adjacent_pairs


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
        # A failed search is not cached: every read raises again.
        with pytest.raises(r.UnconstrainedRegion) as exc:
            graph.search
        assert exc.value.rainbow == c


def _striped_grid(side):
    return parse_graph_file(striped_grid_text(side, 4, 5, seed=side, spread=0.02)).graph


def _with_path(graph, prefix, length, rainbow, anchor=None):
    # graph plus a path of `length` nodes of one rainbow, its first node
    # joined to anchor when one is given.
    path = tuple(f"{prefix}{i:03d}" for i in range(length))
    edges = set(zip(path, path[1:]))
    if anchor is not None:
        edges.add(tuple(sorted((anchor, path[0]))))
    pref = {**graph.preference, **dict.fromkeys(path, rainbow)}
    return r.RainbowGraph(graph.nodes + path, graph.edges | edges, pref, graph.color_space)


def _path_and_random_edges(n, m, ids, seed):
    # n nodes, node i in rainbow ids[i] of 40 (q = 8), on a path plus
    # random edges, m edges in all.
    g = rng(seed)
    chain_codes = np.arange(n - 1) * n + np.arange(1, n)
    pairs = np.sort(g.integers(0, n, size=(2 * m, 2)), axis=1)
    codes = np.setdiff1d(pairs[pairs[:, 0] != pairs[:, 1]] @ [n, 1], chain_codes)
    codes = np.concatenate((chain_codes, g.permutation(codes)[:m - n + 1]))
    ends = np.stack((codes // n, codes % n), axis=1)
    space = r.ColorSpace(tuple(f"c{i}" for i in range(1, 9)))
    names = [f"d{i:05d}" for i in range(n)]
    return r.RainbowGraph.from_ids(names, ids, distinct_rainbows(g, 8, 40), ends, space)


def _all_rim_graph(n, m, seed):
    # Path neighbors differ in rainbow, so every node is on the rim.
    return _path_and_random_edges(n, m, np.arange(n) % 40, seed)


def _random_levels_graph():
    # A 200-node class in a random 4000-node graph of average degree 4:
    # wide levels whose nodes have several parents, then a narrow one.
    return _path_and_random_edges(4000, 8000, (np.arange(4000) >= 200).astype(np.intp), seed=32)


def _tailed_grid():
    # A 300-node tail on a mid-depth node of the first stripe outlasts the
    # grid's levels, so the search hands its last levels to the queue.
    wide = _striped_grid(90)
    return _with_path(wide, "t", 300, wide.preference["r45c10"], "r45c10")


# Each case's graph, and a test on its level widths (from the reference)
# that it reaches the phases named: levels at least _ARRAY_LEVEL_WIDTH
# wide go on arrays, the first narrower one and all after it a node at a
# time.
SEARCH_CASES = {
    "array levels only": (lambda: _striped_grid(90), lambda w: w.min() >= _ARRAY_LEVEL_WIDTH),
    "handoff": (_tailed_grid, lambda w: w[0] >= _ARRAY_LEVEL_WIDTH > w[-1]),
    "queue only": (lambda: split_path()[0], lambda w: w[0] < _ARRAY_LEVEL_WIDTH),
    "several parents": (_random_levels_graph, lambda w: w[0] >= _ARRAY_LEVEL_WIDTH > w[-1]),
    "all rim": (lambda: _all_rim_graph(400, 2000, seed=30), lambda w: len(w) == 1),
}


@pytest.mark.parametrize("case", SEARCH_CASES)
def test_search_matches_the_reference_in_each_phase(case):
    make, reaches = SEARCH_CASES[case]
    graph = make()
    expected = reference_search(graph)
    assert reaches(np.bincount(expected[0]))
    layout = graph.search
    for got, want in zip(layout, expected, strict=True):
        assert got.dtype == np.intp and got.tolist() == want.tolist()
        assert not got.flags.writeable
    assert graph.search is layout


def test_search_on_an_all_rim_graph_builds_no_neighbor_list():
    graph = _all_rim_graph(3000, 60_000, seed=31)
    assert len(graph.edge_ends) == 60_000 and graph.rim.all()  # rim before tracing
    gc.collect()
    tracemalloc.start()
    try:
        dist = graph.search[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not dist.any()
    # A CSR's indices array alone holds 2E intp entries.
    assert peak < 2 * 60_000 * 8, peak


@pytest.mark.parametrize("make", [lambda: _striped_grid(90), _random_levels_graph], ids=["grid", "random"])
def test_search_of_wide_levels_with_rimless_islands(make):
    # Islands of the last and then the first rainbow, in rainbow order,
    # reach no boundary once the wide levels are done: the error names
    # the first rainbow, on every read.
    wide = make()
    first, last = wide.rainbows()[0], wide.rainbows()[-1]
    graph = _with_path(_with_path(wide, "x", 5, last), "y", 5, first)
    dist = reference_search(graph)[0]
    assert (dist < 0).sum() == 10 and np.bincount(dist[dist >= 0])[0] >= _ARRAY_LEVEL_WIDTH
    for _ in range(2):
        with pytest.raises(r.UnconstrainedRegion) as exc:
            graph.search
        assert exc.value.rainbow == first
    assert "search" not in graph.__dict__


def test_build_boundary_graph_on_long_path():
    space = r.ColorSpace(("1", "2"))
    c12, c21 = r.Rainbow((0, 1)), r.Rainbow((1, 0))
    n, split = 3000, 1000
    nodes = tuple(f"v{i:04d}" for i in range(n))
    edges = frozenset(zip(nodes, nodes[1:]))
    pref = {d: (c12 if i < split else c21) for i, d in enumerate(nodes)}
    graph = r.RainbowGraph(nodes, edges, pref, space)
    bg = r.build_boundary_graph(graph)
    assert bg.depths == {c12: split - 1, c21: n - split - 1}
    assert len(bg.graph.nodes) == n
    image = boundary_map(graph, bg)
    assert image[nodes[0]] == bg.node_id(c12, split - 1)
    assert image[nodes[-1]] == bg.node_id(c21, n - split - 1)


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
    yield (*split_path(), r.PrivacyBudget(0.3, 0.001))


def test_boundary_graph_indexes_the_mechanism():
    # Boundary-graph node k is row k of the optimal mechanism's matrix, so
    # pulling the matrix back along the boundary morphism gives each node
    # its row id in the same matrix: the same mechanism, bit for bit.
    for graph, bc, budget in _index_cases():
        mech = r.optimal_mechanism(graph, bc, budget)
        bg = r.build_boundary_graph(graph)
        # Built from ids, it is the string constructor's graph of the
        # chains in rainbow order, linked at their heads.
        chains = {c: [bg.node_id(c, i) for i in range(bg.depths[c] + 1)] for c in graph.rainbows()}
        edges = {e for ids in chains.values() for e in zip(ids, ids[1:])}
        edges |= {(chains[ca][0], chains[cb][0]) for ca, cb in graph.adjacent_pairs}
        preference = {d: c for c, ids in chains.items() for d in ids}
        assert_same_graph(bg.graph, r.RainbowGraph(preference, edges, preference, graph.color_space))
        index, image = bg.graph.node_index, boundary_map(graph, bg)
        assert len(mech.rows) == len(index)
        assert mech.node_rows.tolist() == [index[image[d]] for d in graph.nodes]
        chains = r.Mechanism(mech.rows, np.arange(len(index)), bg.graph.nodes, graph.color_space)
        pulled = pullback(chains, graph, image)
        assert pulled.node_rows.tolist() == mech.node_rows.tolist()


def _seed_search(graph, dist):
    # Seed the graph's cached search with the given distances.
    depths = np.zeros(len(graph.rainbows()), dtype=np.intp)
    np.maximum.at(depths, graph.rainbow_ids, dist)
    starts = np.cumsum(depths + 1) - (depths + 1)
    graph.__dict__["search"] = (dist, depths, starts, starts[graph.rainbow_ids] + dist)


def test_boundary_morphism_self_check_raises_on_a_moved_distance():
    # An interior node's search distance, moved up by 2, is 3 steps from
    # its search parent's: the edge maps to no boundary-graph edge. A rim
    # node moved to distance 1 sends its edge to another class to a node
    # that is no chain head, so that edge maps to no head edge. The check
    # is an explicit raise, so it holds under python -O too.
    g = rng(27)
    graphs = [path5_graph(), split_path()[0]]
    graphs += [random_solvable_graph(g, max_nodes=30) for _ in range(10)]
    interior = 0
    for graph in graphs:
        dist = graph.search[0]
        if (dist > 0).any():
            moved = dist.copy()
            moved[np.flatnonzero(dist > 0)[0]] += 2
            _seed_search(graph, moved)
            with pytest.raises(AssertionError, match="boundary morphism fails on"):
                r.build_boundary_graph(graph)
            interior += 1
        # Only the rim node's edges to other classes break.
        v = int(np.flatnonzero(graph.rim)[0])
        ends, ids = graph.edge_ends, graph.rainbow_ids
        cross = (ends == v).any(axis=1) & (ids[ends[:, 0]] != ids[ends[:, 1]])
        names = sorted((graph.nodes[i], graph.nodes[j]) for i, j in ends[cross].tolist())
        moved = dist.copy()
        moved[v] = 1
        _seed_search(graph, moved)
        with pytest.raises(AssertionError) as exc:
            r.build_boundary_graph(graph)
        assert str(exc.value) == f"boundary morphism fails on {len(names)} edge(s), first {names[0]}"
    assert interior >= 2
