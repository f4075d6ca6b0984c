"""Shared builders for the test suite: seeded RNGs, fuzz's draws laid
out by gamma calls and the Dirichlet start they give, sample_close's
rejection loop scanning every halving count, random graphs
with solvable boundary structure, random valid boundary conditions, and
the competitor mechanisms used for optimality checks, mechanisms from
name-keyed distributions, the environment of a child interpreter; graph
morphisms on node names, their check and the pullback along them; and
the references the array checks are compared with: verify_dp and
utility_eval one node or edge at a time, and the hockey-stick excess and
the dominance lemma's witnesses in exact arithmetic."""

from __future__ import annotations

import math
import os
import random
from collections import deque
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np

import rainbowdp as r
from rainbowdp.oracle import _accept_mask


def child_env() -> dict[str, str]:
    """os.environ with the directory this process imported rainbowdp from
    first on PYTHONPATH, so a child interpreter imports the same package
    whatever its working directory (a relative entry would not resolve)."""
    package_root = str(Path(r.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


def rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def block_draws(key, trials: int, count: int, q: int) -> np.ndarray:
    """The draws of a fuzz block from np.random.default_rng(key), taken
    with gamma(1, 1): row j holds trial j's 1 + max(count - 2, 0) rows of
    q exponentials, the first of which makes its start distribution."""
    return np.random.default_rng(key).gamma(1.0, 1.0, size=(trials, 1 + max(count - 2, 0), q))


def dirichlet_start(row: np.ndarray) -> r.SimplexVector:
    """The flat Dirichlet draw that a row of q standard exponentials
    makes, as Generator.dirichlet makes it: each times the reciprocal of
    their left-to-right sum."""
    total = 0.0
    for x in row.tolist():
        total += x
    inv = 1.0 / total
    return r.SimplexVector(tuple(x * inv for x in row.tolist()))


def reference_mix_until_close(
    pa: np.ndarray, u: np.ndarray, lam: np.ndarray, budget: r.PrivacyBudget
) -> np.ndarray:
    """The rejection loop scanning every halving count from 0: row i
    mixes pa[i] toward u[i] with weight lam[i], the weight halved until
    the mix is close to pa[i]; a row still rejected after 200 halvings
    is pa[i]. Each round recomputes only the rows still rejected."""
    cand = pa + lam[:, None] * (u - pa)
    rows, pr, ur, lr, cr = np.arange(len(cand)), pa, u, lam, cand
    for _ in range(200):
        bad = ~_accept_mask(cr, pr, budget)
        cand[rows[~bad]] = cr[~bad]
        rows, pr, ur, lr = rows[bad], pr[bad], ur[bad], lr[bad] * 0.5
        if not rows.size:
            break
        cr = pr + lr[:, None] * (ur - pr)
    else:
        bad = ~_accept_mask(cr, pr, budget)
        cand[rows] = np.where(bad[:, None], pr, cr)
    return cand


def sv(*vals) -> r.SimplexVector:
    return r.SimplexVector(tuple(vals))


def mechanism_of(graph: r.RainbowGraph, mapping) -> r.Mechanism:
    """The mechanism on graph.nodes whose node d has the distribution
    mapping[d], one row per node in graph.nodes order."""
    rows = np.array([mapping[d].p for d in graph.nodes], dtype=np.float64).reshape(-1, graph.color_space.q)
    return r.Mechanism(rows, np.arange(len(rows)), graph.nodes, graph.color_space)


def random_simplex(g: np.random.Generator, q: int, zero_rate: float = 0.0) -> r.SimplexVector:
    w = g.gamma(1.0, 1.0, q)
    if zero_rate > 0.0:
        mask = g.random(q) < zero_rate
        if mask.all():
            mask[int(g.integers(q))] = False
        w[mask] = 0.0
    if w.sum() == 0.0:
        w[0] = 1.0
    return r.SimplexVector(tuple(w / w.sum()))


def random_budget(
    g: np.random.Generator,
    e_eps_range=(1.01, 10.0),
    delta_range=(0.0, 0.2),
    zero_delta_rate=0.3,
) -> r.PrivacyBudget:
    e_eps = g.uniform(*e_eps_range)
    delta = 0.0 if g.random() < zero_delta_rate else g.uniform(*delta_range)
    return r.PrivacyBudget(float(np.log(e_eps)), float(delta))


def distinct_rainbows(g: np.random.Generator, q: int, count: int) -> list[r.Rainbow]:
    if q <= 5:
        pool = list(permutations(range(q)))
        idx = g.choice(len(pool), size=count, replace=False)
        return [r.Rainbow(pool[i]) for i in idx]
    seen: set[tuple[int, ...]] = set()
    while len(seen) < count:
        seen.add(tuple(int(i) for i in g.permutation(q)))
    return [r.Rainbow(o) for o in sorted(seen)]


def random_solvable_graph(
    g: np.random.Generator,
    max_nodes: int = 40,
    max_rainbows: int = 4,
    q_choices=(3, 4, 5),
) -> r.RainbowGraph:
    """Connected graph with at least two rainbow classes, so every class
    has a nonempty boundary."""
    q = int(g.choice(list(q_choices)))
    space = r.ColorSpace(tuple(f"c{i}" for i in range(1, q + 1)))
    n_rainbows = int(g.integers(2, max_rainbows + 1))
    rainbows = distinct_rainbows(g, q, n_rainbows)
    n = int(g.integers(max(3, n_rainbows), max_nodes + 1))
    nodes = tuple(f"d{i:02d}" for i in range(n))
    edges: set[tuple[str, str]] = set()
    for i in range(1, n):
        j = int(g.integers(0, i))
        a, b = sorted((nodes[i], nodes[j]))
        edges.add((a, b))
    for _ in range(int(g.integers(0, n))):
        i, j = g.integers(0, n, size=2)
        if i != j:
            a, b = sorted((nodes[int(i)], nodes[int(j)]))
            edges.add((a, b))
    labels = [rainbows[int(g.integers(n_rainbows))] for _ in range(n)]
    if len(set(labels)) == 1:
        labels[-1] = next(c for c in rainbows if c != labels[0])
    return r.RainbowGraph(nodes, frozenset(edges), dict(zip(nodes, labels)), space)


def random_dense_graph(
    g: np.random.Generator,
    n: int = 60,
    extra_edges: int = 400,
    n_rainbows: int = 12,
    q: int = 5,
    tail_len: int = 6,
) -> r.RainbowGraph:
    """A dense connected core over many rainbows, plus one pendant path
    per rainbow that keeps its anchor's rainbow, so distances reach
    tail_len while most nodes sit on a boundary."""
    space = r.ColorSpace(tuple(f"c{i}" for i in range(1, q + 1)))
    rainbows = distinct_rainbows(g, q, n_rainbows)
    nodes = [f"d{i:03d}" for i in range(n)]
    labels = {d: rainbows[i % n_rainbows] for i, d in enumerate(nodes)}
    edges: set[tuple[str, str]] = set()
    for i in range(1, n):
        a, b = sorted((nodes[i], nodes[int(g.integers(0, i))]))
        edges.add((a, b))
    for _ in range(extra_edges):
        i, j = g.integers(0, n, size=2)
        if i != j:
            a, b = sorted((nodes[int(i)], nodes[int(j)]))
            edges.add((a, b))
    for k in range(n_rainbows):
        prev = nodes[k]
        for t in range(int(g.integers(1, tail_len + 1))):
            name = f"t{k:02d}_{t}"
            labels[name] = labels[nodes[k]]
            edges.add(tuple(sorted((prev, name))))
            prev = name
    return r.RainbowGraph(tuple(labels), frozenset(edges), labels, space)


def random_homogeneous_bc(
    g: np.random.Generator, graph: r.RainbowGraph, budget: r.PrivacyBudget
) -> r.BoundaryCondition:
    """Random per-rainbow boundary vectors, shrunk toward a common base
    until every adjacent region pair is close under the budget."""
    q = graph.color_space.q
    base = g.dirichlet(np.ones(q))
    targets = {c: g.dirichlet(np.ones(q)) for c in graph.rainbows()}
    lam = 0.5
    while True:
        bc = r.BoundaryCondition(
            {c: r.SimplexVector(tuple(base + lam * (t - base))) for c, t in targets.items()}
        )
        if not r.validate_boundary_condition(graph, bc, budget):
            return bc
        lam *= 0.5


def boundary_line_mechanisms(
    graph: r.RainbowGraph, bc: r.BoundaryCondition, budget: r.PrivacyBudget
) -> tuple[r.Mechanism, r.BoundaryGraph]:
    """Per-rainbow chains of iterated operator steps on the boundary
    graph; pulling this back along boundary_map yields a valid
    mechanism on the source graph. The chains fill rows in
    RainbowGraph.search's layout, row k for boundary-graph node k."""
    bg = r.build_boundary_graph(graph)
    starts = graph.search[2].tolist()
    rows = np.empty((len(bg.graph.nodes), graph.color_space.q))
    for c, start in zip(graph.rainbows(), starts):
        cur = r.to_preference_order(bc.values[c], c)
        for i in range(bg.depths[c] + 1):
            # Entry k of cur is the mass of color c.order[k].
            canonical = tuple(cur.p[c.order.index(j)] for j in range(c.q))
            rows[start + i] = r.SimplexVector(canonical).p
            cur = r.t_step(cur, budget)
    return r.Mechanism(rows, np.arange(len(rows)), bg.graph.nodes, graph.color_space), bg


def assert_same_graph(graph: r.RainbowGraph, expected: r.RainbowGraph) -> None:
    """graph, however it was built, is the graph the string constructor
    made of expected: the same string views, rainbows and ids, and the
    same edge rows in any order, each row (a, b) with nodes[a] < nodes[b]."""
    nodes = graph.nodes
    assert nodes == expected.nodes
    assert graph.node_index == expected.node_index
    assert graph.color_space == expected.color_space
    assert graph.edges == expected.edges
    assert graph.preference == expected.preference
    assert graph.rainbows() == expected.rainbows()
    assert graph.rainbow_ids.tolist() == expected.rainbow_ids.tolist()
    rows = [tuple(row) for row in graph.edge_ends.tolist()]
    assert len(rows) == len(expected.edges)
    assert set(rows) == {tuple(row) for row in expected.edge_ends.tolist()}
    assert all(nodes[a] < nodes[b] for a, b in rows)


def adjacency(graph: r.RainbowGraph) -> dict[str, tuple[str, ...]]:
    """Each node's neighbours by name, sorted, built from graph.edges, so
    the reference searches here do not read the CSR they check."""
    nbrs: dict[str, list[str]] = {d: [] for d in graph.nodes}
    for a, b in graph.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    return {d: tuple(sorted(v)) for d, v in nbrs.items()}


def components(nbrs: dict[str, tuple[str, ...]]) -> list[list[str]]:
    seen: set[str] = set()
    out: list[list[str]] = []
    for start in nbrs:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = deque([start])
        while queue:
            d = queue.popleft()
            for nb in nbrs[d]:
                if nb not in seen:
                    seen.add(nb)
                    comp.append(nb)
                    queue.append(nb)
        out.append(sorted(comp))
    return out


def bfs_depths(nbrs: dict[str, tuple[str, ...]], root: str) -> dict[str, int]:
    depth = {root: 0}
    queue = deque([root])
    while queue:
        d = queue.popleft()
        for nb in nbrs[d]:
            if nb not in depth:
                depth[nb] = depth[d] + 1
                queue.append(nb)
    return depth


def reference_search(graph: r.RainbowGraph) -> tuple[np.ndarray, ...]:
    """RainbowGraph.search's (dist, depths, starts, chain_row), from one
    breadth-first search by name over graph.edges, a node at a time,
    from every node with a neighbour of another rainbow; dist is -1 for a
    node it never reaches, which search refuses with UnconstrainedRegion."""
    nbrs, pref = adjacency(graph), graph.preference
    depth = {d: 0 for d in graph.nodes if any(pref[x] != pref[d] for x in nbrs[d])}
    queue = deque(depth)
    while queue:
        d = queue.popleft()
        for nb in nbrs[d]:
            if nb not in depth:
                depth[nb] = depth[d] + 1
                queue.append(nb)
    dist = np.array([depth.get(d, -1) for d in graph.nodes], dtype=np.intp)
    rank = {c: k for k, c in enumerate(graph.rainbows())}
    ids = np.array([rank[pref[d]] for d in graph.nodes], dtype=np.intp)
    depths = np.array([dist[ids == k].max() for k in range(len(rank))], dtype=np.intp)
    starts = np.concatenate(([0], np.cumsum(depths + 1)[:-1])).astype(np.intp)
    return dist, depths, starts, starts[ids] + dist


def random_dp_mechanism(
    g: np.random.Generator, graph: r.RainbowGraph, budget: r.PrivacyBudget
) -> r.Mechanism:
    """A nontrivial mechanism that satisfies the budget by construction:
    each component's nodes get operator powers of a random base, indexed
    by breadth-first depth (adjacent depths differ by at most one)."""
    q = graph.color_space.q
    assign: dict[str, r.SimplexVector] = {}
    nbrs = adjacency(graph)
    for comp in components(nbrs):
        base = random_simplex(g, q)
        depth = bfs_depths(nbrs, comp[0])
        powers = [base]
        max_depth = max(depth[d] for d in comp)
        for _ in range(max_depth):
            powers.append(r.t_step(powers[-1], budget))
        for d in comp:
            assign[d] = powers[depth[d]]
    return mechanism_of(graph, assign)


def check_morphism_reference(
    domain: r.RainbowGraph, codomain: r.RainbowGraph, mapping: dict[str, str]
) -> tuple[tuple[tuple[str, str], ...], tuple[str, ...]]:
    """The name map's violations, as data, not errors: (edges, moved).
    edges holds the domain edges, sorted, sent to two distinct
    non-adjacent nodes; moved the domain nodes, sorted, whose rainbow
    differs from their image's. mapping is a morphism when edges is
    empty, and rainbow preserving when moved is."""
    edges = tuple(
        (a, b) for a, b in sorted(domain.edges)
        if mapping[a] != mapping[b] and tuple(sorted((mapping[a], mapping[b]))) not in codomain.edges
    )
    moved = tuple(d for d in sorted(domain.nodes) if domain.preference[d] != codomain.preference[mapping[d]])
    return edges, moved


def pullback(mech: r.Mechanism, domain: r.RainbowGraph, mapping: dict[str, str]) -> r.Mechanism:
    """mech pulled back along mapping: domain node d gets the row of its
    image, the same row of the same matrix; KeyError names an image that
    is not one of mech.nodes."""
    index = dict(zip(mech.nodes, range(len(mech.nodes))))
    images = [index[mapping[d]] for d in domain.nodes]
    return r.Mechanism(mech.rows, mech.node_rows[images], domain.nodes, mech.color_space)


def boundary_map(graph: r.RainbowGraph, bg: r.BoundaryGraph) -> dict[str, str]:
    """The boundary morphism on names: node d of graph goes to the
    boundary-graph node of its row in graph.search's chain_row."""
    return dict(zip(graph.nodes, map(bg.graph.nodes.__getitem__, graph.search[3].tolist())))


def random_blowup_morphism(
    g: np.random.Generator, codomain: r.RainbowGraph
) -> tuple[r.RainbowGraph, dict[str, str]]:
    """A random morphism onto `codomain`, as (domain, mapping): each
    codomain node explodes into 1..3 chained copies, and each codomain
    edge is realized by at least one copy pair."""
    nodes: list[str] = []
    mapping: dict[str, str] = {}
    copies: dict[str, list[str]] = {}
    preference: dict[str, r.Rainbow] = {}
    edges: set[tuple[str, str]] = set()
    for v in codomain.nodes:
        k = int(g.integers(1, 4))
        copies[v] = []
        for i in range(k):
            name = f"{v}/{i}"
            nodes.append(name)
            mapping[name] = v
            preference[name] = codomain.preference[v]
            copies[v].append(name)
        for i in range(k - 1):
            a, b = sorted((copies[v][i], copies[v][i + 1]))
            edges.add((a, b))
    for u, v in codomain.edges:
        picks = int(g.integers(1, 3))
        for _ in range(picks):
            a = copies[u][int(g.integers(len(copies[u])))]
            b = copies[v][int(g.integers(len(copies[v])))]
            a, b = sorted((a, b))
            edges.add((a, b))
    domain = r.RainbowGraph(tuple(nodes), frozenset(edges), preference, codomain.color_space)
    return domain, mapping


def path5_graph() -> r.RainbowGraph:
    space = r.ColorSpace(("1", "2", "3"))
    b = r.Rainbow((0, 1, 2))
    red = r.Rainbow((1, 0, 2))
    nodes = ("n0", "n1", "n2", "n3", "n4")
    edges = frozenset((("n0", "n1"), ("n1", "n2"), ("n2", "n3"), ("n3", "n4")))
    pref = {"n0": b, "n1": b, "n2": b, "n3": red, "n4": red}
    return r.RainbowGraph(nodes, edges, pref, space)


def path5_bc() -> r.BoundaryCondition:
    graph = path5_graph()
    b = graph.preference["n0"]
    red = graph.preference["n3"]
    return r.BoundaryCondition(
        {b: sv(0.2, 0.1, 0.7), red: sv(0.4, 0.2, 0.4)}
    )


def split_path(n: int = 3000, split: int = 1000) -> tuple[r.RainbowGraph, r.BoundaryCondition]:
    """A q = 2 path of n nodes whose first split nodes prefer color 1 and
    the rest color 2, so its two chains are split and n - split - 1 deep."""
    space = r.ColorSpace(("1", "2"))
    c12, c21 = r.Rainbow((0, 1)), r.Rainbow((1, 0))
    nodes = tuple(f"v{i:04d}" for i in range(n))
    pref = {d: (c12 if i < split else c21) for i, d in enumerate(nodes)}
    graph = r.RainbowGraph(nodes, frozenset(zip(nodes, nodes[1:])), pref, space)
    return graph, r.BoundaryCondition({c12: sv(0.7, 0.3), c21: sv(0.6, 0.4)})


def exact_excess(p, q_, budget: r.PrivacyBudget) -> Fraction:
    """subset_excess(p, q_, e^eps) in exact rational arithmetic: the sum
    of the positive parts of p - e q_, where e := Fraction(exp_epsilon)
    is the float the program uses for e^eps, and each entry is the float
    as given, so only the program's own roundings separate the two."""
    e = Fraction(budget.exp_epsilon)
    total = Fraction(0)
    for a, b in zip(p, q_):
        total += max(Fraction(a) - e * Fraction(b), Fraction(0))
    return total


def exact_witness(p, k: int, budget: r.PrivacyBudget) -> list[Fraction]:
    """The dominance lemma's witness w_k of p in exact rational arithmetic,
    with e := Fraction(exp_epsilon) and e^-eps := 1 / e: p's entries up to
    k scaled by g(s_k) / s_k (all of g on entry k when s_k = 0), the rest
    by (1 - g(s_k)) / (their mass), with s_k the exact sum of p's floats up
    to k and g(s) = min(1, e s + delta, 1 - (1 - s - delta) / e)."""
    e, d = Fraction(budget.exp_epsilon), Fraction(budget.delta)
    x = [Fraction(v) for v in p]
    s, rest = sum(x[:k + 1]), sum(x[k + 1:])
    g = min(Fraction(1), e * s + d, 1 - (1 - s - d) / e)
    head = [v * g / s for v in x[:k + 1]] if s else [Fraction(0)] * k + [g]
    return head + [v * (1 - g) / rest for v in x[k + 1:]] if rest else head + x[k + 1:]


def utility_eval_reference(
    graph: r.RainbowGraph, mech: r.Mechanism, weights
) -> float:
    """utility_eval as plain Python floats: each node's products added
    left to right in its preference order, then the nodes' totals, left
    to right in graph.nodes order."""
    total = 0.0
    for d, row_id in zip(graph.nodes, mech.node_rows.tolist()):
        row = mech.rows[row_id].tolist()
        node = 0.0
        for w, i in zip(weights[d], graph.preference[d].order):
            node += w * row[i]
        total += node
    return total


def verify_dp_reference(
    graph: r.RainbowGraph, mech: r.Mechanism, budget: r.PrivacyBudget
) -> r.DpReport:
    """verify_dp as one subset_excess call per edge direction, in sorted
    edge order: the definition the array pass must match bit for bit."""
    violations = []
    e = budget.exp_epsilon
    for a, b in sorted(graph.edges):
        for src, dst in ((a, b), (b, a)):
            p, q_ = mech.assignment[src], mech.assignment[dst]
            margin = r.subset_excess(p, q_, e) - budget.delta
            if margin > r.DEFAULT_TOL:
                violations.append(r.DpViolation((a, b), (src, dst), margin))
    return r.DpReport(tuple(violations))


def striped_grid_text(side: int, stripes: int, q: int, seed: int, spread: float) -> str:
    """A seeded side x side grid file whose column bands carry distinct
    rainbows, with boundary vectors jittered from one base so every pair
    is close whenever 4 * spread <= epsilon."""
    g = random.Random(seed)
    colors = [f"c{k}" for k in range(1, q + 1)]
    rainbows: list[list[str]] = []
    while len(rainbows) < stripes:
        perm = colors[:]
        g.shuffle(perm)
        if perm not in rainbows:
            rainbows.append(perm)
    out = ["colors " + " ".join(colors)]
    for i in range(side):
        for j in range(side):
            out.append(f"node r{i:02d}c{j:02d} " + " ".join(rainbows[j * stripes // side]))
    for i in range(side):
        for j in range(side):
            if j + 1 < side:
                out.append(f"edge r{i:02d}c{j:02d} r{i:02d}c{j + 1:02d}")
            if i + 1 < side:
                out.append(f"edge r{i:02d}c{j:02d} r{i + 1:02d}c{j:02d}")
    base = [g.gammavariate(1.0, 1.0) + 1e-3 for _ in colors]
    for perm in rainbows:
        row = [b * math.exp(g.uniform(-spread, spread)) for b in base]
        total = sum(row)
        out.append("boundary " + ",".join(perm) + " " + " ".join(repr(x / total) for x in row))
    return "\n".join(out) + "\n"


def tailed_grid_text() -> str:
    """striped_grid_text(90, 4, 5, seed=90, spread=0.02) plus a 300-node
    path in the rainbow of r45c10, hung on that mid-depth node. The tail
    outlasts the grid's wide levels, so the boundary search expands its
    first levels on arrays and hands the last ones to its queue."""
    text = striped_grid_text(90, 4, 5, seed=90, spread=0.02)
    rainbow = next(line for line in text.splitlines() if line.startswith("node r45c10 "))[12:]
    tail = [f"t{i:03d}" for i in range(300)]
    lines = [f"node {t} {rainbow}" for t in tail]
    lines += [f"edge {a} {b}" for a, b in zip(["r45c10", *tail], tail)]
    return text + "\n".join(lines) + "\n"
