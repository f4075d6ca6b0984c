"""Property tests: the closed form of the operator's trajectory equals
the iterated operator at every integer step, over random distributions
and budgets, down to eps = 1e-4 over ten thousand steps and from first
prefixes that grow in log space; each row of a closed-form curve and of
a stack of operator steps is the one that time or row gives asked for
alone; one operator step stays close to its input and dominates it; a
graph file survives emit then parse, and neither its parse nor the
optimal mechanism built from it depends on the order of the lines after
`colors`; the parser's id-built graph is the one the string constructor
makes of the file; the batch SimplexVector normalization, the array pass
of verify_dp and the falsifier's blocks of trials give, bit for bit,
what their one-at-a-time definitions give; and the optimum is locally
tight: moving a little mass of any node off its boundary toward a more
preferred color breaks privacy; renaming the nodes, which reorders
them, gives every node the same optimal row; and the optimal mechanism
passes verify_dp, and so does its CSV parsed back, which equals it bit
for bit."""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import rainbowdp as r
from rainbowdp import oracle
from helpers import (
    assert_same_graph,
    random_budget,
    random_dense_graph,
    random_homogeneous_bc,
    random_simplex,
    random_solvable_graph,
    rng,
    verify_dp_reference,
)
from rainbowdp.core import NEGATIVE_WINDOW, SUM_WINDOW, normalized_rows
from rainbowdp.cli.graphfile import GraphFile, emit_graph_file, parse_graph_file
from rainbowdp.cli.tables import mechanism_csv, parse_mechanism_csv
from rainbowdp.mechanism import _LOG_FORM_THRESHOLD, _prefix_curve, _t_step_prefix_rows, t_step_rows
from rainbowdp.oracle import _drop_delta_rows, _falsify, _fuzz

TOL = 1e-9


def _normalized(w) -> r.SimplexVector:
    return r.SimplexVector(tuple(x / sum(w) for x in w))


# Exact zeros give prefixes that never grow at delta = 0 (tau = inf).
weights = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-12, 1.0)), min_size=2, max_size=6
).filter(lambda w: sum(w) > 0.0)
simplex = weights.map(_normalized)
# A first prefix s0 below 1e-8 grows in log space while s0 + rho is
# below 1e-8 too, which takes delta = 0 or nearly so.
tiny_first = st.builds(
    lambda x, w: _normalized([x * sum(w), *w]), st.floats(1e-14, 1e-9), weights
)
simplices = st.one_of(simplex, tiny_first)
budgets = st.builds(
    r.PrivacyBudget,
    st.one_of(st.just(0.0), st.floats(1e-4, 3.0)),
    st.one_of(st.just(0.0), st.floats(0.0, 0.2)),
)


def _gap_to_iteration(m: r.SimplexVector, budget: r.PrivacyBudget, steps: int) -> float:
    # The closed form at t = 0..steps, against the operator iterated on
    # the prefix sums one step at a time.
    curve = _prefix_curve(m, budget, np.arange(steps + 1))
    s = np.array([r.prefix_sums(m)])
    worst = 0.0
    for cf in curve:
        worst = max(worst, float(np.abs(cf - s[0]).max()))
        s = _t_step_prefix_rows(s, budget)
    return worst


@settings(max_examples=150, deadline=None, derandomize=True)
@given(simplices, budgets, st.integers(0, 80))
def test_closed_form_equals_iteration(m, budget, steps):
    assert _gap_to_iteration(m, budget, steps) <= TOL


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tiny_first, st.floats(0.05, 3.0))
def test_closed_form_equals_iteration_from_a_tiny_prefix(m, epsilon):
    # The first prefix grows in log space up to its crossing step, where
    # it has reached about 1/(e^eps + 1); the steps run a little past it.
    budget = r.PrivacyBudget(epsilon, 0.0)
    assert 0.0 < m.p[0] < _LOG_FORM_THRESHOLD
    steps = int(r.tau_profile(m, budget).tau[0]) + 3
    assert _gap_to_iteration(m, budget, steps) <= TOL


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    simplices,
    st.one_of(st.just(0.0), st.floats(1e-9, 1e-4)),
    st.integers(0, 10_000),
)
def test_closed_form_equals_iteration_at_tiny_epsilon(m, delta, steps):
    assert _gap_to_iteration(m, r.PrivacyBudget(1e-4, delta), steps) <= TOL


# e^eps up to 1e4; t at integer and fractional steps, and far past every
# prefix's crossing step.
wide_budgets = st.builds(
    r.PrivacyBudget,
    st.one_of(st.just(0.0), st.floats(1e-4, math.log(1e4))),
    st.one_of(st.just(0.0), st.floats(0.0, 0.2)),
)
times = st.one_of(st.integers(0, 60), st.floats(0.0, 60.0), st.floats(1e6, 1e9))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(simplices, wide_budgets, st.lists(times, min_size=1, max_size=6))
def test_closed_form_prefix_equals_curve_rows(m, budget, ts):
    # A row of a curve does not depend on the other times asked for,
    # which byte-identical chunked builds rest on.
    rows = _prefix_curve(m, budget, ts)
    for t, row in zip(ts, rows.tolist()):
        point = r.closed_form_prefix(m, budget, t)
        assert [x.hex() for x in point] == [x.hex() for x in row], t


@settings(max_examples=150, deadline=None, derandomize=True)
@given(simplex, budgets)
def test_t_step_is_close_to_its_input_and_dominates_it(p, budget):
    stepped = r.t_step(p, budget)
    assert r.is_close(stepped, p, budget)
    assert r.dominates(stepped, p)


def _hexes(rows) -> list[list[str]]:
    return [[x.hex() for x in row] for row in np.asarray(rows).tolist()]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), budgets)
def test_t_step_rows_is_t_step_on_every_row(seed, n, budget):
    # A row of a stack of operator steps does not depend on the other
    # rows, which the falsifier's blocks of trials rest on.
    g = rng(seed)
    q = int(g.integers(2, 13))
    ps = [random_simplex(g, q, zero_rate=0.3) for _ in range(n)]
    rows = np.array([p.p for p in ps])
    assert _hexes(t_step_rows(rows, budget)) == _hexes(r.t_step(p, budget).p for p in ps)


# Budgets at and away from epsilon = 0 and delta = 0, and the tight one
# of the deep-path bench workload.
falsifier_budgets = st.sampled_from([
    r.PrivacyBudget(0.3, 0.01),
    r.PrivacyBudget(math.log(1.2), 1e-3),
    r.PrivacyBudget(1e-4, 1e-7),
    r.PrivacyBudget(0.5, 0.0),
    r.PrivacyBudget(0.0, 0.05),
    r.PrivacyBudget(0.0, 0.0),
    r.PrivacyBudget(2.0, 1.0),
])


def _fuzz_trial_by_trial(q, budget, trials, count, seed, step_rows=None):
    """What `fuzz` did one trial at a time: the first trial whose
    dominance_falsify call finds a counterexample."""
    for i in range(trials):
        p = r.SimplexVector(tuple(rng((seed, i)).dirichlet(np.ones(q))))
        report = r.dominance_falsify(p, budget, count, seed * 1_000_003 + i, step_rows)
        if report.counterexample is not None:
            return i, p, report.counterexample
    return None


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 9),
    st.sampled_from([1, 2, 3, 4, 40]),
    falsifier_budgets,
    st.booleans(),
)
def test_falsifier_block_is_its_one_trial_calls(seed, trials, count, budget, mutant):
    # Exact zeros give the trials different supports at delta = 0.
    g = rng(seed)
    q = int(g.integers(2, 13))
    ps = [random_simplex(g, q, zero_rate=0.3) for _ in range(trials)]
    seeds = [int(s) for s in g.integers(0, 2**40, size=trials)]
    step_rows = _drop_delta_rows if mutant else None
    samples, verdicts, first = _falsify(np.array([p.p for p in ps]), budget, count, seeds, step_rows)
    reports = [r.dominance_falsify(p, budget, count, s, step_rows) for p, s in zip(ps, seeds)]
    for block_rows, p, s in zip(samples, ps, seeds):
        assert block_rows.tobytes() == r.sample_close(p, budget, count, s).rows.tobytes()
    assert verdicts.tolist() == [rep.counterexample is not None for rep in reports]
    hits = [(j, rep.counterexample) for j, rep in enumerate(reports) if rep.counterexample]
    assert first == (hits[0] if hits else None)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(2, 12),
    st.integers(1, 40),
    st.sampled_from([1, 2, 3, 5]),
    st.integers(1, 16),
    falsifier_budgets,
    st.integers(0, 2**20),
    st.booleans(),
)
def test_fuzz_blocks_report_what_the_trial_loop_reports(q, trials, count, block_rows, budget, seed, mutant):
    # Small blocks, so that most runs span several and end in a part block.
    step_rows = _drop_delta_rows if mutant else None
    with mock.patch.object(oracle, "_BLOCK_ROWS", block_rows):
        got = _fuzz(q, budget, trials, count, seed, step_rows)
    assert got == _fuzz_trial_by_trial(q, budget, trials, count, seed, step_rows)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(2, 12),
    st.sampled_from([2, 3, 8]),
    st.integers(1, 24),
    st.integers(0, 30),
    falsifier_budgets.filter(lambda b: b.delta > 0.0),
    st.integers(0, 2**20),
)
def test_fuzz_reports_a_hit_past_the_first_block(q, count, block_rows, late, budget, seed):
    # Only trial `victim`, past the first block, gets an operator that
    # drops delta; sample row 1, the real t_step(p), beats it.
    victim = max(1, block_rows // count) + late
    p_victim = np.array(r.SimplexVector(tuple(rng((seed, victim)).dirichlet(np.ones(q)))).p)

    def corrupt(rows, b):
        hit = (rows == p_victim).all(axis=1)[:, None]
        return np.where(hit, _drop_delta_rows(rows, b), t_step_rows(rows, b))

    with mock.patch.object(oracle, "_BLOCK_ROWS", block_rows):
        got = _fuzz(q, budget, victim + 5, count, seed, corrupt)
    want = _fuzz_trial_by_trial(q, budget, victim + 5, count, seed, corrupt)
    assert want is not None and want[0] == victim
    assert got == want


identifiers = st.text("abcxyz019_.-", min_size=1, max_size=4)


@st.composite
def graph_files(draw) -> GraphFile:
    colors = draw(st.lists(identifiers, min_size=2, max_size=5, unique=True))
    space = r.ColorSpace(tuple(colors))
    nodes = draw(st.lists(identifiers, min_size=1, max_size=12, unique=True))
    orders = st.permutations(range(space.q)).map(lambda o: r.Rainbow(tuple(o)))
    preference = {d: draw(orders) for d in nodes}
    pairs = draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)), max_size=20))
    edges = frozenset((a, b) if a < b else (b, a) for a, b in pairs if a != b)
    graph = r.RainbowGraph(tuple(nodes), edges, preference, space)
    values = {}
    for c in draw(st.lists(st.sampled_from(sorted(set(preference.values()), key=lambda c: c.order)), unique=True)):
        w = draw(st.lists(st.floats(0.0, 1.0), min_size=space.q, max_size=space.q).filter(lambda w: sum(w) > 0.0))
        values[c] = r.SimplexVector(tuple(x / sum(w) for x in w))
    return GraphFile(graph, r.BoundaryCondition(values) if values else None)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graph_files())
def test_parse_inverts_emit(gf):
    again = parse_graph_file(emit_graph_file(gf))
    assert again.graph.nodes == gf.graph.nodes
    assert again.graph.edges == gf.graph.edges
    assert again.graph.preference == gf.graph.preference
    assert again.graph.color_space == gf.graph.color_space
    if gf.boundary is None:
        assert again.boundary is None
        return
    assert again.boundary.values.keys() == gf.boundary.values.keys()
    for c, vec in gf.boundary.values.items():
        assert all(abs(a - b) <= 1e-11 for a, b in zip(again.boundary.values[c], vec))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
def test_parse_and_mechanism_ignore_line_order(seed, shuffler):
    g = rng(seed)
    graph = random_solvable_graph(g)
    budget = random_budget(g)
    text = emit_graph_file(GraphFile(graph, random_homogeneous_bc(g, graph, budget)))
    head, *body = text.splitlines()
    shuffler.shuffle(body)
    gf = parse_graph_file(text)
    shuffled = parse_graph_file("\n".join([head, *body]) + "\n")
    assert shuffled.graph.edges == gf.graph.edges
    assert shuffled.graph.preference == gf.graph.preference
    assert shuffled.boundary.values == gf.boundary.values
    mech = r.optimal_mechanism(gf.graph, gf.boundary, budget)
    mech_shuffled = r.optimal_mechanism(shuffled.graph, shuffled.boundary, budget)
    assert mechanism_csv(shuffled.graph, mech_shuffled) == mechanism_csv(gf.graph, mech)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.randoms(use_true_random=False), st.booleans())
def test_parsed_graph_equals_the_string_constructors_graph(seed, shuffler, dense):
    # The parser builds the graph from node ids; with the lines after
    # `colors` shuffled, so that edges often name nodes before their node
    # lines, endpoints swapped and comments added, it is still the graph
    # the string constructor makes of the file's nodes, in node-line
    # order, and edges, and its edge rows follow the edge lines.
    g = rng(seed)
    if dense:
        graph = random_dense_graph(
            g, n=int(g.integers(10, 40)), extra_edges=int(g.integers(0, 120)),
            n_rainbows=int(g.integers(2, 8)), tail_len=4,
        )
    else:
        graph = random_solvable_graph(g)
    head, *body = emit_graph_file(GraphFile(graph, None)).splitlines()
    shuffler.shuffle(body)
    lines = [head]
    for line in body:
        kind, *names = line.split()
        if kind == "edge" and shuffler.random() < 0.5:
            line = f"edge {names[1]} {names[0]}"
        if shuffler.random() < 0.2:
            lines.append("# a comment line")
        lines.append(line + ("  # and a comment" if shuffler.random() < 0.2 else ""))
    parsed = parse_graph_file("\n".join(lines) + "\n").graph
    nodes = tuple(line.split()[1] for line in body if line.startswith("node "))
    assert_same_graph(parsed, r.RainbowGraph(nodes, graph.edges, graph.preference, graph.color_space))
    in_file = [tuple(sorted(line.split()[1:])) for line in body if line.startswith("edge ")]
    assert [(parsed.nodes[a], parsed.nodes[b]) for a, b in parsed.edge_ends.tolist()] == in_file


# Exact zeros of both signs and float noise below zero that gets clamped.
zeros = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-NEGATIVE_WINDOW, 0.0))
rejected = st.sampled_from([-1e-6, 1.5, float("nan"), float("inf")])


@st.composite
def row_arrays(draw) -> np.ndarray:
    """Rows whose positive entries sum to within SUM_WINDOW / 2 of 1; now
    and then one misses 1 by up to twice SUM_WINDOW, or holds an entry
    the constructor rejects."""
    q = draw(st.integers(2, 6))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = draw(st.lists(st.floats(1e-12, 1.0), min_size=q, max_size=q))
        for k in draw(st.lists(st.integers(0, q - 2), max_size=q - 1)):
            row[k] = draw(zeros)
        off = SUM_WINDOW * (2.0 if draw(st.integers(1, 16)) == 9 else 0.5)
        scale = draw(st.floats(1.0 - off, 1.0 + off)) / sum(x for x in row if x > 0.0)
        row = [x * scale if x > 0.0 else x for x in row]
        if draw(st.integers(1, 32)) == 17:
            row[draw(st.integers(0, q - 1))] = draw(rejected)
        rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(len(rows), q)


def _bits_or_error(build):
    try:
        return [[x.hex() for x in row] for row in build()]
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(row_arrays())
def test_simplex_rows_equal_one_constructor_call_per_row(a):
    batch = _bits_or_error(lambda: normalized_rows(a).tolist())
    assert batch == _bits_or_error(lambda: [r.SimplexVector(tuple(row)).p for row in a])


def _violation_bits(report: r.DpReport):
    return report.valid, [(v.edge, v.direction, v.margin.hex()) for v in report.violations]


def _key_error(check):
    try:
        check()
    except KeyError as exc:
        return str(exc)
    return None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_verify_dp_equals_per_edge_reference(seed):
    g = rng(seed)
    graph = random_solvable_graph(g)
    budget = random_budget(g)
    mech = r.optimal_mechanism(graph, random_homogeneous_bc(g, graph, budget), budget)
    q = graph.color_space.q
    assignment = dict(mech.assignment)
    for d in graph.nodes:
        if g.random() < 0.3:
            # Mixing weights from 1e-14 to 1 put some margins near the tolerance.
            lam = 10.0 ** g.uniform(-14.0, 0.0)
            mixed = (1.0 - lam) * np.array(assignment[d].p) + lam * np.array(random_simplex(g, q).p)
            assignment[d] = r.SimplexVector(tuple(mixed))
    # A node without edges needs no distribution.
    isolated = "zz-isolated"
    graph = r.RainbowGraph(
        graph.nodes + (isolated,),
        graph.edges,
        {**graph.preference, isolated: graph.preference[graph.nodes[0]]},
        graph.color_space,
    )
    perturbed = r.Mechanism(assignment, graph.color_space)
    assert _violation_bits(r.verify_dp(graph, perturbed, budget)) == _violation_bits(
        verify_dp_reference(graph, perturbed, budget)
    )
    for d in g.choice(sorted(graph.nodes[:-1]), size=2, replace=False):
        del assignment[str(d)]
    partial = r.Mechanism(assignment, graph.color_space)
    error = _key_error(lambda: r.verify_dp(graph, partial, budget))
    assert error is not None
    assert error == _key_error(lambda: verify_dp_reference(graph, partial, budget))


ETA = 1e-6


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_optimum_is_locally_tight(seed):
    # The optimum dominates every valid mechanism with its boundary, so
    # a node off the boundary cannot take mass from one color to the
    # color preferred just above it without breaking privacy.
    g = rng(seed)
    graph = random_solvable_graph(g)
    budget = random_budget(g)
    mech = r.optimal_mechanism(graph, random_homogeneous_bc(g, graph, budget), budget)
    dist = r.boundary_distances(graph, r.decompose_regions(graph))
    for d in sorted(graph.nodes):
        if dist[d] == 0:
            continue
        c = graph.preference[d]
        p = list(r.to_preference_order(mech.assignment[d], c).p)
        for k in range(len(p) - 1):
            if p[k + 1] < ETA:
                continue
            moved = p.copy()
            moved[k] += ETA
            moved[k + 1] -= ETA
            vec = r.SimplexVector(tuple(moved[c.order.index(i)] for i in range(len(moved))))
            report = r.verify_dp(graph, r.Mechanism({**mech.assignment, d: vec}, graph.color_space), budget)
            assert not report.valid, (d, k)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_optimal_mechanism_ignores_node_labels(seed, dense):
    g = rng(seed)
    if dense:
        graph = random_dense_graph(
            g, n=int(g.integers(10, 40)), extra_edges=int(g.integers(0, 120)),
            n_rainbows=int(g.integers(2, 8)), tail_len=4,
        )
    else:
        graph = random_solvable_graph(g)
    budget = random_budget(g)
    bc = random_homogeneous_bc(g, graph, budget)
    # New names whose sort order is a random permutation of the old one.
    name = {d: f"x{i:03d}" for d, i in zip(graph.nodes, g.permutation(len(graph.nodes)))}
    renamed = r.RainbowGraph(
        tuple(name[d] for d in graph.nodes),
        frozenset((name[a], name[b]) for a, b in graph.edges),
        {name[d]: c for d, c in graph.preference.items()},
        graph.color_space,
    )
    mech = r.optimal_mechanism(graph, bc, budget)
    moved = r.optimal_mechanism(renamed, bc, budget)
    for d in graph.nodes:
        assert [x.hex() for x in moved.assignment[name[d]].p] == [x.hex() for x in mech.assignment[d].p]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_mechanism_csv_exact_round_trip(seed, dense):
    g = rng(seed)
    if dense:
        graph = random_dense_graph(
            g, n=int(g.integers(10, 40)), extra_edges=int(g.integers(0, 120)),
            n_rainbows=int(g.integers(2, 8)), tail_len=4,
        )
    else:
        graph = random_solvable_graph(g)
    budget = random_budget(g)
    mech = r.optimal_mechanism(graph, random_homogeneous_bc(g, graph, budget), budget)
    assert r.verify_dp(graph, mech, budget).valid
    parsed = parse_mechanism_csv(mechanism_csv(graph, mech), graph.color_space)
    assert parsed.row_of.keys() == set(graph.nodes)
    for d in graph.nodes:
        want = [x.hex() for x in mech.rows[mech.row_of[d]].tolist()]
        assert [x.hex() for x in parsed.rows[parsed.row_of[d]].tolist()] == want
    assert r.verify_dp(graph, parsed, budget).valid
