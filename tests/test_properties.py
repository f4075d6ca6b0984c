"""Property tests: the closed form of the operator's trajectory equals
the iterated operator at every integer step, over random distributions
and budgets, down to eps = 1e-4 over ten thousand steps; one operator
step stays close to its input and dominates it; a graph file survives
emit then parse, and neither its parse nor the optimal mechanism built
from it depends on the order of the lines after `colors`."""

from hypothesis import given, settings
from hypothesis import strategies as st

import rainbowdp as r
from helpers import random_budget, random_homogeneous_bc, random_solvable_graph, rng
from rainbowdp.cli.graphfile import GraphFile, emit_graph_file, parse_graph_file
from rainbowdp.cli.tables import mechanism_csv

TOL = 1e-9

# Exact zeros give prefixes that never grow at delta = 0 (tau = inf);
# entries below 1e-8 take the log-space growth branch.
weights = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-12, 1.0)), min_size=2, max_size=6
).filter(lambda w: sum(w) > 0.0)
simplex = weights.map(lambda w: r.SimplexVector(tuple(x / sum(w) for x in w)))
budgets = st.builds(
    r.PrivacyBudget,
    st.one_of(st.just(0.0), st.floats(1e-4, 3.0)),
    st.one_of(st.just(0.0), st.floats(0.0, 0.2)),
)


def _gap_to_iteration(m: r.SimplexVector, budget: r.PrivacyBudget, steps: int) -> float:
    s = r.prefix_sums(m)
    worst = 0.0
    for t in range(steps + 1):
        cf = r.closed_form_prefix(m, budget, t)
        worst = max(worst, max(abs(a - b) for a, b in zip(cf, s)))
        s = r.t_step_prefixes(s, budget)
    return worst


@settings(max_examples=150, deadline=None, derandomize=True)
@given(simplex, budgets, st.integers(0, 80))
def test_closed_form_equals_iteration(m, budget, steps):
    assert _gap_to_iteration(m, budget, steps) <= TOL


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    simplex,
    st.one_of(st.just(0.0), st.floats(1e-9, 1e-4)),
    st.integers(0, 10_000),
)
def test_closed_form_equals_iteration_at_tiny_epsilon(m, delta, steps):
    assert _gap_to_iteration(m, r.PrivacyBudget(1e-4, delta), steps) <= TOL


@settings(max_examples=150, deadline=None, derandomize=True)
@given(simplex, budgets)
def test_t_step_is_close_to_its_input_and_dominates_it(p, budget):
    stepped = r.t_step(p, budget)
    assert r.is_close(stepped, p, budget)
    assert r.dominates(stepped, p)


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
