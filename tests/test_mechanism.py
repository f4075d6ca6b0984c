import math
from functools import cached_property

import numpy as np
import pytest

import rainbowdp as r
from rainbowdp.cli.tables import mechanism_csv, parse_mechanism_csv
from rainbowdp.mechanism import _prefix_curve, _t_step_prefix_rows
from helpers import (
    boundary_line_mechanisms,
    boundary_map,
    mechanism_of,
    path5_bc,
    path5_graph,
    pullback,
    random_budget,
    random_dense_graph,
    random_homogeneous_bc,
    random_simplex,
    random_solvable_graph,
    rng,
    sv,
    utility_eval_reference,
)

LOG2 = math.log(2.0)


def test_t_step_zero_budget_is_identity():
    p = sv(0.3, 0.2, 0.5)
    assert r.t_step(p, r.PrivacyBudget(0.0, 0.0)) is p


def test_t_step_hand_checked_values():
    p = sv(0.1, 0.2, 0.7)
    # s=(0.1,0.3,1) -> s'=(0.2,0.6,1)
    assert r.t_step(p, r.PrivacyBudget(LOG2, 0.0)).p == pytest.approx((0.2, 0.4, 0.4), abs=1e-15)
    # with delta: s'=(0.3,0.7,1)
    assert r.t_step(p, r.PrivacyBudget(LOG2, 0.1)).p == pytest.approx((0.3, 0.4, 0.3), abs=1e-15)


def test_t_step_fixes_zero_prefixes_at_delta_zero():
    out = r.t_step(sv(0.0, 0.0, 1.0), r.PrivacyBudget(LOG2, 0.0))
    assert out.p == (0.0, 0.0, 1.0)


def test_t_step_output_is_valid_close_and_progresses():
    g = rng(30)
    for _ in range(300):
        q = int(g.integers(2, 9))
        p = random_simplex(g, q, zero_rate=0.15)
        budget = random_budget(g)
        out = r.t_step(p, budget)
        s = r.prefix_sums(out)
        assert all(s[i] <= s[i + 1] + 1e-15 for i in range(q - 1))
        assert abs(s[-1] - 1.0) <= 1e-12
        assert r.is_close(p, out, budget)
        assert r.dominates(out, p)


def test_t_step_preserves_dominance_order():
    g = rng(31)
    for _ in range(300):
        q = int(g.integers(2, 9))
        lo = random_simplex(g, q)
        vals = list(lo.p)
        for _ in range(int(g.integers(1, 4))):
            j = int(g.integers(1, q))
            i = int(g.integers(0, j))
            amount = vals[j] * float(g.random())
            vals[j] -= amount
            vals[i] += amount
        hi = r.SimplexVector(tuple(vals))
        assert r.dominates(hi, lo)
        budget = random_budget(g)
        assert r.dominates(r.t_step(hi, budget), r.t_step(lo, budget))


FIG_BOUNDARY = sv(0.0005, 0.0081, 0.1364, 0.2727, 0.5822)
LOG12 = math.log(1.2)


def test_tau_profile_published_values():
    assert r.tau_profile(FIG_BOUNDARY, r.PrivacyBudget(LOG12, 0.0))[1] == (38, 22, 7, 1, 0)
    assert r.tau_profile(FIG_BOUNDARY, r.PrivacyBudget(LOG12, 1e-3))[1] == (25, 20, 7, 1, 0)
    assert r.tau_profile(FIG_BOUNDARY, r.PrivacyBudget(LOG12, 0.01))[1] == (13, 12, 6, 1, 0)


def test_tau_profile_rho():
    rho, _ = r.tau_profile(FIG_BOUNDARY, r.PrivacyBudget(LOG12, 1e-3))
    assert rho == pytest.approx(1e-3 / 0.2, rel=1e-12)


def test_tau_zero_when_prefix_large():
    g = rng(32)
    for _ in range(100):
        q = int(g.integers(2, 7))
        p = random_simplex(g, q)
        budget = random_budget(g, zero_delta_rate=0.5)
        threshold = 1.0 / (budget.exp_epsilon + 1.0)
        _, tau = r.tau_profile(p, budget)
        s = r.prefix_sums(p)
        for sk, tk in zip(s, tau):
            if sk >= threshold:
                assert tk == 0
        assert all(a >= b for a, b in zip(tau, tau[1:]))  # nonincreasing in k
        assert tau[-1] == 0


def test_tau_profile_epsilon_zero_raises():
    with pytest.raises(ValueError, match="undefined at epsilon = 0"):
        r.tau_profile(sv(0.5, 0.5), r.PrivacyBudget(0.0, 0.1))


def test_tau_infinite_sentinel():
    rho, tau = r.tau_profile(sv(0.0, 0.2, 0.8), r.PrivacyBudget(LOG2, 0.0))
    assert rho == 0.0
    assert tau[0] == math.inf
    # s_2 = 0.2: floor(-log(0.6)/log 2 + 1) = floor(1.737) = 1
    assert tau[1:] == (1, 0)
    # With delta > 0 every prefix transitions eventually.
    _, tau2 = r.tau_profile(sv(0.0, 0.5, 0.5), r.PrivacyBudget(LOG2, 0.01))
    assert not any(math.isinf(v) for v in tau2)


def test_tau_unified_formula_matches_delta_zero_form():
    g = rng(33)
    for _ in range(200):
        q = int(g.integers(2, 9))
        p = random_simplex(g, q, zero_rate=0.2)
        eps = float(g.uniform(0.01, 2.5))
        budget = r.PrivacyBudget(eps, 0.0)
        _, tau = r.tau_profile(p, budget)
        e = budget.exp_epsilon
        for sk, tk in zip(r.prefix_sums(p), tau):
            if sk == 0.0:
                assert math.isinf(tk)
            else:
                direct = math.floor(max(-math.log(sk * (e + 1.0)) / eps + 1.0, 0.0))
                assert tk == direct


def test_closed_form_at_zero_and_limit():
    p = sv(0.5, 0.5)
    budget = r.PrivacyBudget(LOG2, 0.0)
    assert r.closed_form_prefix(p, budget, 0) == r.prefix_sums(p)
    far = r.closed_form_prefix(p, budget, 200)
    assert far == pytest.approx((1.0, 1.0), abs=1e-12)


def test_closed_form_epsilon_zero():
    # Pure-delta recurrence: s advances by delta each step, capped at 1.
    budget = r.PrivacyBudget(0.0, 0.1)
    s = r.closed_form_prefix(sv(0.0, 0.0, 1.0), budget, 3)
    assert s == pytest.approx((0.3, 0.3, 1.0), abs=1e-12)
    cur = sv(0.0, 0.0, 1.0)
    for _ in range(3):
        cur = r.t_step(cur, budget)
    assert r.prefix_sums(cur) == pytest.approx(s, abs=1e-12)


def test_closed_form_matches_iteration():
    g = rng(34)
    for trial in range(60):
        q = int(g.integers(2, 9))
        p = random_simplex(g, q, zero_rate=0.2 if trial % 3 == 0 else 0.0)
        if trial % 10 == 0:
            budget = r.PrivacyBudget(0.0, float(g.uniform(0, 0.2)))
        else:
            budget = random_budget(g)
        curve = _prefix_curve(p, budget, np.arange(41))
        s = np.array([r.prefix_sums(p)])
        for cf in curve:
            assert np.abs(cf - s[0]).max() <= 1e-12
            s = _t_step_prefix_rows(s, budget)


def test_closed_form_fractional_t_is_monotone():
    g = rng(35)
    for _ in range(50):
        q = int(g.integers(2, 7))
        p = random_simplex(g, q)
        budget = random_budget(g)
        prev = None
        for i in range(0, 61):
            t = i / 4
            s = r.closed_form_prefix(p, budget, t)
            assert all(s[k] <= s[k + 1] + 1e-12 for k in range(q - 1))
            assert abs(s[-1] - 1.0) <= 1e-9
            if prev is not None:
                assert all(a <= b + 1e-12 for a, b in zip(prev, s))
            prev = s


def test_line_mechanism_single_node():
    m = sv(0.1, 0.2, 0.7)
    mech = r.line_mechanism(m, r.PrivacyBudget(LOG2, 0.0), 0)
    assert mech.assignment == {"0": m}


def test_line_mechanism_hand_checked():
    m = sv(0.1, 0.2, 0.7)
    mech = r.line_mechanism(m, r.PrivacyBudget(LOG2, 0.0), 2)
    assert mech.assignment["0"].p == m.p
    assert mech.assignment["1"].p == pytest.approx((0.2, 0.4, 0.4), abs=1e-12)
    # step 2: s=(0.2,0.6,1) -> s'=(0.4, min(1.2, 1-0.2)=0.8, 1)
    assert mech.assignment["2"].p == pytest.approx((0.4, 0.4, 0.2), abs=1e-12)


def test_line_mechanism_consecutive_nodes_are_close():
    g = rng(36)
    for _ in range(40):
        q = int(g.integers(2, 7))
        m = random_simplex(g, q, zero_rate=0.15)
        budget = random_budget(g)
        n = int(g.integers(1, 31))
        mech = r.line_mechanism(m, budget, n)
        # The path 0..n, every node with the rainbow of preference order.
        nodes = tuple(str(i) for i in range(n + 1))
        edges = frozenset((str(i), str(i + 1)) for i in range(n))
        rainbow = r.Rainbow(tuple(range(q)))
        line = r.RainbowGraph(nodes, edges, {d: rainbow for d in nodes}, mech.color_space)
        assert r.verify_dp(line, mech, budget).valid


def test_line_mechanism_closed_form_matches_iteration():
    # Each node's closed-form power is one operator step from the
    # previous node's, and the whole line stays within the same
    # tolerance of the iterated operator started at the boundary.
    g = rng(37)
    budgets = [r.PrivacyBudget(1e-4, 1e-7), r.PrivacyBudget(0.0, 1e-4)]
    budgets += [random_budget(g) for _ in range(6)]
    for budget, n in zip(budgets, (2000, 2000, 2000, 500, 200, 50, 10, 1)):
        q = int(g.integers(2, 7))
        m = random_simplex(g, q, zero_rate=0.15)
        mech = r.line_mechanism(m, budget, n)
        iterated = m
        for i in range(1, n + 1):
            cur = mech.assignment[str(i)]
            stepped = r.t_step(mech.assignment[str(i - 1)], budget)
            assert max(abs(a - b) for a, b in zip(cur, stepped)) <= 1e-9, (budget, i)
            iterated = r.t_step(iterated, budget)
            assert max(abs(a - b) for a, b in zip(cur, iterated)) <= 1e-9, (budget, i)


def test_validate_boundary_condition():
    graph = path5_graph()
    b = graph.preference["n0"]
    red = graph.preference["n3"]
    budget = r.PrivacyBudget(LOG2, 0.0)

    same = r.BoundaryCondition({b: sv(0.3, 0.3, 0.4), red: sv(0.3, 0.3, 0.4)})
    assert r.validate_boundary_condition(graph, same, budget) == ()

    paper_pair = path5_bc()
    assert r.validate_boundary_condition(graph, paper_pair, budget) == ()

    bad = r.BoundaryCondition({b: sv(0.4, 0.2, 0.4), red: sv(0.7, 0.05, 0.25)})
    assert r.validate_boundary_condition(graph, bad, budget) == ((b, red),)


def test_validate_boundary_condition_missing_rainbow():
    graph = path5_graph()
    b = graph.preference["n0"]
    budget = r.PrivacyBudget(LOG2, 0.0)
    with pytest.raises(r.MissingRainbow) as exc:
        r.validate_boundary_condition(
            graph, r.BoundaryCondition({b: sv(0.3, 0.3, 0.4)}), budget
        )
    assert graph.preference["n3"] in exc.value.rainbows


def test_mechanism_checks_the_shape_of_its_rows():
    space = r.ColorSpace(("1", "2", "3"))
    for rows in (np.full((2, 2), 0.5), np.full(3, 1 / 3)):
        with pytest.raises(ValueError, match=r"^expected rows of 3 entries, got shape \((2, 2|3,)\)$"):
            r.Mechanism(rows, [0, 1], ("a", "b"), space)
    empty = r.Mechanism(np.empty((0, 3)), [], (), space)
    assert len(empty.rows) == 0 and len(empty.node_rows) == 0
    # The arrays are read-only; the caller's stay writable.
    rows, node_rows = np.array([[0.5, 0.3, 0.2]]), np.array([0, 0])
    mech = r.Mechanism(rows, node_rows, ("a", "b"), space)
    assert not mech.rows.flags.writeable and rows.flags.writeable
    assert not mech.node_rows.flags.writeable and node_rows.flags.writeable
    assert mech.node_rows.dtype == np.intp
    assert mech.assignment["a"] is mech.assignment["b"]


def test_mechanism_rejects_a_short_or_out_of_range_node_rows():
    space = r.ColorSpace(("1", "2"))
    rows = np.full((2, 2), 0.5)
    for node_rows in ([0], [0, 1, 1], [[0, 1]]):
        with pytest.raises(ValueError, match=r"^expected 2 row ids, one per node, got shape "):
            r.Mechanism(rows, node_rows, ("a", "b"), space)
    for node_rows in ([0, 2], [-1, 0]):
        with pytest.raises(ValueError, match=r"^row ids must lie in \[0, 2\)$"):
            r.Mechanism(rows, node_rows, ("a", "b"), space)
    with pytest.raises(ValueError, match=r"^row ids must lie in \[0, 0\)$"):
        r.Mechanism(np.empty((0, 2)), [0], ("a",), space)


def test_optimal_mechanism_all_boundary_graph_returns_bc_verbatim():
    # Two adjacent single-node regions: both nodes are boundary, so the
    # mechanism is the boundary condition itself, bit for bit.
    space = r.ColorSpace(("1", "2", "3"))
    c1 = r.Rainbow((0, 1, 2))
    c2 = r.Rainbow((2, 1, 0))
    graph = r.RainbowGraph(("a", "b"), frozenset((("a", "b"),)), {"a": c1, "b": c2}, space)
    va, vb = sv(0.5, 0.3, 0.2), sv(0.4, 0.3, 0.3)
    mech = r.optimal_mechanism(
        graph, r.BoundaryCondition({c1: va, c2: vb}), r.PrivacyBudget(LOG2, 0.0)
    )
    assert [x.hex() for x in mech.assignment["a"].p] == [x.hex() for x in va.p]
    assert [x.hex() for x in mech.assignment["b"].p] == [x.hex() for x in vb.p]


def test_optimal_mechanism_homogenized_pentagon():
    graph, mech = r.homogenized_pentagon()
    budget = r.PrivacyBudget(LOG2, 0.0)
    assert mech.assignment["d2"].p == pytest.approx((0.7, 0.05, 0.25), abs=1e-12)
    assert mech.assignment["d3"].p == pytest.approx((0.7, 0.05, 0.25), abs=1e-12)
    assert r.verify_dp(graph, mech, budget).valid
    assert r.is_boundary_homogeneous(graph, mech)


# Until item 2 lands, `build` exits 2 on fixtures/path5.graph at each of these budgets.
@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: at large epsilon the operator's powers miss the budget")
@pytest.mark.parametrize(
    "epsilon,delta",
    [(12, 0.0), (15, 0.0), (20, 0.0), (30, 0.0), (50, 0.0), (10, 0.01), (12, 0.01), (15, 0.01), (50, 0.01)],
)
def test_path5_optimum_is_valid_at_large_epsilon(epsilon, delta):
    graph = path5_graph()
    budget = r.PrivacyBudget(epsilon, delta)
    assert r.verify_dp(graph, r.optimal_mechanism(graph, path5_bc(), budget), budget).valid


def test_optimal_mechanism_rejects_invalid_boundary():
    graph = path5_graph()
    b = graph.preference["n0"]
    red = graph.preference["n3"]
    bad = r.BoundaryCondition({b: sv(0.4, 0.2, 0.4), red: sv(0.7, 0.05, 0.25)})
    with pytest.raises(r.InvalidBoundary) as exc:
        r.optimal_mechanism(graph, bad, r.PrivacyBudget(LOG2, 0.0))
    assert exc.value.violations == ((b, red),)


def test_optimal_mechanism_unconstrained_region_propagates():
    space = r.ColorSpace(("1", "2"))
    c = r.Rainbow((0, 1))
    graph = r.RainbowGraph(("a", "b"), frozenset((("a", "b"),)), {"a": c, "b": c}, space)
    bc = r.BoundaryCondition({c: sv(0.5, 0.5)})
    with pytest.raises(r.UnconstrainedRegion):
        r.optimal_mechanism(graph, bc, r.PrivacyBudget(LOG2, 0.0))


def test_optimal_mechanism_permutation_equivariance():
    g = rng(37)
    for _ in range(20):
        graph = random_solvable_graph(g, max_nodes=15)
        budget = random_budget(g, delta_range=(0.0, 0.1))
        bc = random_homogeneous_bc(g, graph, budget)
        mech = r.optimal_mechanism(graph, bc, budget)

        q = graph.color_space.q
        pi = [int(i) for i in g.permutation(q)]
        inv = [0] * q
        for new_idx, old_idx in enumerate(pi):
            inv[old_idx] = new_idx
        new_space = r.ColorSpace(tuple(graph.color_space.colors[i] for i in pi))
        relabel = {
            c: r.Rainbow(tuple(inv[i] for i in c.order)) for c in graph.rainbows()
        }
        new_graph = r.RainbowGraph(
            graph.nodes,
            graph.edges,
            {d: relabel[c] for d, c in graph.preference.items()},
            new_space,
        )
        new_bc = r.BoundaryCondition(
            {
                relabel[c]: r.SimplexVector(tuple(vec.p[i] for i in pi))
                for c, vec in bc.values.items()
            }
        )
        new_mech = r.optimal_mechanism(new_graph, new_bc, budget)
        for d in graph.nodes:
            old = mech.assignment[d]
            new = new_mech.assignment[d]
            for new_idx, old_idx in enumerate(pi):
                assert new.p[new_idx] == pytest.approx(old.p[old_idx], abs=1e-12)


def test_verify_dp_examples():
    graph = r.pentagon_graph()
    budget = r.PrivacyBudget(LOG2, 0.0)
    constant = mechanism_of(graph, dict.fromkeys(graph.nodes, sv(0.3, 0.3, 0.4)))
    assert r.verify_dp(graph, constant, r.PrivacyBudget(0.0, 0.0)).valid

    _, (mech1, _, mech3), (report1, _, report3) = r.no_optimal_demo(budget)
    assert r.verify_dp(graph, mech1, budget).valid
    bad = r.verify_dp(graph, mech3, budget)
    assert bad == report3 and report1.valid
    assert not bad.valid
    assert [v.edge for v in bad.violations] == [("d2", "d3")]
    assert bad.violations[0].direction == ("d2", "d3")


def test_readers_reject_a_mechanism_on_other_nodes():
    # The same rows on the nodes in another order, on a renamed node and on
    # one node fewer: each reader of a whole graph refuses them.
    graph = path5_graph()
    mech = r.optimal_mechanism(graph, path5_bc(), r.PrivacyBudget(LOG2, 0.0))
    nodes = graph.nodes
    weights = dict.fromkeys(nodes, (1.0, 0.0, 0.0))
    for other in (nodes[::-1], ("m0", *nodes[1:]), nodes[:-1]):
        moved = r.Mechanism(mech.rows, mech.node_rows[:len(other)], other, graph.color_space)
        for check in (
            lambda: r.verify_dp(graph, moved, r.PrivacyBudget(LOG2, 0.0)),
            lambda: r.is_boundary_homogeneous(graph, moved),
            lambda: r.utility_eval(graph, moved, weights),
            lambda: r.mechanism_dominates(graph, mech, moved),
            lambda: mechanism_csv(graph, moved),
        ):
            with pytest.raises(ValueError, match=r"^mechanism is not on the graph's nodes$"):
                check()
    # An equal tuple of names is accepted, not only graph.nodes itself.
    same = r.Mechanism(mech.rows, mech.node_rows, list(nodes), graph.color_space)
    assert same.nodes is not nodes
    assert r.verify_dp(graph, same, r.PrivacyBudget(LOG2, 0.0)).valid
    assert mechanism_csv(graph, same) == mechanism_csv(graph, mech)


def test_is_boundary_homogeneous():
    graph = r.pentagon_graph()
    constant = mechanism_of(graph, dict.fromkeys(graph.nodes, sv(0.3, 0.3, 0.4)))
    assert r.is_boundary_homogeneous(graph, constant)
    _, (mech1, _, _), _ = r.no_optimal_demo()
    assert not r.is_boundary_homogeneous(graph, mech1)

    g = rng(38)
    for _ in range(15):
        rand_graph = random_solvable_graph(g, max_nodes=15)
        budget = random_budget(g, delta_range=(0.0, 0.1))
        bc = random_homogeneous_bc(g, rand_graph, budget)
        mech = r.optimal_mechanism(rand_graph, bc, budget)
        assert r.is_boundary_homogeneous(rand_graph, mech)


def test_is_boundary_homogeneous_reads_rows_not_assignment():
    # The check compares rows of mech.rows; it builds no SimplexVector view.
    graph = r.pentagon_graph()
    demo = r.no_optimal_demo()[1][0]
    mech1 = r.Mechanism(demo.rows, demo.node_rows, graph.nodes, graph.color_space)
    assert not r.is_boundary_homogeneous(graph, mech1)
    assert "assignment" not in vars(mech1)
    g = rng(39)
    for _ in range(5):
        rand_graph = random_solvable_graph(g, max_nodes=30)
        budget = random_budget(g)
        mech = r.optimal_mechanism(rand_graph, random_homogeneous_bc(g, rand_graph, budget), budget)
        assert r.is_boundary_homogeneous(rand_graph, mech)
        assert "assignment" not in vars(mech)


def test_utility_eval_constant_and_indicator():
    graph = path5_graph()
    g = rng(39)
    budget = r.PrivacyBudget(LOG2, 0.05)
    mech = r.optimal_mechanism(graph, path5_bc(), budget)
    n = len(graph.nodes)
    const = {d: (2.5, 2.5, 2.5) for d in graph.nodes}
    assert r.utility_eval(graph, mech, const) == pytest.approx(2.5 * n, abs=1e-9)
    indicator = {d: (1.0, 0.0, 0.0) for d in graph.nodes}
    top_mass = sum(
        mech.assignment[d].p[graph.preference[d].order[0]] for d in graph.nodes
    )
    assert r.utility_eval(graph, mech, indicator) == pytest.approx(top_mass, abs=1e-12)


def test_utility_eval_rejects_non_monotone_weights():
    graph = path5_graph()
    mech = r.optimal_mechanism(graph, path5_bc(), r.PrivacyBudget(LOG2, 0.0))
    weights = {d: (1.0, 0.0, 0.5) for d in graph.nodes}
    with pytest.raises(ValueError):
        r.utility_eval(graph, mech, weights)


def test_dominating_mechanism_has_higher_utility():
    g = rng(40)
    for _ in range(50):
        graph = random_solvable_graph(g, max_nodes=10)
        q = graph.color_space.q
        low = {}
        high = {}
        for d in graph.nodes:
            c = graph.preference[d]
            base = r.to_preference_order(random_simplex(g, q), c)
            vals = list(base.p)
            j = int(g.integers(1, q))
            i = int(g.integers(0, j))
            amount = vals[j] * float(g.random())
            vals[j] -= amount
            vals[i] += amount
            # Canonical color i has preference-order entry rank[i].
            rank = [c.order.index(i) for i in range(q)]
            low[d] = r.SimplexVector(tuple(base.p[k] for k in rank))
            high[d] = r.SimplexVector(tuple(vals[k] for k in rank))
        mech_low = mechanism_of(graph, low)
        mech_high = mechanism_of(graph, high)
        assert r.mechanism_dominates(graph, mech_high, mech_low)
        weights = {
            d: tuple(sorted((float(g.random()) for _ in range(q)), reverse=True))
            for d in graph.nodes
        }
        u_high = r.utility_eval(graph, mech_high, weights)
        u_low = r.utility_eval(graph, mech_low, weights)
        assert u_high >= u_low - 1e-9
        # Both read mech.rows; neither builds the SimplexVector view.
        assert "assignment" not in vars(mech_high) and "assignment" not in vars(mech_low)
        # Plain left-to-right float additions give the same bits.
        for mech, u in ((mech_high, u_high), (mech_low, u_low)):
            assert u.hex() == utility_eval_reference(graph, mech, weights).hex()
        assert r.mechanism_dominates(graph, mech_low, mech_high) == all(
            r.dominates(
                r.to_preference_order(mech_low.assignment[d], graph.preference[d]),
                r.to_preference_order(mech_high.assignment[d], graph.preference[d]),
            )
            for d in graph.nodes
        )


def test_mechanism_dominates_compares_rows_as_stored():
    # Both rows pass the mechanism parser's 1e-9 sum window. a's first
    # prefix falls about 4.7e-11 short of b's, so a does not dominate b;
    # renormalizing a first (its sum is 1 - 1.97e-10) would hide that.
    space = r.ColorSpace(("1", "2", "3"))
    c = r.Rainbow((0, 1, 2))
    graph = r.RainbowGraph(("n0", "n1"), {("n0", "n1")}, {"n0": c, "n1": c}, space)

    def parsed(row):
        cells = ",".join(map(repr, row))
        return parse_mechanism_csv(f"node,1,2,3\nn0,{cells}\nn1,{cells}\n", graph)

    a = parsed((0.5 + 3e-12, 0.5 - 2e-10, 0.0))
    b = parsed((0.5 + 5e-11, 0.5 - 5e-11, 0.0))
    assert not r.mechanism_dominates(graph, a, b)
    assert r.mechanism_dominates(graph, b, a)


def test_optimal_dominates_smaller_budget_competitors_small():
    g = rng(41)
    for _ in range(10):
        graph = random_solvable_graph(g, max_nodes=15)
        budget = r.PrivacyBudget(float(g.uniform(0.2, 1.5)), float(g.uniform(0.01, 0.1)))
        bc = random_homogeneous_bc(g, graph, budget)
        best = r.optimal_mechanism(graph, bc, budget)
        for eps2, delta2 in ((0.0, 0.0), (budget.epsilon / 2, budget.delta / 2)):
            smaller = r.PrivacyBudget(eps2, delta2)
            line_mech, bg = boundary_line_mechanisms(graph, bc, smaller)
            competitor = pullback(line_mech, graph, boundary_map(graph, bg))
            assert r.verify_dp(graph, competitor, budget).valid
            assert r.mechanism_dominates(graph, best, competitor)


def test_optimal_mechanism_shares_one_vector_per_rainbow_distance():
    # Each node's row is its (rainbow, distance) row of the stacked
    # chains, and row 0 of every chain is the boundary vector bit for bit.
    g = rng(46)
    graphs = [path5_graph()] + [random_solvable_graph(g, max_nodes=40) for _ in range(10)]
    graphs += [random_dense_graph(g) for _ in range(3)]
    for graph in graphs:
        budget = random_budget(g)
        bc = random_homogeneous_bc(g, graph, budget)
        mech = r.optimal_mechanism(graph, bc, budget)
        dist = r.boundary_distances(graph, r.decompose_regions(graph))
        by_pair: dict = {}
        for d, row in zip(graph.nodes, mech.node_rows.tolist()):
            by_pair.setdefault((graph.preference[d], dist[d]), set()).add(row)
        assert all(len(rows) == 1 for rows in by_pair.values())
        assert len(mech.rows) == len(by_pair)
        assert len({id(v) for v in mech.assignment.values()}) == len(by_pair)
        for (c, i), (row,) in by_pair.items():
            if i == 0:
                assert [x.hex() for x in mech.rows[row].tolist()] == [x.hex() for x in bc.values[c].p]


def _count_searches(monkeypatch) -> dict[str, int]:
    # Counts runs of the bodies of RainbowGraph.rim, .adjacent_pairs and .search.
    calls = {"rim": 0, "pairs": 0, "bfs": 0}

    def counted(name, key):
        func = getattr(r.RainbowGraph, name).func

        def run(self):
            calls[key] += 1
            return func(self)

        prop = cached_property(run)
        prop.__set_name__(r.RainbowGraph, name)
        monkeypatch.setattr(r.RainbowGraph, name, prop)

    counted("rim", "rim")
    counted("adjacent_pairs", "pairs")
    counted("search", "bfs")
    return calls


def test_build_sequence_runs_region_and_bfs_passes_once(monkeypatch):
    calls = _count_searches(monkeypatch)
    g = rng(47)
    for _ in range(5):
        graph = random_solvable_graph(g, max_nodes=30)
        budget = random_budget(g)
        bc = random_homogeneous_bc(g, graph, budget)
        # A fresh graph object, so its topology has not been computed yet.
        graph = r.RainbowGraph(graph.nodes, graph.edges, graph.preference, graph.color_space)
        calls.update(rim=0, pairs=0, bfs=0)
        assert r.validate_boundary_condition(graph, bc, budget) == ()
        assert calls == {"rim": 1, "pairs": 1, "bfs": 0}
        mech = r.optimal_mechanism(graph, bc, budget)
        assert r.is_boundary_homogeneous(graph, mech)
        # The boundary graph and the distances read the same cached search.
        r.build_boundary_graph(graph)
        r.boundary_distances(graph, r.decompose_regions(graph))
        assert calls == {"rim": 1, "pairs": 1, "bfs": 1}


def test_build_path_constructs_no_region(monkeypatch):
    # build's path (construct, self-check, write) reads the topology on
    # node ids alone: no Region name set is made.
    def no_region(*args):
        raise AssertionError("a Region was constructed")

    monkeypatch.setattr(r.graph, "Region", no_region)
    calls = _count_searches(monkeypatch)
    g = rng(49)
    for _ in range(5):
        graph = random_solvable_graph(g, max_nodes=30)
        budget = random_budget(g)
        bc = random_homogeneous_bc(g, graph, budget)
        graph = r.RainbowGraph.from_ids(
            graph.nodes, graph.rainbow_ids, graph.rainbows(), graph.edge_ends, graph.color_space
        )
        calls.update(rim=0, pairs=0, bfs=0)
        mech = r.optimal_mechanism(graph, bc, budget)
        assert r.verify_dp(graph, mech, budget).valid
        mechanism_csv(graph, mech)
        assert calls == {"rim": 1, "pairs": 1, "bfs": 1}
    with pytest.raises(AssertionError, match="a Region was constructed"):
        r.decompose_regions(graph)


def test_optimal_mechanism_finds_each_tau_once_per_rainbow(monkeypatch):
    # One closed-form curve per rainbow with nodes off its boundary: each
    # prefix's crossing step is found once, however many distances the
    # rainbow's chain has, and never for a rainbow of depth 0.
    calls = []
    tau = r.mechanism._tau

    def counted_tau(*args):
        calls.append(args)
        return tau(*args)

    monkeypatch.setattr(r.mechanism, "_tau", counted_tau)
    g = rng(48)
    graphs = [path5_graph()] + [random_solvable_graph(g, max_nodes=40) for _ in range(8)]
    deepest = 0
    for graph in graphs:
        budget = random_budget(g)
        bc = random_homogeneous_bc(g, graph, budget)
        calls.clear()
        r.optimal_mechanism(graph, bc, budget)
        regions = r.decompose_regions(graph)
        dist = r.boundary_distances(graph, regions)
        deep = [c for c, region in regions.items() if max(dist[d] for d in region.members) > 0]
        assert len(calls) == len(deep) * graph.color_space.q
        deepest = max(deepest, *dist.values())
    assert deepest >= 2
