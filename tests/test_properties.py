"""Property tests: the closed form of the operator's trajectory equals
the iterated operator at every integer step, over random distributions
and budgets, down to eps = 1e-4 over ten thousand steps and from first
prefixes that grow in log space; each row of a closed-form curve and of
a stack of operator steps is the one that time or row gives asked for
alone; one operator step stays close to its input and dominates it; a
graph file survives emit then parse, and neither its parse nor the
optimal mechanism built from it depends on the order of the lines after
`colors`; the parser's id-built graph is the one the string constructor
makes of the file, and the graph or the error it gives is the line
reader's, on emitted files and on hand-written forms and errors; the batch SimplexVector normalization, the array pass
of verify_dp and the dominance check on a stack of rows give, bit for
bit, what their one-at-a-time definitions give (a fuzz block, the
first step miss or dominance_falsify hit of its trials in order),
fuzz's findings do not depend on the number of trials, samples at
delta = 0 keep p's zeros, every mix of witnesses that sample_close
returns is exactly close to p within 1e-15 on a grid of budgets from
e^eps == 1 in floats to eps = 20, and the dominance lemma's witnesses are exactly close to p and attain the
envelope, as its proof says, and within 1e-15 in floats; every
trajectory file plots; and the optimum
is locally tight: moving a little mass of any node off its boundary toward a more
preferred color breaks privacy; renaming the nodes, which reorders
them, gives every node the same optimal row; and the optimal mechanism
passes verify_dp, and so does its CSV parsed back, which equals it bit
for bit. Chunk edges change no optimal row and no verify_dp violation;
utility_eval adds as plain left-to-right floats do; and away from the
tolerance band around delta, the shared closeness kernel gives the
verdict of exact rational arithmetic through each of its callers, and
inside it every closeness check gives the kernel's verdict."""

import math
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rainbowdp as r
from rainbowdp import mechanism, oracle
from helpers import (
    assert_same_graph,
    block_draws,
    boundary_line_mechanisms,
    dirichlet_start,
    exact_excess,
    exact_witness,
    mechanism_of,
    random_budget,
    random_dense_graph,
    random_homogeneous_bc,
    random_simplex,
    random_solvable_graph,
    rng,
    split_path,
    striped_grid_text,
    utility_eval_reference,
    verify_dp_reference,
)
from rainbowdp.core import NEGATIVE_WINDOW, SUM_WINDOW, _not_close, normalized_rows
from rainbowdp.cli import graphfile
from rainbowdp.cli.graphfile import GraphFile, GraphFileError, emit_graph_file, parse_graph_file
from rainbowdp.cli.main import main
from rainbowdp.cli.tables import mechanism_csv, parse_mechanism_csv
from rainbowdp.mechanism import (
    _LOG_FORM_THRESHOLD, _curve_rows, _phases, _prefix_curve, _t_step_prefix_rows, t_step_rows,
)
from rainbowdp.oracle import _drop_delta_rows, _falsify, _fuzz, _StepMiss

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
    steps = int(r.tau_profile(m, budget)[1][0]) + 3
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


@st.composite
def stacked_starts(draw):
    """2-6 starts of one length q, drawn as simplices draws them (zeros
    and tiny first prefixes included), each with its own time."""
    q = draw(st.integers(2, 6))

    def weights_of(n):
        return st.lists(st.one_of(st.just(0.0), st.floats(1e-12, 1.0)), min_size=n, max_size=n).filter(
            lambda w: sum(w) > 0.0
        )

    out = []
    for _ in range(draw(st.integers(2, 6))):
        if draw(st.booleans()):
            w = draw(weights_of(q - 1))
            m = _normalized([draw(st.floats(1e-14, 1e-9)) * sum(w), *w])
        else:
            m = _normalized(draw(weights_of(q)))
        out.append((m, draw(times)))
    return out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    stacked_starts(),
    st.one_of(wide_budgets, st.sampled_from([r.PrivacyBudget(1e-17, 0.0), r.PrivacyBudget(1e-17, 0.01)])),
)
def test_curve_rows_on_stacked_starts_gives_each_start_its_bits(rows, budget):
    # Every chain and trajectory goes through one _curve_rows path on
    # per-row starts: a row has the bits of its own start's closed form
    # at its own time, whatever the other rows' starts and times.
    ms, ts = zip(*rows)
    table = np.array([r.prefix_sums(m) for m in ms])
    stacked = _curve_rows(table, _phases(table, budget), budget, np.array(ts, dtype=np.float64))
    for m, t, row in zip(ms, ts, stacked.tolist()):
        assert [x.hex() for x in row] == [x.hex() for x in r.closed_form_prefix(m, budget, t)], (m, t)


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


def _fuzz_replay(q, budget, trials, seed, step_rows=None):
    """`fuzz` one trial at a time: each block's draws taken by
    block_draws from default_rng((seed, the block's first trial)), a
    full block's even when fewer trials are left, and each trial's p
    checked alone, in order: first that its real step is close to it,
    then dominance_falsify. Returns the first finding as _fuzz reports
    it."""
    rows = oracle._BLOCK_ROWS
    for lo in range(0, trials, rows):
        draws = block_draws((seed, lo), rows, q)
        for j in range(min(rows, trials - lo)):
            p = dirichlet_start(draws[j])
            step = r.SimplexVector.wrap(t_step_rows(np.array([p.p]), budget))[0]
            if not r.is_close(step, p, budget):
                e = budget.exp_epsilon
                excess = max(r.subset_excess(step, p, e), r.subset_excess(p, step, e))
                return lo + j, p, _StepMiss(step, excess - budget.delta)
            hit = r.dominance_falsify(p, budget, step_rows)
            if hit is not None:
                return lo + j, p, hit
    return None


def _fuzz_with_blocks(q, budget, trials, seed, step_rows, block_rows):
    """_fuzz with _BLOCK_ROWS set to block_rows, and its replay."""
    with mock.patch.object(oracle, "_BLOCK_ROWS", block_rows):
        return _fuzz(q, budget, trials, seed, step_rows), _fuzz_replay(q, budget, trials, seed, step_rows)


def _some_drop_delta(rows, budget):
    # Drops delta on the rows whose first entry is large, about one
    # start in five, so that findings land past trial 0 and past block 0.
    hit = (rows[:, 0] > 1.5 / rows.shape[1])[:, None]
    return np.where(hit, _drop_delta_rows(rows, budget), t_step_rows(rows, budget))


_OPERATORS = {"real": None, "mutant": _drop_delta_rows, "some": _some_drop_delta}


def _victim_operator(q, block_rows, seed, victim):
    """The real operator on every row but trial `victim`'s p, where it
    drops delta; p is read from the victim's block as _fuzz_replay reads
    it, with _BLOCK_ROWS at block_rows."""
    lo = victim - victim % block_rows
    p_victim = np.array(dirichlet_start(block_draws((seed, lo), block_rows, q)[victim - lo]).p)

    def step_rows(rows, b):
        hit = (rows == p_victim).all(axis=1)[:, None]
        return np.where(hit, _drop_delta_rows(rows, b), t_step_rows(rows, b))

    return step_rows


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 9), falsifier_budgets, st.sampled_from(sorted(_OPERATORS)))
def test_falsifier_block_is_its_one_trial_calls(seed, trials, budget, operator):
    # The dominance check on a stack of rows finds, at each start, the
    # next row for which dominance_falsify finds a counterexample, and
    # that counterexample. Exact zeros give the rows different supports.
    g = rng(seed)
    q = int(g.integers(2, 13))
    ps = [random_simplex(g, q, zero_rate=0.3) for _ in range(trials)]
    step_rows = _OPERATORS[operator] or t_step_rows
    p_rows = np.array([p.p for p in ps])
    target = np.cumsum(step_rows(p_rows, budget), axis=1)
    found = [r.dominance_falsify(p, budget, _OPERATORS[operator]) for p in ps]
    for start in range(trials):
        hits = [(j, ce) for j, ce in enumerate(found[start:]) if ce is not None]
        assert _falsify(p_rows[start:], target[start:], budget) == (hits[0] if hits else None)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(2, 12),
    st.integers(1, 40),
    st.integers(1, 16),
    falsifier_budgets,
    st.integers(0, 2**20),
    st.sampled_from(sorted(_OPERATORS)),
)
def test_fuzz_blocks_report_what_the_trial_loop_reports(q, trials, block_rows, budget, seed, operator):
    # Small blocks, so that most runs span several and end in a part
    # block; a block's finding must be the first per-trial step miss or
    # dominance_falsify hit, in trial order.
    got, want = _fuzz_with_blocks(q, budget, trials, seed, _OPERATORS[operator], block_rows)
    assert got == want


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(2, 12),
    st.integers(1, 24),
    st.integers(0, 30),
    falsifier_budgets.filter(lambda b: b.delta > 0.0),
    st.integers(0, 2**20),
)
def test_fuzz_reports_a_hit_past_the_first_block(q, block_rows, late, budget, seed):
    # Only trial `victim`, past the first block, gets an operator that
    # drops delta; its witnesses beat it.
    victim = block_rows + late
    corrupt = _victim_operator(q, block_rows, seed, victim)
    got, want = _fuzz_with_blocks(q, budget, victim + 5, seed, corrupt, block_rows)
    assert want is not None and want[0] == victim
    assert got == want


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(2, 8),
    st.integers(1, 16),
    st.integers(1, 30),
    st.integers(1, 30),
    falsifier_budgets,
    st.integers(0, 2**20),
    st.sampled_from(["mutant", "victim"]),
)
def test_fuzz_findings_do_not_depend_on_the_number_of_trials(q, block_rows, short, more, budget, seed, kind):
    # A trial's draws are fixed by (seed, trial, q): a run of `short`
    # trials reports the finding of a longer run when that lies below
    # `short`, and nothing otherwise. The victim sits past the first
    # block, below `short` in some runs and not in others.
    step_rows = _drop_delta_rows
    if kind == "victim":
        step_rows = _victim_operator(q, block_rows, seed, block_rows + seed % (short + block_rows))
    with mock.patch.object(oracle, "_BLOCK_ROWS", block_rows):
        longer = _fuzz(q, budget, short + more, seed, step_rows)
        shorter = _fuzz(q, budget, short, seed, step_rows)
    assert shorter == (longer if longer is not None and longer[0] < short else None)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([3, 40, 300]),
    falsifier_budgets.filter(lambda b: b.delta == 0.0),
)
def test_samples_keep_the_support_of_p_at_delta_zero(seed, count, budget):
    # At delta = 0 every close distribution is 0 where p is: each row
    # draws q exponentials and the entries off p's support are zeroed.
    g = rng(seed)
    p = random_simplex(g, int(g.integers(2, 13)), zero_rate=0.4)
    samples = r.sample_close(p, budget, count, int(g.integers(2**40)))
    off = np.array(p.p) == 0.0
    assert (samples[:, off] == 0.0).all()
    assert all(r.is_close(vec, p, budget) for vec in r.SimplexVector.wrap(samples))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 6), st.integers(0, 2**100))
def test_block_draws_are_the_one_generator_per_trial_draws(seed, trials, more, base):
    # A fuzz block's draws are one generator's standard exponentials,
    # the bits of gamma(1, 1) as block_draws takes them, at keys of one to
    # five words, and a short block's are the first rows of a longer
    # one's. A block's first trial starts from its generator's Dirichlet
    # draw, and every start is the Dirichlet draw of its row.
    q = int(rng(seed).integers(2, 13))
    key = (base, seed % 1000)
    draws = np.random.default_rng(key).standard_exponential((trials, q))
    assert draws.tobytes() == block_draws(key, trials, q).tobytes()
    assert draws.tobytes() == np.random.default_rng(key).standard_exponential((trials + more, q))[:trials].tobytes()
    starts = oracle._start_rows(draws)
    assert _hexes(starts) == _hexes(dirichlet_start(row).p for row in draws)
    assert _hexes(starts[:1]) == _hexes([r.SimplexVector(tuple(rng(key).dirichlet(np.ones(q)))).p])


# Budgets from e^eps == 1 in floats (eps = 0 and 1e-17) through small and
# large eps, each with delta from 0 to 1, 1e-17 among them, below the
# rounding of p's entries.
_GRID_EPSILONS = (0.0, 1e-17, 1e-9, 1e-4, 0.3, 8.0, 20.0)
_GRID_DELTAS = (0.0, 1e-300, 1e-17, 1e-12, 1e-7, 0.01, 1.0)


@pytest.mark.parametrize(
    "epsilon,delta", [(e, d) for e in _GRID_EPSILONS for d in _GRID_DELTAS if e > 0.0 or d > 0.0],
)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_sample_close_mixes_are_exactly_close_to_p(epsilon, delta, q, seed):
    # Every sample past the first two is a convex mix of p's witnesses:
    # close to p in exact arithmetic on its floats, within 1e-15 of
    # rounding, and at delta = 0 zero off p's support. The operator step
    # is made the identity, so that the mixes are checked also where the
    # real step is not close to p and sample_close refuses (ROADMAP item
    # 2, at eps = 20).
    budget = r.PrivacyBudget(epsilon, delta)
    g = rng(seed)
    p = random_simplex(g, q, zero_rate=0.3)
    with mock.patch.object(oracle, "t_step_rows", lambda rows, budget: rows):
        samples = r.sample_close(p, budget, 18, int(g.integers(2**40)))
    bound = Fraction(delta) + Fraction(1e-15)
    for row in samples[2:].tolist():
        assert max(exact_excess(row, p.p, budget), exact_excess(p.p, row, budget)) <= bound
    if delta == 0.0:
        assert (samples[:, np.array(p.p) == 0.0] == 0.0).all()


@st.composite
def dyadic_simplices(draw):
    # q entries that are multiples of 2^-53 summing to exactly 1, so that
    # the lemma holds in exact arithmetic on the floats themselves; cuts
    # at 0 and 2^53 give zero prefixes (s_k = 0) and full ones (s_k = 1).
    q = draw(st.integers(2, 12))
    edge = st.sampled_from([0, 2**53]) | st.integers(0, 2**53)
    cuts = sorted(draw(st.lists(edge, min_size=q - 1, max_size=q - 1)))
    return [(b - a) * 2.0**-53 for a, b in zip([0, *cuts], [*cuts, 2**53])]


witness_budgets = st.builds(
    r.PrivacyBudget,
    st.sampled_from([0.0, 1e-4, 0.3, 2.0, 12.0, 20.0, 50.0]) | st.floats(0.0, 50.0),
    st.sampled_from([0.0, 1e-7, 0.01, 0.3, 1.0]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dyadic_simplices(), witness_budgets)
def test_witnesses_are_close_and_attain_the_envelope(p, budget):
    # The proof in oracle's docstring: w_k, in exact arithmetic on p's
    # floats, is (eps, delta)-close to p and has k-prefix g(s_k) exactly;
    # the float w_k that fuzz reports is close to p within 1e-15, and its
    # entries are within 1e-15 of the exact ones.
    e, d = Fraction(budget.exp_epsilon), Fraction(budget.delta)
    w = oracle._witnesses(np.array(p), budget)
    for k in range(len(p)):
        exact = exact_witness(p, k, budget)
        s = sum(Fraction(x) for x in p[:k + 1])
        assert sum(exact) == 1 and min(exact) >= 0
        assert sum(exact[:k + 1]) == min(Fraction(1), e * s + d, 1 - (1 - s - d) / e)
        assert max(exact_excess(exact, p, budget), exact_excess(p, exact, budget)) <= d
        assert max(exact_excess(w[k], p, budget), exact_excess(p, w[k], budget)) <= d + Fraction(1e-15)
        assert max(abs(Fraction(x) - y) for x, y in zip(w[k].tolist(), exact)) <= Fraction(1e-15)


@pytest.mark.parametrize("delta", [0.0, 0.01])
def test_a_witness_built_from_one_minus_g_is_not_close_at_epsilon_20(delta):
    # The pitfall _witnesses avoids: 1 - g carries g's rounding, which
    # e^20 blows up far past 1e-15, where the tail computed on its own
    # does not.
    budget = r.PrivacyBudget(20.0, delta)
    bound = Fraction(delta) + Fraction(1e-15)
    g = rng(20)
    broken = 0
    for _ in range(50):
        p = np.array(random_simplex(g, int(g.integers(2, 13))).p)
        s = np.cumsum(p)
        envelope = _t_step_prefix_rows(s[None, :], budget)[0]
        w = oracle._witnesses(p, budget)
        for k in range(len(p) - 1):
            tail = p[k + 1:] * (1.0 - envelope[k]) / p[k + 1:].sum()
            from_one_minus_g = np.concatenate([p[:k + 1] * envelope[k] / s[k], tail])
            broken += exact_excess(p, from_one_minus_g, budget) > bound
            assert max(exact_excess(p, w[k], budget), exact_excess(w[k], p, budget)) <= bound
    assert broken > 50


identifiers = st.text("abcxyz019_.-", min_size=1, max_size=4)


@st.composite
def graph_files(draw, ids=identifiers) -> GraphFile:
    colors = draw(st.lists(ids, min_size=2, max_size=5, unique=True))
    space = r.ColorSpace(tuple(colors))
    nodes = draw(st.lists(ids, min_size=1, max_size=12, unique=True))
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
    # Boundary cells are exact: only the parsed vector's renormalization
    # moves an entry, by an ulp or two.
    for c, vec in gf.boundary.values.items():
        assert all(abs(a - b) <= 2 * math.ulp(b) for a, b in zip(again.boundary.values[c], vec))


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


# Names that sort by their bytes as str does only if the padding is
# right (prefixes, case), names the bulk reader declines (non-ASCII), and
# names of 7 to 17 bytes, on both sides of the bulk reader's 8-byte
# words: some share their first word, and "abcdefgh" is that of others.
tricky_ids = st.one_of(
    st.sampled_from(["n1", "n10", "n1!", "N1", "n", "a", "A", "é", "nß", "x.y"]),
    st.text("abAB01!.", min_size=1, max_size=3),
    st.sampled_from(["abcdefg", "abcdefgh", "abcdefgh1", "abcdefgh10", "abcdefghijklmnop", "abcdefghijklmnopq"]),
    st.sampled_from([7, 8, 9, 16, 17]).flatmap(lambda n: st.text("ab", min_size=n, max_size=n)),
)
MUTATIONS = (
    "swap", "edges-first", "tab", "double-space", "trailing-space", "crlf", "blank",
    "comment", "no-final-newline", "self-loop", "unknown-color", "duplicate-node",
    "undeclared-node", "malformed-probability", "not-a-permutation", "short-boundary",
    "sum", "duplicate-edge", "first-directive", "colors-twice", "unknown-directive",
    "comma-in-color", "comma-in-node", "duplicate-boundary", "leading-space", "short-last-line",
)


def _mutate(lines: list[str], kind: str, k: int, gf: GraphFile) -> None:
    """Give the emitted lines of gf one of the forms or errors a
    hand-written file may have, at or near line k (crlf and
    no-final-newline are applied when the lines are joined)."""
    space = gf.graph.color_space
    colors, label = space.colors, ",".join(space.colors)
    node = gf.graph.nodes[k % len(gf.graph.nodes)]
    edges = [i for i, line in enumerate(lines) if line.startswith("edge ")]
    edge = lines[edges[k % len(edges)]].split()[1:] if edges else None
    added = {
        "self-loop": f"edge {node} {node}",
        "unknown-color": "node fresh~ " + " ".join(["nocolor", *colors[1:]]),
        "duplicate-node": f"node {node} " + " ".join(gf.graph.preference[node].color_names(space)),
        "undeclared-node": f"edge {node} " + ("~" if k % 2 else "ghost~"),
        "malformed-probability": f"boundary {label} oops" + " 0" * (len(colors) - 1),
        "not-a-permutation": "node fresh~ " + " ".join([colors[0], *colors[:-1]]),
        "short-boundary": f"boundary {label} 1" + " 0" * (len(colors) - 2),
        "sum": f"boundary {label} 0.9" + " 0.4" * (len(colors) - 1),
        "duplicate-edge": f"edge {edge[1]} {edge[0]}" if edge else None,
        "colors-twice": lines[0],
        "unknown-directive": "what x",
        "comma-in-node": "node a,b " + " ".join(colors),
        "duplicate-boundary": next((line for line in lines if line.startswith("boundary ")), None),
        "blank": "",
        "comment": "# a comment",
    }
    if added.get(kind) is not None:
        lines.insert(1 + k % len(lines), added[kind])
    elif kind == "swap" and edge:
        lines[edges[k % len(edges)]] = f"edge {edge[1]} {edge[0]}"
    elif kind == "edges-first":
        lines[1:] = [lines[i] for i in edges] + [line for line in lines[1:] if not line.startswith("edge ")]
    elif kind in ("tab", "double-space", "trailing-space"):
        i = k % len(lines)
        lines[i] = lines[i] + " " if kind == "trailing-space" else lines[i].replace(" ", "\t" if kind == "tab" else "  ", 1)
    elif kind == "leading-space":
        i = k % len(lines)
        lines[i] = " " + lines[i]
    elif kind == "short-last-line":
        # At most 7 bytes with its LF: the bulk reader reads its prefix
        # from the file's last word.
        lines.append(("e a", "n", "e a b", "node x")[k % 4])
    elif kind == "first-directive":
        lines[:2] = lines[1::-1]
    elif kind == "comma-in-color":
        lines[0] += " p,q"
    if kind == "comment":
        lines[0] += " # the colors"


def _read_graph(reader, text: str):
    """What a reader makes of text: the graph and boundary values, floats
    as bits, or the error's message and line."""
    try:
        gf = reader(text)
    except GraphFileError as exc:
        return str(exc), exc.line
    g = gf.graph
    values = None if gf.boundary is None else [
        (c, [x.hex() for x in vec.p]) for c, vec in gf.boundary.values.items()
    ]
    return g.nodes, g.rainbow_ids.tolist(), g.rainbows(), g.edge_ends.tolist(), g.color_space, values


@pytest.mark.parametrize("kind", ("none", *MUTATIONS))
@settings(max_examples=15, deadline=None, derandomize=True)
@given(graph_files(tricky_ids), st.integers(0, 99),
       st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 99)), max_size=2))
def test_parsed_graph_equals_the_line_readers(kind, gf, at, more):
    # parse_graph_file reads the emitted form in bulk and every other form
    # and every error line by line; either way it gives what the line
    # reader gives: the same graph, edge rows in file order and boundary
    # bits, or the same message on the same line.
    text = emit_graph_file(gf)
    mutations = [] if kind == "none" else [(kind, at), *more]
    if not mutations:
        assert text.isascii() == (graphfile._parse_bytes(text) is not None)
    lines = text.splitlines()
    for name, k in mutations:
        _mutate(lines, name, k, gf)
    kinds = {name for name, _ in mutations}
    brk = "\r\n" if "crlf" in kinds else "\n"
    text = brk.join(lines) + ("" if "no-final-newline" in kinds else brk)
    assert _read_graph(parse_graph_file, text) == _read_graph(graphfile._parse_lines, text)


@pytest.mark.parametrize("longest", ["abcdefg", "abcdefgh", "abcdefghi", "abcdefghijklmnop", "abcdefghijklmnopq"])
def test_the_last_token_of_the_file_is_read_from_its_last_bytes(longest):
    # With no boundary lines the file ends with an edge to the longest
    # name, whose last word reaches into the file's last 8 bytes; a name
    # that differs from it only in its last byte would take a misread word.
    other = longest[:-1] + "z"
    text = (
        f"colors a b\nnode {other} a b\nnode {longest} b a\nnode x a b\n"
        f"edge x {other}\nedge x {longest}\n"
    )
    gf = graphfile._parse_bytes(text)
    assert gf is not None
    assert _read_graph(lambda _: gf, text) == _read_graph(graphfile._parse_lines, text)


@pytest.mark.parametrize("text", [
    "colors a b\n node x a b\nnode y b a\nedge x y\n",
    "colors a b\nnode x a b\nnode y b a\nedge x y\ne a\n",
    "colors a b\nnode x a b\nnode y b a\nedge x y\n\n",
])
def test_the_separator_scan_sends_empty_tokens_and_short_lines_to_the_line_reader(text):
    # A leading space, a short last line (its prefix read from the file's
    # last word) and a blank last line: two adjacent separators or a bad
    # prefix, so the bulk reader declines and the line reader decides.
    assert graphfile._parse_bytes(text) is None
    assert _read_graph(parse_graph_file, text) == _read_graph(graphfile._parse_lines, text)


def test_a_shared_key_sends_the_file_to_the_line_reader(monkeypatch):
    # With the word mix made constant, every token longer than one word
    # has the same key: the bulk reader declines a file whose names or
    # rainbow texts are such tokens, and the line reader reads it. Tokens
    # of one word are their own keys and unaffected.
    long_names = "colors a b\nnode abcdefgh1 a b\nnode abcdefgh10 b a\nnode x a b\nedge abcdefgh1 x\n"
    long_texts = "colors red green\nnode x red green\nnode y green red\nedge x y\n"
    short = long_names.replace("abcdefgh1", "y")
    assert None not in map(graphfile._parse_bytes, (long_names, long_texts, short))
    monkeypatch.setattr(graphfile, "_MIX", np.uint64(0))
    assert graphfile._parse_bytes(short) is not None
    for text in (long_names, long_texts):
        assert graphfile._parse_bytes(text) is None
        assert _read_graph(parse_graph_file, text) == _read_graph(graphfile._parse_lines, text)


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
    # A node without edges is in no check.
    isolated = "zz-isolated"
    graph = r.RainbowGraph(
        graph.nodes + (isolated,),
        graph.edges,
        {**graph.preference, isolated: graph.preference[graph.nodes[0]]},
        graph.color_space,
    )
    assignment[isolated] = r.SimplexVector((1.0,) + (0.0,) * (q - 1))
    perturbed = mechanism_of(graph, assignment)
    # One row per node: more row pairs than edges, so verify_dp checks edge by edge.
    assert len(perturbed.rows) ** 2 > len(graph.edge_ends)
    assert _violation_bits(r.verify_dp(graph, perturbed, budget)) == _violation_bits(
        verify_dp_reference(graph, perturbed, budget)
    )


def _mixed_rows(g: np.random.Generator, rows: np.ndarray) -> np.ndarray:
    # Mixing some rows toward random ones, with weights from 1e-14 to 1,
    # puts margins on both sides of the tolerance.
    rows = rows.copy()
    for i in range(len(rows)):
        if g.random() < 0.3:
            lam = 10.0 ** g.uniform(-14.0, 0.0)
            rows[i] = (1.0 - lam) * rows[i] + lam * np.array(random_simplex(g, rows.shape[1]).p)
    return rows


def _shared_row_cases(g: np.random.Generator) -> list[tuple[r.RainbowGraph, r.Mechanism, r.PrivacyBudget]]:
    """Optima on a striped grid and on few-row dense graphs, each with its
    shared rows kept, some of them mixed toward random rows, and with one
    node moved to the row of a node of another rainbow."""
    gf = parse_graph_file(striped_grid_text(16, 3, 4, seed=7, spread=0.02))
    cases = [(gf.graph, gf.boundary, r.PrivacyBudget(0.4, 0.001))]
    for _ in range(3):
        graph = random_dense_graph(g, n_rainbows=3, tail_len=3)
        budget = random_budget(g)
        cases.append((graph, random_homogeneous_bc(g, graph, budget), budget))
    out = []
    for graph, bc, budget in cases:
        mech = r.optimal_mechanism(graph, bc, budget)
        node_rows = mech.node_rows.copy()
        ids = graph.rainbow_ids
        node_rows[np.flatnonzero(ids != ids[0])[0]] = node_rows[0]
        rows = _mixed_rows(g, mech.rows)
        out.append((graph, r.Mechanism(rows, node_rows, graph.nodes, graph.color_space), budget))
    return out


def test_verify_dp_on_shared_rows_equals_per_edge_reference():
    # At most as many row pairs as edges: verify_dp checks each distinct
    # (row, row) pair once and hands its margins to the pair's edges.
    found = 0
    for graph, mech, budget in _shared_row_cases(rng(53)):
        assert len(mech.rows) ** 2 <= len(graph.edge_ends)
        got = r.verify_dp(graph, mech, budget)
        assert _violation_bits(got) == _violation_bits(verify_dp_reference(graph, mech, budget))
        found += len(got.violations)
    assert found


@pytest.mark.parametrize("chunk_rows", [1, 3])
def test_chunk_edges_leave_rows_and_verdicts_unchanged(monkeypatch, chunk_rows):
    # Chains and edges are processed _CHUNK_ROWS at a time; chunks of 1 and
    # 3 rows put a chunk edge inside every chain and every edge list.
    g = rng(47)
    cases = [(*split_path(300, 100), r.PrivacyBudget(0.3, 0.001))]
    for _ in range(3):
        graph = random_dense_graph(g)
        budget = random_budget(g)
        cases.append((graph, random_homogeneous_bc(g, graph, budget), budget))
    whole = [r.optimal_mechanism(graph, bc, budget) for graph, bc, budget in cases]
    monkeypatch.setattr(mechanism, "_CHUNK_ROWS", chunk_rows)
    for (graph, bc, budget), want in zip(cases, whole):
        mech = r.optimal_mechanism(graph, bc, budget)
        assert mech.node_rows.tolist() == want.node_rows.tolist()
        assert [x.hex() for x in mech.rows.ravel().tolist()] == [x.hex() for x in want.rows.ravel().tolist()]
        # Mixed rows put violations in the chunks.
        mixed = r.Mechanism(_mixed_rows(g, mech.rows), mech.node_rows, graph.nodes, graph.color_space)
        assert _violation_bits(r.verify_dp(graph, mixed, budget)) == _violation_bits(
            verify_dp_reference(graph, mixed, budget)
        )
    # Chunks of distinct row pairs, on the table side of verify_dp.
    for graph, mixed, budget in _shared_row_cases(rng(53)):
        assert _violation_bits(r.verify_dp(graph, mixed, budget)) == _violation_bits(
            verify_dp_reference(graph, mixed, budget)
        )


def _hung(text: str, tails: dict[str, int]) -> str:
    """A graph file with a path of the given length hung on each host
    node, its nodes in the host's rainbow."""
    lines = []
    for host, length in tails.items():
        rainbow = next(line for line in text.splitlines() if line.startswith(f"node {host} "))[len(host) + 6:]
        path = [f"{host}t{i}" for i in range(length)]
        lines += [f"node {t} {rainbow}" for t in path]
        lines += [f"edge {a} {b}" for a, b in zip([host, *path], path)]
    return text + "\n".join(lines) + "\n"


def _chain_cases():
    # Twelve two-column bands (chain depths 0 and 1), with paths hung on
    # three of them: depths 0, 1, 2 and 6 in rainbow order.
    gf = parse_graph_file(_hung(
        striped_grid_text(24, 12, 5, seed=24, spread=0.02), {"r05c04": 2, "r10c08": 6, "r20c14": 1}
    ))
    graph = gf.graph
    assert {0, 1, 2, 6} <= set(graph.search[1].tolist())
    # Color c5 comes first in three of the chains with depth >= 1, so
    # their first prefix grows in log space at delta = 0.
    tiny = r.SimplexVector((0.3, 0.25, 0.25, 0.2 - 1e-12, 1e-12))
    return [
        (graph, gf.boundary, r.PrivacyBudget(0.3, 0.001)),
        (graph, gf.boundary, r.PrivacyBudget(0.0, 0.1)),
        (graph, r.BoundaryCondition({c: tiny for c in graph.rainbows()}), r.PrivacyBudget(0.5, 0.0)),
    ]


def _chain_by_chain(graph: r.RainbowGraph, bc: r.BoundaryCondition, budget: r.PrivacyBudget) -> np.ndarray:
    """The stacked chains of optimal_mechanism, each rainbow's from its
    own line_mechanism call, with its boundary vector as row 0."""
    _, depths, starts, _ = graph.search
    rows = np.empty((int((depths + 1).sum()), graph.color_space.q))
    for c, start, depth in zip(graph.rainbows(), starts.tolist(), depths.tolist()):
        # Column k of the line is the mass of color c.order[k].
        rows[start:start + depth + 1, c.order] = r.line_mechanism(r.to_preference_order(bc.values[c], c), budget, depth)
        rows[start] = bc.values[c].p
    return rows


@pytest.mark.parametrize("chunk_rows", [1, 3, mechanism._CHUNK_ROWS])
def test_chains_in_one_pass_keep_each_chains_bits(monkeypatch, chunk_rows):
    # optimal_mechanism evaluates every chain in one pass, _CHUNK_ROWS
    # rows at a time; chunks of 3 rows and the default one straddle
    # chains, chunks of 1 row do not. Each row has the bits of its own
    # chain's closed form, and is within TOL of the iterated operator.
    cases = _chain_cases()
    whole = [_chain_by_chain(graph, bc, budget) for graph, bc, budget in cases]
    graph, bc, _ = cases[2]
    firsts = np.array([bc.values[c].p[c.order[0]] for c in graph.rainbows()])
    assert firsts[graph.search[1] > 0].min() < _LOG_FORM_THRESHOLD
    monkeypatch.setattr(mechanism, "_CHUNK_ROWS", chunk_rows)
    for (graph, bc, budget), want in zip(cases, whole):
        mech = r.optimal_mechanism(graph, bc, budget)
        assert [x.hex() for x in mech.rows.ravel().tolist()] == [x.hex() for x in want.ravel().tolist()]
        iterated, _ = boundary_line_mechanisms(graph, bc, budget)
        assert np.abs(mech.rows - iterated.rows).max() <= TOL


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_utility_eval_adds_left_to_right(seed):
    # Weights over sixteen orders of magnitude make the products' rounding
    # errors large enough that a compensated sum (builtin sum() from
    # Python 3.12 on) gives other bits than plain left-to-right additions.
    g = rng(seed)
    graph = random_solvable_graph(g)
    budget = random_budget(g)
    mech = r.optimal_mechanism(graph, random_homogeneous_bc(g, graph, budget), budget)
    q = graph.color_space.q
    weights = {
        d: tuple(sorted((10.0 ** g.uniform(-8.0, 8.0) for _ in range(q)), reverse=True))
        for d in graph.nodes
    }
    got = r.utility_eval(graph, mech, weights)
    assert got.hex() == utility_eval_reference(graph, mech, weights).hex()


@st.composite
def close_pair_cases(draw):
    """A budget and two distributions as SimplexVector stores them, the
    second a mix of the first toward a third, with weights from 1e-14
    to 1, so the exact excess falls on both sides of delta."""
    q = draw(st.integers(2, 8))
    epsilon = 10.0 ** draw(st.floats(-4.0, math.log10(50.0)))
    delta = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.2)))

    def simplex():
        w = [draw(st.one_of(st.just(0.0), st.floats(1e-6, 1.0))) for _ in range(q)]
        if not any(w):
            w[0] = 1.0
        total = sum(w)
        return np.array([x / total for x in w])

    p, other = simplex(), simplex()
    lam = 10.0 ** draw(st.floats(-14.0, 0.0))
    pv = r.SimplexVector(tuple(p))
    qv = r.SimplexVector(tuple((1.0 - lam) * p + lam * other))
    return r.PrivacyBudget(epsilon, delta), pv, qv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(close_pair_cases())
def test_closeness_kernel_agrees_with_exact_arithmetic(case):
    # Away from the tolerance band around delta, the float kernel's verdict
    # is the exact one, through each of its three callers. The pair's
    # excess is the larger of its two directions'.
    budget, pv, qv = case
    delta = Fraction(budget.delta)
    excess = max(exact_excess(pv.p, qv.p, budget), exact_excess(qv.p, pv.p, budget))
    assume(abs(excess - delta) > Fraction(r.DEFAULT_TOL))
    close = excess <= delta
    q = len(pv)
    space = r.ColorSpace(tuple(f"c{k}" for k in range(q)))
    ca, cb = r.Rainbow(tuple(range(q))), r.Rainbow(tuple(reversed(range(q))))

    same = r.RainbowGraph(("a", "b"), {("a", "b")}, {"a": ca, "b": ca}, space)
    mech = r.Mechanism(np.array([pv.p, qv.p]), [0, 1], same.nodes, space)
    assert r.verify_dp(same, mech, budget).valid == close

    split = r.RainbowGraph(("a", "b"), {("a", "b")}, {"a": ca, "b": cb}, space)
    bc = r.BoundaryCondition({ca: pv, cb: qv})
    assert (r.validate_boundary_condition(split, bc, budget) == ()) == close

    assert (not _not_close(np.array([pv.p]), np.array([qv.p]), budget)[1].any()) == close


def _threshold_band(budget: r.PrivacyBudget, width: int = 16) -> list[tuple[r.SimplexVector, r.SimplexVector]]:
    """Row pairs (p, q) whose excess from p to q steps through delta +
    1e-12 a few ulps at a time: p = (a, 1 - a) with a = 1.2 delta, q =
    (c, 1 - c) for the 2 * width + 1 floats c around (a - delta - 1e-12)
    / e^eps. Back from q to p the excess is 0 at eps > 0, and the same
    in exact arithmetic at eps = 0."""
    e = budget.exp_epsilon
    a = 1.2 * budget.delta
    lo = hi = (a - budget.delta - r.DEFAULT_TOL) / e
    cs = [lo]
    for _ in range(width):
        lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, 1.0)
        cs += [lo, hi]
    rows = np.array([[a, 1.0 - a]] + [[c, 1.0 - c] for c in sorted(cs)])
    p, *qs = r.SimplexVector.wrap(rows)
    return [(p, qv) for qv in qs]


@pytest.mark.parametrize("delta", [0.01, 0.1, 0.3])
@pytest.mark.parametrize("epsilon", [0.0, 0.5, 2.0])
def test_every_closeness_check_gives_one_verdict_at_the_threshold(epsilon, delta):
    # Within a few ulps of delta + 1e-12, verify_dp, the boundary check,
    # fuzz's step check and is_close read the same comparison, so they
    # agree on every pair, and the band holds pairs of both verdicts.
    # (Where delta + 1e-12 rounds up, a test of the excess against that
    # rounded sum accepts a pair whose margin is above 1e-12.)
    budget = r.PrivacyBudget(epsilon, delta)
    space = r.ColorSpace(("c0", "c1"))
    ca, cb = r.Rainbow((0, 1)), r.Rainbow((1, 0))
    same = r.RainbowGraph(("a", "b"), {("a", "b")}, {"a": ca, "b": ca}, space)
    split = r.RainbowGraph(("a", "b"), {("a", "b")}, {"a": ca, "b": cb}, space)
    verdicts = set()
    for pv, qv in _threshold_band(budget):
        close = r.is_close(pv, qv, budget)
        verdicts.add(close)
        mech = r.Mechanism(np.array([pv.p, qv.p]), [0, 1], same.nodes, space)
        assert r.verify_dp(same, mech, budget).valid == close
        bc = r.BoundaryCondition({ca: pv, cb: qv})
        assert (r.validate_boundary_condition(split, bc, budget) == ()) == close
        # One fuzz trial whose start is p and whose operator step is q.
        with mock.patch.object(oracle, "_start_rows", lambda draws: np.array([pv.p])), \
                mock.patch.object(oracle, "t_step_rows", lambda rows, budget: np.array([qv.p])):
            found = _fuzz(2, budget, 1, 0)
        assert (found is None or not isinstance(found[2], _StepMiss)) == close
    assert verdicts == {True, False}


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
            report = r.verify_dp(graph, mechanism_of(graph, {**mech.assignment, d: vec}), budget)
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
    parsed = parse_mechanism_csv(mechanism_csv(graph, mech), graph)
    assert parsed.nodes is graph.nodes
    for i, j in zip(mech.node_rows.tolist(), parsed.node_rows.tolist()):
        assert [x.hex() for x in parsed.rows[j].tolist()] == [x.hex() for x in mech.rows[i].tolist()]
    assert r.verify_dp(graph, parsed, budget).valid


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    simplices,
    st.one_of(budgets, st.builds(r.PrivacyBudget, st.floats(3.0, 700.0), st.sampled_from([0.0, 0.01, 1.0]))),
    st.integers(0, 40),
    st.integers(1, 4),
)
def test_every_trajectory_file_plots(m, budget, steps, substeps):
    # plot's range checks refuse no file that trajectory writes, at any
    # budget the operator accepts.
    with tempfile.TemporaryDirectory() as tmp:
        csv, svg = Path(tmp) / "t.csv", Path(tmp) / "t.svg"
        assert main([
            "trajectory", "--boundary", ",".join(map(repr, m.p)), "--epsilon", repr(budget.epsilon),
            "--delta", repr(budget.delta), "--steps", str(steps), "--substeps", str(substeps),
            "--out", str(csv),
        ]) == 0
        assert main(["plot", str(csv), "--out", str(svg)]) == 0
