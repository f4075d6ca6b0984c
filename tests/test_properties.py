"""Property tests: the closed form of the operator's trajectory equals
the iterated operator at every integer step, over random distributions
and budgets, down to eps = 1e-4 over ten thousand steps."""

from hypothesis import given, settings
from hypothesis import strategies as st

import rainbowdp as r

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
