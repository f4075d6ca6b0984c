import ast
import inspect
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rainbowdp as r
from helpers import child_env, path5_bc, path5_graph, random_budget, random_simplex, rng, sv
from rainbowdp.cli.graphfile import parse_graph_file
from rainbowdp.core import _not_close, normalized_rows


def test_color_space_validation():
    space = r.ColorSpace(("blue", "red", "green"))
    assert space.q == 3
    assert space.index_of("red") == 1
    with pytest.raises(ValueError):
        r.ColorSpace(("only",))
    with pytest.raises(ValueError):
        r.ColorSpace(("a", "a"))
    with pytest.raises(ValueError):
        r.ColorSpace(("a", ""))


def test_rainbow_validation():
    c = r.Rainbow((2, 0, 1))
    assert c.color_names(r.ColorSpace(("x", "y", "z"))) == ("z", "x", "y")
    with pytest.raises(ValueError):
        r.Rainbow((0, 0, 1))
    with pytest.raises(ValueError):
        r.Rainbow((1, 2, 3))


def test_simplex_vector_accepts_rounded_inputs():
    # Published 4-decimal vectors miss 1.0 by up to a few 1e-4.
    m = sv(0.0005, 0.0081, 0.1364, 0.2727, 0.5822)
    assert sum(m.p) == pytest.approx(1.0, abs=1e-12)
    exact = sv(0.5, 0.5)
    assert exact.p == (0.5, 0.5)


def test_simplex_vector_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sv(0.5, 0.49)  # sum 0.99 is too far off
    with pytest.raises(ValueError):
        sv(0.5, -0.1, 0.6)
    with pytest.raises(ValueError):
        sv(1.5, -0.5)
    with pytest.raises(ValueError):
        r.SimplexVector((1.0,))
    with pytest.raises(ValueError):
        sv(float("nan"), 1.0)
    with pytest.raises(ValueError):
        sv(float("inf"), 0.5)


def test_simplex_vector_clamps_float_noise():
    m = r.SimplexVector((1e-12, -1e-15, 1.0))
    assert m.p[1] == 0.0
    assert all(x >= 0.0 for x in m.p)


def test_simplex_vector_normalizes_by_the_left_to_right_sum():
    # Added left to right these entries sum to 0.9999999999999999; the
    # correctly rounded sum (math.fsum, or sum() from Python 3.12 on) is
    # 1.0, which would leave them undivided.
    row = (0.7, 0.1, 0.1, 0.1)
    assert math.fsum(row) == 1.0
    sequential = ((0.7 + 0.1) + 0.1) + 0.1
    assert sequential == 0.9999999999999999
    assert sv(*row).p == tuple(x / sequential for x in row)
    assert sv(*row).p != row
    assert tuple(normalized_rows(np.array([row]))[0].tolist()) == sv(*row).p


@pytest.mark.xfail(strict=True, reason="FOUND line 67")
def test_simplex_vector_renormalization_is_idempotent():
    # A normalized vector whose left-to-right sum still misses 1 by an ulp
    # is divided again when rebuilt, so a re-emitted graph file's boundary
    # cells drift each time it is parsed.
    once = r.SimplexVector((0.43251521772141427, 0.5637771777263075, 0.0037076045522782958)).p
    assert r.SimplexVector(once).p == once


def test_simplex_vector_rows_of_one_column_and_of_none():
    # tests/test_properties.py compares every other shape with the
    # constructor, error messages included.
    with pytest.raises(ValueError, match="at least 2 entries"):
        normalized_rows(np.array([[1.0]]))
    assert normalized_rows(np.empty((0, 3))).shape == (0, 3)


def test_privacy_budget_validation():
    b = r.PrivacyBudget(math.log(2.0), 0.1)
    assert b.exp_epsilon == pytest.approx(2.0)
    r.PrivacyBudget(0.0, 0.0)
    r.PrivacyBudget(5.0, 1.0)
    with pytest.raises(ValueError):
        r.PrivacyBudget(-0.1, 0.0)
    with pytest.raises(ValueError):
        r.PrivacyBudget(1.0, 1.5)
    with pytest.raises(ValueError):
        r.PrivacyBudget(1.0, -0.1)
    with pytest.raises(ValueError):
        r.PrivacyBudget(float("nan"), 0.0)
    with pytest.raises(ValueError):
        r.PrivacyBudget(1.0, float("nan"))
    # e^709 is a finite float; e^710 overflows.
    assert math.isfinite(r.PrivacyBudget(709.0).exp_epsilon)
    with pytest.raises(ValueError, match="finite float"):
        r.PrivacyBudget(710.0)


def test_prefix_sums_examples():
    assert r.prefix_sums(sv(1, 0, 0)) == (1.0, 1.0, 1.0)
    assert r.prefix_sums(sv(0.1, 0.2, 0.7)) == pytest.approx((0.1, 0.3, 1.0), abs=1e-12)
    m = sv(0.0005, 0.0081, 0.1364, 0.2727, 0.5822)
    s = r.prefix_sums(m)
    assert s[-1] == pytest.approx(1.0, abs=1e-12)
    assert s[0] == pytest.approx(0.0005 / 0.9999, abs=1e-15)


def test_prefix_sums_random_properties():
    g = rng(10)
    for _ in range(200):
        p = random_simplex(g, int(g.integers(2, 9)), zero_rate=0.2)
        s = r.prefix_sums(p)
        assert all(s[i] <= s[i + 1] + 1e-15 for i in range(len(s) - 1))
        assert abs(s[-1] - 1.0) <= 1e-12


def test_dominates_examples():
    anything = sv(0.3, 0.3, 0.4)
    assert r.dominates(sv(1, 0, 0), anything)
    assert r.dominates(sv(0.5, 0.3, 0.2), sv(0.4, 0.4, 0.2))
    # Incomparable pair: prefixes (0.5, 0.6, 1) vs (0.4, 0.8, 1).
    x, y = sv(0.5, 0.1, 0.4), sv(0.4, 0.4, 0.2)
    assert not r.dominates(x, y)
    assert not r.dominates(y, x)


@pytest.mark.parametrize("gap,expected", [(5e-13, True), (2e-12, False)])
def test_dominates_tolerance_edge(gap, expected):
    # A prefix may fall short by up to DEFAULT_TOL = 1e-12.
    assert r.dominates(sv(0.3 - gap, 0.7 + gap), sv(0.3, 0.7)) == expected


def test_dominates_length_mismatch():
    with pytest.raises(ValueError):
        r.dominates(sv(0.5, 0.5), sv(0.3, 0.3, 0.4))


def test_dominates_is_partial_order():
    g = rng(11)
    for _ in range(200):
        q = int(g.integers(2, 8))
        x = random_simplex(g, q)
        assert r.dominates(x, x)  # reflexive
    # Antisymmetry: mutual dominance forces equal prefixes.
    for _ in range(200):
        q = int(g.integers(2, 8))
        x = random_simplex(g, q)
        wiggle = g.uniform(-5e-13, 5e-13, q)
        y = r.SimplexVector(tuple(max(0.0, v + w) for v, w in zip(x.p, wiggle)))
        if r.dominates(x, y) and r.dominates(y, x):
            sx, sy = r.prefix_sums(x), r.prefix_sums(y)
            assert all(abs(a - b) <= 2e-12 for a, b in zip(sx, sy))
    # Transitivity along perturbation chains.
    from helpers import rng as _rng

    g2 = _rng(12)
    for _ in range(200):
        q = int(g2.integers(2, 8))
        c = random_simplex(g2, q)
        b = _shift_front(g2, c)
        a = _shift_front(g2, b)
        assert r.dominates(b, c) and r.dominates(a, b)
        assert r.dominates(a, c)


def _shift_front(g, p):
    vals = list(p.p)
    j = int(g.integers(1, len(vals)))
    i = int(g.integers(0, j))
    amount = vals[j] * float(g.random())
    vals[j] -= amount
    vals[i] += amount
    return r.SimplexVector(tuple(vals))


def _lex_precedes(x, y) -> bool:
    # x <= y lexicographically on prefix sums: at the first prefix where
    # they differ by more than DEFAULT_TOL, x's is the smaller.
    for a, b in zip(r.prefix_sums(x), r.prefix_sums(y)):
        if abs(a - b) > r.DEFAULT_TOL:
            return a < b
    return True


def test_dominance_implies_lex():
    # Dominance is a partial order that the lexicographic order on
    # prefix sums refines.
    g = rng(13)
    for _ in range(300):
        q = int(g.integers(2, 9))
        y = random_simplex(g, q)
        x = _shift_front(g, y)
        assert r.dominates(x, y)
        assert _lex_precedes(y, x)


def test_is_close_examples():
    b = r.PrivacyBudget(math.log(2.0), 0.0)
    p = sv(0.2, 0.1, 0.7)
    assert r.is_close(p, p, r.PrivacyBudget(0.0, 0.0))
    assert r.is_close(p, sv(0.4, 0.2, 0.4), b)
    assert not r.is_close(sv(0.4, 0.2, 0.4), sv(0.7, 0.05, 0.25), b)


@pytest.mark.parametrize("gap,expected", [(5e-13, True), (2e-12, False)])
def test_is_close_tolerance_edge(gap, expected):
    # The excess may top delta by up to DEFAULT_TOL = 1e-12.
    budget = r.PrivacyBudget(0.0, 0.1)
    assert r.is_close(sv(0.5, 0.5), sv(0.4 - gap, 0.6 + gap), budget) == expected


def test_not_close_returns_both_margins_and_their_flags():
    budget = r.PrivacyBudget(math.log(2.0), 0.1)
    a = np.array([[0.2, 0.1, 0.7], [0.4, 0.2, 0.4], [0.9, 0.05, 0.05], [0.5, 0.5, 0.0]])
    b = np.array([[0.2, 0.1, 0.7], [0.7, 0.05, 0.25], [0.1, 0.1, 0.8], [0.2, 0.4, 0.4]])
    margins, over = _not_close(a, b, budget)
    e = budget.exp_epsilon
    for i, (p, q_) in enumerate(zip(r.SimplexVector.wrap(a), r.SimplexVector.wrap(b))):
        assert margins[:, i].tolist() == [r.subset_excess(p, q_, e) - 0.1, r.subset_excess(q_, p, e) - 0.1]
        assert over[:, i].any() != r.is_close(p, q_, budget)
    # The third pair misses both ways, the fourth only from b back to a.
    assert over.T.tolist() == [[False, False], [False, False], [True, True], [False, True]]


def test_is_close_delta_zero_equals_per_element():
    g = rng(14)
    for _ in range(400):
        q = int(g.integers(2, 7))
        p = random_simplex(g, q, zero_rate=0.15)
        q_ = random_simplex(g, q, zero_rate=0.15)
        budget = r.PrivacyBudget(float(g.uniform(0.0, 2.0)), 0.0)
        e = budget.exp_epsilon
        per_element = all(
            a <= e * b + 1e-12 and b <= e * a + 1e-12 for a, b in zip(p, q_)
        )
        assert r.is_close(p, q_, budget) == per_element


def test_is_close_monotone_in_budget():
    g = rng(15)
    for _ in range(300):
        q = int(g.integers(2, 7))
        p = random_simplex(g, q)
        q_ = random_simplex(g, q)
        budget = random_budget(g)
        if r.is_close(p, q_, budget):
            bigger = r.PrivacyBudget(
                budget.epsilon + float(g.uniform(0, 1)),
                min(1.0, budget.delta + float(g.uniform(0, 0.3))),
            )
            assert r.is_close(p, q_, bigger)


def test_no_public_function_takes_a_tolerance():
    # Every check uses the one tolerance the acceptance criteria state.
    assert r.DEFAULT_TOL == 1e-12
    for module in (r.core, r.graph, r.mechanism, r.oracle):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [(name, obj)]
            for attr, fn in members:
                fn = getattr(fn, "__func__", fn)
                if not attr.startswith("_") and inspect.isfunction(fn):
                    params = inspect.signature(fn).parameters
                    assert "tol" not in params, f"{module.__name__}.{name}"


# What `import rainbowdp` binds: the names its __init__ imports and the
# four library modules. A change to this list is a change to the public
# surface, made on purpose.
PUBLIC_NAMES = {
    "BoundaryCondition", "BoundaryGraph", "ColorSpace", "Counterexample",
    "DEFAULT_TOL", "DpReport", "DpViolation",
    "InvalidBoundary",
    "Mechanism", "MissingRainbow",
    "PrivacyBudget", "Rainbow", "RainbowGraph",
    "SimplexVector", "UnconstrainedRegion", "boundary_distances",
    "build_boundary_graph", "build_trajectory",
    "closed_form_prefix", "core",
    "decompose_regions", "dominance_falsify", "dominates", "graph",
    "homogenized_pentagon", "is_boundary_homogeneous", "is_close",
    "is_close_bruteforce", "line_mechanism", "mechanism", "mechanism_dominates",
    "no_optimal_demo", "optimal_mechanism", "oracle", "pentagon_graph",
    "prefix_sums", "sample_close", "subset_excess", "t_step",
    "tau_profile", "to_preference_order", "utility_eval",
    "validate_boundary_condition", "verify_dp",
}


def test_public_surface_is_the_listed_names():
    # The cli subpackage is bound as well once anything has imported it.
    public = {name for name in dir(r) if not name.startswith("_")} - {"cli"}
    assert sorted(public) == sorted(PUBLIC_NAMES)
    assert len(PUBLIC_NAMES) == 44


def test_no_runtime_check_depends_on_assert():
    # python -O drops assert statements and makes __debug__ False, so a
    # check written with either would vanish there.
    package = Path(r.__file__).parent
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno}"
            assert not (isinstance(node, ast.Name) and node.id == "__debug__"), f"{path.name}:{node.lineno}"


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st

@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 10
"""


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    # Under the repo's warning filters, hypothesis's failure report must
    # reach the output: a warning it raises on the way would abort the
    # run with an INTERNALERROR (exit 3) instead.
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    config = Path(__file__).parent.parent / "pyproject.toml"
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_failing_property.py"],
        capture_output=True, text=True, cwd=tmp_path, env=child_env(), timeout=120,
    )
    output = out.stdout + out.stderr
    assert out.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output


BUDGET = r.PrivacyBudget(0.5, 0.01)


def _short_weights():
    # Weights for path5's nodes with one entry too few for n0.
    graph = path5_graph()
    mech = r.optimal_mechanism(graph, path5_bc(), r.PrivacyBudget(math.log(2.0), 0.0))
    weights = {d: (3.0, 2.0, 1.0) for d in graph.nodes}
    weights["n0"] = (3.0, 2.0)
    return r.utility_eval(graph, mech, weights)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: parse_graph_file("colors a a\n"), "line 1: color identifiers must be distinct"),
        (
            lambda: r.RainbowGraph(("a",), (), {"a": r.Rainbow((1, 0))}, r.ColorSpace(("1", "2", "3"))),
            "rainbow of node 'a' has wrong length",
        ),
        (
            lambda: r.BoundaryCondition({r.Rainbow((0, 1, 2)): sv(0.5, 0.5)}),
            "boundary vector length does not match its rainbow",
        ),
        (lambda: r.sample_close(sv(0.3, 0.7), BUDGET, 0, 1), "count must be >= 1"),
        # Three samples, so that one is drawn from the seed's stream.
        (lambda: r.sample_close(sv(0.3, 0.7), BUDGET, 3, -1), "expected non-negative integer"),
        (lambda: r.is_close_bruteforce(sv(0.3, 0.7), sv(0.2, 0.3, 0.5), BUDGET), "length mismatch: 2 vs 3"),
        (lambda: r.closed_form_prefix(sv(0.3, 0.7), BUDGET, -1), "t must be >= 0"),
        (lambda: r.line_mechanism(sv(0.3, 0.7), BUDGET, -1), "n must be >= 0"),
        (lambda: r.build_trajectory(sv(0.3, 0.7), BUDGET, -1), "steps must be >= 0"),
        (lambda: r.build_trajectory(sv(0.3, 0.7), BUDGET, 4, substeps=0), "substeps must be >= 1"),
        (_short_weights, "weight sequence for node 'n0' has wrong length"),
        (lambda: normalized_rows(np.array([0.3, 0.7])), "expected a 2-D array of rows, got 1 dimension"),
    ],
    ids=[
        "repeated-color", "rainbow-length", "boundary-length", "sample-count", "negative-seed",
        "bruteforce-lengths", "negative-t", "negative-n", "negative-steps", "zero-substeps",
        "weight-length", "one-dimensional-rows",
    ],
)
def test_library_input_errors(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
