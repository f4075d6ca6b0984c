import hashlib
import math

import numpy as np
import pytest

import rainbowdp as r
from rainbowdp.oracle import _drop_delta_rows, _raw_close_samples
from helpers import random_budget, random_simplex, rng, sv

LOG2 = math.log(2.0)


def _vectors(samples: r.CloseSamples) -> list[r.SimplexVector]:
    # Each sampled row as a SimplexVector holding the stored floats.
    return r.SimplexVector.wrap(samples.rows)


def test_bruteforce_identity_and_example_pair():
    budget = r.PrivacyBudget(LOG2, 0.0)
    p = sv(0.4, 0.2, 0.4)
    assert r.is_close_bruteforce(p, p, budget)
    # The subset {2} is the witness: 0.2 > 2 * 0.05.
    assert not r.is_close_bruteforce(p, sv(0.7, 0.05, 0.25), budget)


def test_bruteforce_alphabet_guard():
    q = 21
    p = r.SimplexVector(tuple(1.0 / q for _ in range(q)))
    with pytest.raises(ValueError):
        r.is_close_bruteforce(p, p, r.PrivacyBudget(1.0, 0.0))


def test_everything_is_close_at_delta_one():
    g = rng(56)
    budget = r.PrivacyBudget(0.0, 1.0)
    for _ in range(50):
        q = int(g.integers(2, 7))
        assert r.is_close(random_simplex(g, q), random_simplex(g, q), budget)


def test_bruteforce_agrees_with_per_element_check():
    g = rng(50)
    budgets = [
        r.PrivacyBudget(0.0, 0.0),
        r.PrivacyBudget(0.0, 0.05),
        r.PrivacyBudget(math.log(1.5), 0.0),
        r.PrivacyBudget(LOG2, 1e-3),
        r.PrivacyBudget(math.log(5.0), 0.1),
    ]
    for i in range(1000):
        q = int(g.integers(2, 11))
        p = random_simplex(g, q, zero_rate=0.2)
        if i % 3 == 0:
            q_ = r.t_step(p, budgets[i % len(budgets)])
        else:
            q_ = random_simplex(g, q, zero_rate=0.2)
        budget = budgets[int(g.integers(len(budgets)))]
        assert r.is_close(p, q_, budget) == r.is_close_bruteforce(p, q_, budget)


def test_sample_close_first_two_and_reproducible():
    p = sv(0.1, 0.2, 0.7)
    budget = r.PrivacyBudget(LOG2, 0.0)
    a = r.sample_close(p, budget, 50, seed=42)
    b = r.sample_close(p, budget, 50, seed=42)
    assert a.rows.shape == (50, 3)
    assert tuple(a.rows[0].tolist()) == p.p
    assert tuple(a.rows[1].tolist()) == r.t_step(p, budget).p
    assert a.rows.tolist() == b.rows.tolist()
    c = r.sample_close(p, budget, 50, seed=43)
    assert a.rows.tolist() != c.rows.tolist()


def test_sample_close_normalizes_each_candidate_as_the_constructor_does():
    g = rng(52)
    for _ in range(10):
        p = random_simplex(g, int(g.integers(2, 9)), zero_rate=0.3)
        budget = random_budget(g)
        raw = _raw_close_samples(np.array([p.p]), budget, 62, [9])
        samples = r.sample_close(p, budget, 64, seed=9).rows
        assert [tuple(row) for row in samples[2:].tolist()] == [
            r.SimplexVector(tuple(row)).p for row in raw
        ]


def test_sample_close_all_pass_bruteforce():
    p = sv(0.1, 0.2, 0.7)
    budget = r.PrivacyBudget(LOG2, 0.0)
    samples = r.sample_close(p, budget, 1000, seed=42)
    assert len(samples.rows) == 1000
    for vec in _vectors(samples):
        assert r.is_close_bruteforce(vec, p, budget)


def test_sample_close_keeps_support_at_delta_zero():
    p = sv(0.0, 0.5, 0.5)
    budget = r.PrivacyBudget(LOG2, 0.0)
    for vec in _vectors(r.sample_close(p, budget, 200, seed=7)):
        assert vec.p[0] == 0.0
        assert r.is_close(vec, p, budget)


# sha256 of sample_close(p, budget, count, seed).rows.tobytes(), taken
# before the falsifier moved to blocks of trials; the bytes must not change.
_P8 = (
    0.07507868503759141, 0.22354126840513192, 0.2491328647564422, 0.05606201534092662,
    0.31606280538667386, 0.04054777997645131, 0.005414203754745267, 0.034160377342037335,
)
SAMPLE_CLOSE_GOLDEN = [
    # delta = 0 with a zero entry: the samples keep p's support.
    ((0.0, 0.25, 0.35, 0.4), (LOG2, 0.0), 40, 5,
     "5811bfb9137c99ccbe7bd15e74c043f24ddb2dfbf6b21b5a14cc31c267ec9487"),
    ((0.1, 0.2, 0.3, 0.4), (0.0, 0.05), 40, 6,
     "8ccabe73de3896748c0de0b805091bd1ab07d3872b6700ba58cb5fcf40282933"),
    # The degenerate budget and count 1 both give [p].
    ((0.1, 0.2, 0.3, 0.4), (0.0, 0.0), 10, 1,
     "538d5a758011f8c8236d0fd972b83aae833c9cace13fc185de36736ac64c3e3c"),
    ((0.1, 0.2, 0.3, 0.4), (0.3, 0.01), 1, 2,
     "538d5a758011f8c8236d0fd972b83aae833c9cace13fc185de36736ac64c3e3c"),
    ((0.1, 0.2, 0.3, 0.4), (0.3, 0.01), 2, 2,
     "f81cdb8204accf091011abcd66522a2e67382b1b40761750f562c9da4b775882"),
    ((0.1, 0.2, 0.3, 0.4), (0.3, 0.01), 3, 2,
     "35c1fa72cd6170a8c7a98a69a84641ba024e988552f474daf75d7c47061632ec"),
    (_P8, (math.log(1.2), 1e-3), 64, 1_000_010,
     "de71403dfa543c367874e72ddefb359976b508a09422fa58840e8dd0232a1b83"),
]


@pytest.mark.parametrize("p,budget,count,seed,digest", SAMPLE_CLOSE_GOLDEN)
def test_sample_close_golden_bytes(p, budget, count, seed, digest):
    rows = r.sample_close(r.SimplexVector(p), r.PrivacyBudget(*budget), count, seed).rows
    assert rows.shape == (1 if budget == (0.0, 0.0) else count, len(p))
    assert hashlib.sha256(rows.tobytes()).hexdigest() == digest


def test_sample_close_degenerate_budget():
    p = sv(0.1, 0.9)
    out = r.sample_close(p, r.PrivacyBudget(0.0, 0.0), 10, seed=1)
    assert out.rows.tolist() == [list(p.p)]
    assert out.degenerate_budget


def test_sample_close_random_budgets():
    g = rng(51)
    for _ in range(20):
        q = int(g.integers(2, 8))
        p = random_simplex(g, q, zero_rate=0.2)
        budget = random_budget(g)
        for vec in _vectors(r.sample_close(p, budget, 100, seed=int(g.integers(2**31)))):
            assert r.is_close(vec, p, budget)


def test_dominance_falsify_clean_on_real_operator():
    g = rng(52)
    for i in range(30):
        q = int(g.integers(2, 8))
        p = random_simplex(g, q, zero_rate=0.15)
        budget = random_budget(g)
        report = r.dominance_falsify(p, budget, trials=300, seed=1000 + i)
        assert report.counterexample is None
        assert report.trials == 300
        assert report.seed == 1000 + i


def test_dominance_falsify_requires_trials():
    with pytest.raises(ValueError):
        r.dominance_falsify(sv(0.5, 0.5), r.PrivacyBudget(1.0, 0.0), trials=0, seed=1)


def test_dominance_falsify_catches_delta_dropping_mutant():
    p = sv(0.1, 0.2, 0.7)
    budget = r.PrivacyBudget(LOG2, 0.1)
    report = r.dominance_falsify(p, budget, trials=1000, seed=7, step_rows=_drop_delta_rows)
    ce = report.counterexample
    assert ce is not None
    # The counterexample is genuinely close to p yet beats the mutant's
    # prefix at the reported index.
    assert r.is_close(ce.vector, p, budget)
    mutant_prefix = r.prefix_sums(_drop_delta_rows(np.array([p.p]), budget)[0])
    observed = r.prefix_sums(ce.vector)[ce.prefix_index]
    assert observed > mutant_prefix[ce.prefix_index] + 1e-12
    assert ce.margin > 1e-12


def test_dominance_falsify_mutant_harmless_at_delta_zero():
    # Dropping delta changes nothing when delta is already zero.
    p = sv(0.1, 0.2, 0.7)
    budget = r.PrivacyBudget(LOG2, 0.0)
    report = r.dominance_falsify(p, budget, trials=500, seed=7, step_rows=_drop_delta_rows)
    assert report.counterexample is None


def test_no_optimal_demo_canonical():
    report = r.no_optimal_demo()
    assert (report.mech1_valid, report.mech2_valid, report.mech3_valid) == (True, True, False)
    assert report.violating_edge == ("d2", "d3")
    assert report.margin == 0.2 - 2 * 0.05
    assert not report.boundary_homogeneous
    # The demo reads rows only; mech3 takes d2 and d3 from the same literals.
    for mech in (report.mech1, report.mech2, report.mech3):
        assert "assignment" not in vars(mech)
    row_of = report.mech3.row_of
    assert tuple(report.mech3.rows[row_of["d2"]].tolist()) == sv(0.4, 0.2, 0.4).p
    assert tuple(report.mech3.rows[row_of["d3"]].tolist()) == sv(0.7, 0.05, 0.25).p


def test_no_optimal_demo_parameterized():
    # At e^eps = 4 the forced mechanism's gap closes: 0.2 <= 4 * 0.05.
    report = r.no_optimal_demo(r.PrivacyBudget(math.log(4.0), 0.0))
    assert report.mech3_valid
    # At e^eps = 3 it is still violated, with margin 0.2 - 3 * 0.05.
    report3 = r.no_optimal_demo(r.PrivacyBudget(math.log(3.0), 0.0))
    assert not report3.mech3_valid
    assert report3.margin == pytest.approx(0.05, abs=1e-12)


def test_homogenized_pentagon_builds_and_verifies():
    budget = r.PrivacyBudget(LOG2, 0.0)
    graph, mech = r.homogenized_pentagon(budget)
    assert r.verify_dp(graph, mech, budget).valid
    assert r.is_boundary_homogeneous(graph, mech)
    assert mech.assignment["d1"] == mech.assignment["d4"]


def test_bruteforce_chunked_alphabets_agree_with_per_element_check():
    # At q = 15 and 16 the subsets span several enumeration chunks; the
    # verdicts still match the per-element check.
    g = rng(48)
    verdicts = set()
    for q in range(13, 17):
        for _ in range(6):
            p = random_simplex(g, q)
            budget = random_budget(g)
            near = _vectors(r.sample_close(p, budget, 3, seed=int(g.integers(1 << 30))))[-1]
            for other in (near, random_simplex(g, q)):
                expected = r.is_close(p, other, budget)
                assert r.is_close_bruteforce(p, other, budget) == expected
                assert r.is_close_bruteforce(other, p, budget) == expected
                verdicts.add(expected)
    assert verdicts == {True, False}
