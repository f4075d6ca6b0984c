import hashlib
import math
from unittest import mock

import numpy as np
import pytest

import rainbowdp as r
from rainbowdp import oracle
from rainbowdp.oracle import Counterexample, _drop_delta_rows, _fuzz, _StepMiss
from helpers import dirichlet_start, random_budget, random_simplex, rng, sv

LOG2 = math.log(2.0)


def test_bruteforce_identity_and_example_pair():
    budget = r.PrivacyBudget(LOG2, 0.0)
    p = sv(0.4, 0.2, 0.4)
    assert r.is_close_bruteforce(p, p, budget)
    # The subset {2} is the witness: 0.2 > 2 * 0.05.
    assert not r.is_close_bruteforce(p, sv(0.7, 0.05, 0.25), budget)


@pytest.mark.parametrize("gap,expected", [(5e-13, True), (2e-12, False)])
def test_bruteforce_tolerance_edge(gap, expected):
    # The worst subset may top delta by up to DEFAULT_TOL = 1e-12.
    budget = r.PrivacyBudget(0.0, 0.1)
    assert r.is_close_bruteforce(sv(0.5, 0.5), sv(0.4 - gap, 0.6 + gap), budget) == expected


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
    assert a.shape == (50, 3)
    assert tuple(a[0].tolist()) == p.p
    assert tuple(a[1].tolist()) == r.t_step(p, budget).p
    assert a.tolist() == b.tolist()
    c = r.sample_close(p, budget, 50, seed=43)
    assert a.tolist() != c.tolist()


def test_sample_close_normalizes_each_candidate_as_the_constructor_does():
    # Row by row: the SimplexVector of sum_k lam_k w_k, summed left to
    # right over k in plain floats, lam the Dirichlet draw of the row.
    g = rng(52)
    for _ in range(10):
        p = random_simplex(g, int(g.integers(2, 9)), zero_rate=0.3)
        budget = random_budget(g)
        w = oracle._witnesses(np.array(p.p), budget).tolist()
        expected = []
        for row in np.random.default_rng(9).standard_exponential((62, len(p))):
            lam = dirichlet_start(row).p
            mix = [lam[0] * x for x in w[0]]
            for lam_k, w_k in zip(lam[1:], w[1:]):
                mix = [m + lam_k * x for m, x in zip(mix, w_k)]
            expected.append(r.SimplexVector(tuple(mix)).p)
        samples = r.sample_close(p, budget, 64, seed=9)
        assert [tuple(row) for row in samples[2:].tolist()] == expected


def test_sample_close_refuses_a_mix_not_close_to_p():
    # A mix that fails the re-check is an error, not a sample: the
    # witnesses below move all of p's mass onto its last color.
    p = sv(0.1, 0.2, 0.7)
    far = np.array([[0.0, 0.0, 1.0]] * 3)
    with mock.patch.object(oracle, "_witnesses", return_value=far):
        with pytest.raises(RuntimeError, match="sample_close produced a sample that is not close to p"):
            r.sample_close(p, r.PrivacyBudget(LOG2, 0.0), 5, seed=1)


def test_sample_close_all_pass_bruteforce():
    p = sv(0.1, 0.2, 0.7)
    budget = r.PrivacyBudget(LOG2, 0.0)
    samples = r.sample_close(p, budget, 1000, seed=42)
    assert len(samples) == 1000
    for vec in r.SimplexVector.wrap(samples):
        assert r.is_close_bruteforce(vec, p, budget)


def test_sample_close_keeps_support_at_delta_zero():
    p = sv(0.0, 0.5, 0.5)
    budget = r.PrivacyBudget(LOG2, 0.0)
    for vec in r.SimplexVector.wrap(r.sample_close(p, budget, 200, seed=7)):
        assert vec.p[0] == 0.0
        assert r.is_close(vec, p, budget)


# sha256 of sample_close(p, budget, count, seed).tobytes(), taken when
# its samples past the second became mixes of p's witnesses.
_P8 = (
    0.07507868503759141, 0.22354126840513192, 0.2491328647564422, 0.05606201534092662,
    0.31606280538667386, 0.04054777997645131, 0.005414203754745267, 0.034160377342037335,
)
SAMPLE_CLOSE_GOLDEN = [
    # delta = 0 with a zero entry: the samples keep p's support.
    pytest.param((0.0, 0.25, 0.35, 0.4), (LOG2, 0.0), 40, 5,
                 "87cc16628fe91ad4e94657a8737a4cbc8b9fba8b04bd94edac24accec390d624", id="delta0-support"),
    pytest.param((0.1, 0.2, 0.3, 0.4), (0.0, 0.05), 40, 6,
                 "55c0a5be9bac39000ec5bb721fb70523bd1f8b84008f978867228820be4896e3", id="eps0"),
    # The degenerate budget and count 1 both give [p].
    pytest.param((0.1, 0.2, 0.3, 0.4), (0.0, 0.0), 10, 1,
                 "538d5a758011f8c8236d0fd972b83aae833c9cace13fc185de36736ac64c3e3c", id="degenerate-budget"),
    pytest.param((0.1, 0.2, 0.3, 0.4), (0.3, 0.01), 1, 2,
                 "538d5a758011f8c8236d0fd972b83aae833c9cace13fc185de36736ac64c3e3c", id="count1"),
    pytest.param((0.1, 0.2, 0.3, 0.4), (0.3, 0.01), 2, 2,
                 "f81cdb8204accf091011abcd66522a2e67382b1b40761750f562c9da4b775882", id="count2"),
    pytest.param((0.1, 0.2, 0.3, 0.4), (0.3, 0.01), 3, 2,
                 "aa7c8e7d056b9b244fafafe89a87b6c6c87d4025ec528345a69e7e92bae615f5", id="count3"),
    pytest.param(_P8, (math.log(1.2), 1e-3), 64, 1_000_010,
                 "fc0648af1c6d233eb0d8b4d0cf7f8c5a8774351ebbd8bc16ebe7390a0cf93a13", id="q8"),
    pytest.param((0.1, 0.2, 0.3, 0.4), (1e-4, 1e-7), 40, 7,
                 "a7b907b345c2661a31ad4392bc5b55ac9c6cdbb159185d80f95294fe9550a5ab", id="tiny-eps"),
    pytest.param((0.0, 0.25, 0.35, 0.4), (1e-4, 1e-7), 40, 8,
                 "b985987f76635ab05bbc1625ebe0c8a316bdc81ea5ea85b92fd026e2f4ee7769", id="tiny-eps-support"),
    pytest.param(_P8, (1e-4, 1e-7), 64, 1_000_011,
                 "6861adf4a0d7012186832fc026fe1da4359259aae51d82d0e76d5575a3e1125b", id="tiny-eps-q8"),
]


@pytest.mark.parametrize("p,budget,count,seed,digest", SAMPLE_CLOSE_GOLDEN)
def test_sample_close_golden_bytes(p, budget, count, seed, digest):
    rows = r.sample_close(r.SimplexVector(p), r.PrivacyBudget(*budget), count, seed)
    assert rows.shape == (1 if budget == (0.0, 0.0) else count, len(p))
    assert hashlib.sha256(rows.tobytes()).hexdigest() == digest


def test_sample_close_degenerate_budget():
    p = sv(0.1, 0.9)
    out = r.sample_close(p, r.PrivacyBudget(0.0, 0.0), 10, seed=1)
    # Fewer rows than asked for: the budget admits no other distribution.
    assert out.tolist() == [list(p.p)]


def test_sample_close_random_budgets():
    g = rng(51)
    for _ in range(20):
        q = int(g.integers(2, 8))
        p = random_simplex(g, q, zero_rate=0.2)
        budget = random_budget(g)
        for vec in r.SimplexVector.wrap(r.sample_close(p, budget, 100, seed=int(g.integers(2**31)))):
            assert r.is_close(vec, p, budget)


def test_dominance_falsify_clean_on_real_operator():
    g = rng(52)
    for i in range(30):
        q = int(g.integers(2, 8))
        p = random_simplex(g, q, zero_rate=0.15)
        budget = random_budget(g)
        assert r.dominance_falsify(p, budget) is None


def test_dominance_falsify_catches_delta_dropping_mutant():
    p = sv(0.1, 0.2, 0.7)
    budget = r.PrivacyBudget(LOG2, 0.1)
    ce = r.dominance_falsify(p, budget, step_rows=_drop_delta_rows)
    assert isinstance(ce, Counterexample)
    # The counterexample is genuinely close to p yet beats the mutant's
    # prefix at the reported index.
    assert r.is_close(ce.vector, p, budget)
    mutant_prefix = r.prefix_sums(_drop_delta_rows(np.array([p.p]), budget)[0])
    observed = r.prefix_sums(ce.vector)[ce.prefix_index]
    assert observed > mutant_prefix[ce.prefix_index] + 1e-12
    assert ce.margin > 1e-12
    # It is the witness of the prefix the mutant misses most: at e^eps = 2
    # the first prefix grows by 0.1 less, and the witness puts
    # g(0.1) = 0.3 on it and scales the rest by 0.7 / 0.9.
    assert ce.prefix_index == 0 and ce.margin == pytest.approx(0.1, abs=1e-15)
    assert ce.vector.p == pytest.approx((0.3, 0.2 * 0.7 / 0.9, 0.7 * 0.7 / 0.9), abs=1e-15)


def test_dominance_falsify_mutant_harmless_at_delta_zero():
    # Dropping delta changes nothing when delta is already zero.
    p = sv(0.1, 0.2, 0.7)
    budget = r.PrivacyBudget(LOG2, 0.0)
    assert r.dominance_falsify(p, budget, step_rows=_drop_delta_rows) is None


@pytest.mark.parametrize(
    "name,fake,message",
    [
        ("is_close", lambda *args: False, "falsifier produced a sample that is not close to p"),
        ("prefix_sums", lambda vec: (0.0,) * len(vec), "falsifier counterexample failed re-verification"),
    ],
    ids=["closeness", "prefix"],
)
def test_dominance_falsify_refuses_a_counterexample_that_fails_re_verification(monkeypatch, name, fake, message):
    # The mutant yields a counterexample; with either re-check faked to
    # fail on it, the falsifier raises instead of reporting it.
    monkeypatch.setattr(oracle, name, fake)
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        r.dominance_falsify(sv(0.1, 0.2, 0.7), r.PrivacyBudget(LOG2, 0.1), _drop_delta_rows)


def _last_only(rows, budget):
    # A corrupted operator whose prefixes are 0 up to the last: every
    # witness beats them.
    out = np.zeros_like(rows)
    out[:, -1] = 1.0
    return out


@pytest.mark.parametrize("epsilon,kind", [(0.5, Counterexample), (50.0, _StepMiss)])
def test_fuzz_reports_the_step_miss_of_a_trial_that_also_has_a_hit(epsilon, kind):
    budget = r.PrivacyBudget(epsilon, 0.01)
    trial, p, found = _fuzz(4, budget, 5, 1, _last_only)
    assert trial == 0 and isinstance(found, kind)
    if kind is Counterexample:
        assert r.dominance_falsify(p, budget, _last_only) == found
    else:
        # The one-trial falsifier refuses the trial that fuzz reports as a miss.
        with pytest.raises(ValueError, match="not close to p"):
            r.dominance_falsify(p, budget, _last_only)
    step = r.t_step(p, budget)
    assert r.is_close(step, p, budget) == (kind is Counterexample)
    if kind is _StepMiss:
        assert found.step == step
        excess = max(r.subset_excess(step, p, budget.exp_epsilon), r.subset_excess(p, step, budget.exp_epsilon))
        assert found.margin == excess - budget.delta


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: a q = 12 step at epsilon = 8 misses the budget")
def test_fuzz_finds_no_step_miss_at_q12_epsilon_8():
    # Until item 2 lands, trial 0 reports a step-not-close, margin about 1.01e-12.
    assert _fuzz(12, r.PrivacyBudget(8.0, 0.0), 30, 22) is None


def test_no_optimal_demo_canonical():
    graph, mechs, reports = r.no_optimal_demo()
    assert tuple(report.valid for report in reports) == (True, True, False)
    assert reports[2].violations[0].edge == ("d2", "d3")
    assert reports[2].violations[0].margin == 0.2 - 2 * 0.05
    assert not r.is_boundary_homogeneous(graph, mechs[0])
    # The demo reads rows only; mech3 takes d2 and d3 from the same literals.
    for mech in mechs:
        assert "assignment" not in vars(mech)
    mech3, index = mechs[2], graph.node_index
    assert mech3.nodes is graph.nodes
    assert tuple(mech3.rows[mech3.node_rows[index["d2"]]].tolist()) == sv(0.4, 0.2, 0.4).p
    assert tuple(mech3.rows[mech3.node_rows[index["d3"]]].tolist()) == sv(0.7, 0.05, 0.25).p


def test_no_optimal_demo_parameterized():
    # At e^eps = 4 the forced mechanism's gap closes: 0.2 <= 4 * 0.05.
    _, _, (_, _, report) = r.no_optimal_demo(r.PrivacyBudget(math.log(4.0), 0.0))
    assert report.valid
    # At e^eps = 3 it is still violated, with margin 0.2 - 3 * 0.05.
    _, _, (_, _, report3) = r.no_optimal_demo(r.PrivacyBudget(math.log(3.0), 0.0))
    assert not report3.valid
    assert report3.violations[0].margin == pytest.approx(0.05, abs=1e-12)


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
            near = r.SimplexVector.wrap(r.sample_close(p, budget, 3, seed=int(g.integers(1 << 30))))[-1]
            for other in (near, random_simplex(g, q)):
                expected = r.is_close(p, other, budget)
                assert r.is_close_bruteforce(p, other, budget) == expected
                assert r.is_close_bruteforce(other, p, budget) == expected
                verdicts.add(expected)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "call",
    [
        lambda p: r.sample_close(p, r.PrivacyBudget(50.0, 0.01), 3, 0),
        lambda p: r.dominance_falsify(p, r.PrivacyBudget(12.0, 0.01), _drop_delta_rows),
    ],
    ids=["sample_close", "dominance_falsify"],
)
def test_one_trial_refuses_a_step_not_close_to_p(call):
    # At these budgets t_step(p) is not close to p (ROADMAP item 2):
    # sample_close would hand it out as its second sample. Both stop
    # before any witness is built, as fuzz reports such a trial.
    p = sv(0.15, 0.05, 0.75, 0.05)
    with mock.patch.object(oracle, "_witnesses", side_effect=AssertionError("built witnesses")):
        with pytest.raises(ValueError, match=r"not close to p .*\(margin [0-9.e+-]+\); see ROADMAP.md item 2"):
            call(p)
