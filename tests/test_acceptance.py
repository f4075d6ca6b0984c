"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured quantities. Stated tolerances are asserted as given,
never loosened."""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import rainbowdp as r
from rainbowdp.mechanism import _prefix_curve, _t_step_prefix_rows
from rainbowdp.oracle import _drop_delta_rows
from helpers import (
    boundary_line_mechanisms,
    boundary_map,
    check_morphism_reference,
    child_env,
    pullback,
    random_blowup_morphism,
    random_budget,
    random_dp_mechanism,
    random_homogeneous_bc,
    random_simplex,
    random_solvable_graph,
    rng,
    sv,
)

FIXTURES = Path(__file__).parent.parent / "fixtures"


def test_criterion_1_tau_reproduction():
    m = sv(0.0005, 0.0081, 0.1364, 0.2727, 0.5822)
    eps = math.log(1.2)
    cases = {0.0: (38, 22, 7, 1, 0), 1e-3: (25, 20, 7, 1, 0), 0.01: (13, 12, 6, 1, 0)}
    r.tau_profile(m, r.PrivacyBudget(eps, 0.0))  # warm up
    start = time.perf_counter()
    results = {d: r.tau_profile(m, r.PrivacyBudget(eps, d))[1] for d in cases}
    elapsed = time.perf_counter() - start
    for delta, expected in cases.items():
        assert results[delta] == expected, (delta, results[delta])
    assert elapsed < 1e-3, f"tau computation took {elapsed * 1e3:.3f} ms"
    print(f"ACCEPTANCE 1: PASS tau triples integer-exact, {elapsed * 1e6:.0f} us")


def test_criterion_2_closed_form_equals_iteration():
    g = rng(200)
    worst = 0.0
    start = time.perf_counter()
    for trial in range(200):
        q = int(g.integers(2, 9))
        p = random_simplex(g, q, zero_rate=0.2 if trial % 4 == 0 else 0.0)
        e_eps = float(g.uniform(1.01, 10.0))
        delta = 0.0 if trial % 3 == 0 else float(g.uniform(0.0, 0.2))
        budget = r.PrivacyBudget(math.log(e_eps), delta)
        # The closed form at t = 0..60, against the operator iterated on
        # the prefix sums one step at a time.
        curve = _prefix_curve(p, budget, np.arange(61))
        s = np.array([r.prefix_sums(p)])
        for cf in curve:
            dev = float(np.abs(cf - s[0]).max())
            worst = max(worst, dev)
            s = _t_step_prefix_rows(s, budget)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12, f"max prefix deviation {worst}"
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    print(f"ACCEPTANCE 2: PASS max deviation {worst:.3e} over 200 instances, {elapsed:.2f} s")


def test_criterion_3_lemma1_suite():
    start = time.perf_counter()
    g = rng(300)
    for i in range(100):
        q = int(g.integers(2, 9))
        p = random_simplex(g, q, zero_rate=0.15)
        budget = random_budget(g)
        assert r.is_close(p, r.t_step(p, budget), budget)
        ce = r.dominance_falsify(p, budget)
        assert ce is None, (i, ce)
    mutant = r.dominance_falsify(sv(0.1, 0.2, 0.7), r.PrivacyBudget(math.log(2.0), 0.1), _drop_delta_rows)
    assert mutant is not None
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f} s"
    print(
        "ACCEPTANCE 3: PASS the q witnesses of 100 inputs dominated and inside the "
        f"envelope; mutant falsified (margin {mutant.margin:.3e}); {elapsed:.2f} s"
    )


def test_criterion_4_lemma2_suite():
    g = rng(400)
    for _ in range(1000):
        q = int(g.integers(2, 9))
        lo = random_simplex(g, q, zero_rate=0.1)
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
    print("ACCEPTANCE 4: PASS 1000 comparable pairs stay comparable, same direction")


def test_criterion_5_example_demo():
    budget = r.PrivacyBudget(math.log(2.0), 0.0)
    _, _, reports = r.no_optimal_demo(budget)
    assert tuple(report.valid for report in reports) == (True, True, False)
    violation = reports[2].violations[0]
    assert violation.edge == ("d2", "d3")
    assert violation.margin == 0.2 - 2 * 0.05
    from rainbowdp.cli.main import main

    assert main(["demo-no-optimal"]) == 0
    print(f"ACCEPTANCE 5: PASS verdicts (valid, valid, invalid), margin {violation.margin} on (d2,d3)")


def test_criterion_6_closeness_equivalence():
    g = rng(600)
    budgets = [
        r.PrivacyBudget(0.0, 0.0),
        r.PrivacyBudget(0.0, 0.02),
        r.PrivacyBudget(math.log(1.2), 0.0),
        r.PrivacyBudget(math.log(2.0), 1e-3),
        r.PrivacyBudget(math.log(5.0), 0.1),
        r.PrivacyBudget(math.log(1.01), 0.3),
    ]
    disagreements = 0
    for i in range(10_000):
        q = int(g.integers(2, 11))
        p = random_simplex(g, q, zero_rate=0.2)
        budget = budgets[int(g.integers(len(budgets)))]
        if i % 4 == 0:
            q_ = r.t_step(p, budget)
        elif i % 4 == 1:
            mix = float(g.random())
            q_ = r.SimplexVector(tuple((1 - mix) * a + mix * b for a, b in zip(p, random_simplex(g, q))))
        else:
            q_ = random_simplex(g, q, zero_rate=0.2)
        if r.is_close(p, q_, budget) != r.is_close_bruteforce(p, q_, budget):
            disagreements += 1
    assert disagreements == 0
    print("ACCEPTANCE 6: PASS per-element and 2^q subset tests agree on 10000 pairs")


def test_criterion_7_pullback_preserves_dp():
    g = rng(700)
    for _ in range(100):
        codomain = random_solvable_graph(g, max_nodes=14)
        budget = random_budget(g)
        mech = random_dp_mechanism(g, codomain, budget)
        assert r.verify_dp(codomain, mech, budget).valid
        domain, mapping = random_blowup_morphism(g, codomain)
        assert check_morphism_reference(domain, codomain, mapping)[0] == ()
        pulled = pullback(mech, domain, mapping)
        assert r.verify_dp(domain, pulled, budget).valid
    print("ACCEPTANCE 7: PASS 100 pulled-back mechanisms all satisfy the budget")


def test_criterion_8_optimal_mechanism_end_to_end():
    g = rng(800)
    for i in range(50):
        graph = random_solvable_graph(g, max_nodes=40, max_rainbows=4)
        budget = r.PrivacyBudget(float(g.uniform(0.2, 1.5)), float(g.uniform(0.01, 0.15)))
        bc = random_homogeneous_bc(g, graph, budget)
        best = r.optimal_mechanism(graph, bc, budget)
        assert r.verify_dp(graph, best, budget).valid, i
        assert r.is_boundary_homogeneous(graph, best), i
        for eps2 in (0.0, budget.epsilon / 2):
            for delta2 in (0.0, budget.delta / 2):
                smaller = r.PrivacyBudget(eps2, delta2)
                line_mech, bg = boundary_line_mechanisms(graph, bc, smaller)
                competitor = pullback(line_mech, graph, boundary_map(graph, bg))
                assert r.verify_dp(graph, competitor, budget).valid, (i, eps2, delta2)
                assert r.mechanism_dominates(graph, best, competitor), (i, eps2, delta2)
    print("ACCEPTANCE 8: PASS 50 graphs: optimal verifies, homogeneous, dominates 4 smaller-budget competitors")


def _run_cli(args, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "rainbowdp", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_9_byte_identical_cli_outputs(tmp_path):
    fig_args = [
        "trajectory", "--boundary", "0.0005,0.0081,0.1364,0.2727,0.5822",
        "--epsilon", "0.1823215568", "--delta", "0.001", "--steps", "60",
        "--substeps", "2",
    ]
    outs = []
    for tag in ("a", "b"):
        csv_path = tmp_path / f"traj_{tag}.csv"
        stdout = _run_cli(fig_args + ["--out", str(csv_path)], tmp_path)
        svg_path = tmp_path / f"fig_{tag}.svg"
        _run_cli(["plot", str(csv_path), "--out", str(svg_path)], tmp_path)
        mech_path = tmp_path / f"mech_{tag}.csv"
        _run_cli(
            ["build", str(FIXTURES / "path5.graph"), "--e-epsilon", "2",
             "--delta", "0.01", "--out", str(mech_path)],
            tmp_path,
        )
        fuzz_out = _run_cli(
            ["fuzz", "--q", "4", "--trials", "5", "--seed", "9",
             "--epsilon", "0.3", "--delta", "0.05"],
            tmp_path,
        )
        outs.append(
            (
                stdout,
                csv_path.read_bytes(),
                svg_path.read_bytes(),
                mech_path.read_bytes(),
                fuzz_out,
            )
        )
    assert outs[0] == outs[1]
    assert b"tau 25,20,7,1,0" in b"\n".join(outs[0][0].encode().splitlines())
    print("ACCEPTANCE 9: PASS repeated CLI invocations are byte-identical (CSV, SVG, logs)")
