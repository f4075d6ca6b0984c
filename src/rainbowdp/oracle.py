"""Independent verification oracles: exhaustive subset closeness, seeded
sampling of close distributions, dominance falsification, and the
pentagon demonstration that non-homogeneous boundary conditions can
admit valid mechanisms but no optimal one.

All randomness flows through explicitly seeded 64-bit PCG64 generators;
there is no global RNG state anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    DEFAULT_TOL,
    ColorSpace,
    PrivacyBudget,
    Rainbow,
    SimplexVector,
    is_close,
    normalized_rows,
    prefix_sums,
)
from .graph import RainbowGraph
from .mechanism import (
    BoundaryCondition,
    Mechanism,
    is_boundary_homogeneous,
    optimal_mechanism,
    t_step,
    t_step_prefixes,
    verify_dp,
)

_MAX_BRUTEFORCE_Q = 20


def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


# Subsets are enumerated in chunks of this many rows (2^14 x 20 float64,
# 2.5 MiB at q = 20), so memory stays bounded whatever the alphabet size.
_MASK_CHUNK_ROWS = 1 << 14


def _mask_rows(q: int, start: int, stop: int) -> np.ndarray:
    # Row i is the indicator vector of outcome subset number start + i.
    idx = np.arange(start, stop, dtype=np.uint32)
    return ((idx[:, None] >> np.arange(q)) & 1).astype(np.float64)


def is_close_bruteforce(p: SimplexVector, q_: SimplexVector, budget: PrivacyBudget) -> bool:
    """Closeness by literal quantification over all 2^q outcome subsets.

    Semantically identical to core.is_close; exists as an independent
    cross-check of the per-element shortcut.
    """
    if len(p) != len(q_):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q_)}")
    if len(p) > _MAX_BRUTEFORCE_Q:
        raise ValueError(f"alphabet too large for subset enumeration: {len(p)}")
    pa = np.asarray(p.p)
    qa = np.asarray(q_.p)
    e = budget.exp_epsilon
    worst_pq = worst_qp = -math.inf
    n = 2 ** len(p)
    for start in range(0, n, _MASK_CHUNK_ROWS):
        masks = _mask_rows(len(p), start, min(start + _MASK_CHUNK_ROWS, n))
        ps = masks @ pa
        qs = masks @ qa
        worst_pq = max(worst_pq, float(np.max(ps - e * qs)))
        worst_qp = max(worst_qp, float(np.max(qs - e * ps)))
    bound = budget.delta + DEFAULT_TOL
    return worst_pq <= bound and worst_qp <= bound


@dataclass(frozen=True, eq=False)
class CloseSamples:
    """Output of sample_close: the distributions, as the rows of a
    float64 matrix. degenerate_budget is set when the budget admits no
    distribution other than p itself."""

    rows: np.ndarray = field(repr=False)
    degenerate_budget: bool = False


def _accept_mask(cand: np.ndarray, pa: np.ndarray, budget: PrivacyBudget) -> np.ndarray:
    # Strict closeness (no tolerance slack) so the rows still pass
    # is_close after construction-time renormalization.
    e = budget.exp_epsilon
    ex1 = np.maximum(cand - e * pa, 0.0).sum(axis=1)
    ex2 = np.maximum(pa - e * cand, 0.0).sum(axis=1)
    return (ex1 <= budget.delta) & (ex2 <= budget.delta)


def _raw_close_samples(
    p: SimplexVector, budget: PrivacyBudget, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n accepted candidates, as rows. Candidates mix p toward a uniform
    simplex draw with a random weight; rejected rows have their weight
    halved until they pass, which terminates because the close set
    contains a neighborhood of p (within its support) whenever eps > 0
    or delta > 0."""
    q = len(p)
    pa = np.asarray(p.p)
    if budget.delta > 0.0:
        support = np.ones(q, dtype=bool)
    else:
        support = pa > 0.0
    gam = np.zeros((n, q))
    gam[:, support] = rng.gamma(1.0, 1.0, size=(n, int(support.sum())))
    u = gam / gam.sum(axis=1, keepdims=True)
    lam = rng.uniform(0.0, 1.0, size=n)

    cand = pa + lam[:, None] * (u - pa)
    for _ in range(200):
        bad = ~_accept_mask(cand, pa, budget)
        if not bad.any():
            break
        lam[bad] *= 0.5
        cand[bad] = pa + lam[bad, None] * (u[bad] - pa)
    else:
        cand[~_accept_mask(cand, pa, budget)] = pa
    return cand


def sample_close(
    p: SimplexVector, budget: PrivacyBudget, count: int, seed: int
) -> CloseSamples:
    """Deterministic sample of `count` distributions, each (eps,delta)-
    close to p. The first sample is always p and the second is t_step(p);
    the rest come from seeded rejection sampling.

    A (0,0) budget admits only p itself: the result is [p] with the
    degenerate flag set when more was requested.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if budget.epsilon == 0.0 and budget.delta == 0.0:
        return CloseSamples(np.array([p.p]), degenerate_budget=count > 1)
    rows = np.array([p.p] if count == 1 else [p.p, t_step(p, budget).p])
    if count > 2:
        raw = normalized_rows(_raw_close_samples(p, budget, count - 2, _rng(seed)))
        rows = np.concatenate((rows, raw))
    return CloseSamples(rows)


@dataclass(frozen=True)
class Counterexample:
    vector: SimplexVector
    prefix_index: int
    margin: float


@dataclass(frozen=True)
class FalsificationReport:
    trials: int
    counterexample: Counterexample | None
    seed: int


def dominance_falsify(
    p: SimplexVector,
    budget: PrivacyBudget,
    trials: int,
    seed: int,
    step_fn: Callable[[SimplexVector, PrivacyBudget], SimplexVector] | None = None,
) -> FalsificationReport:
    """Search for a close distribution that the operator output fails to
    dominate.

    Each sampled close p'' is checked against the prefix sums of
    step_fn(p) and against the analytic envelope
    min(1, min(e^eps s_k, 1 - e^-eps (1 - s_k)) + delta). For the real
    operator the two coincide and no counterexample exists; the hook
    exists so a deliberately corrupted operator can be fed to the same
    harness. A sample fails when one of its prefixes exceeds the bound
    by more than DEFAULT_TOL. A reported counterexample is re-verified
    (closeness to p and the violated prefix) before being returned.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    op = step_fn if step_fn is not None else t_step
    target = np.asarray(prefix_sums(op(p, budget)))
    envelope = np.asarray(t_step_prefixes(prefix_sums(p), budget))
    bound = np.minimum(target, envelope)

    samples = sample_close(p, budget, trials, seed)
    prefixes = np.cumsum(samples.rows, axis=1)
    excess = prefixes - bound[None, :]
    worst_k = np.argmax(excess, axis=1)
    worst = excess[np.arange(len(prefixes)), worst_k]
    hits = np.nonzero(worst > DEFAULT_TOL)[0]

    counterexample = None
    if hits.size:
        i = int(hits[0])
        vec = SimplexVector.wrap(samples.rows[i:i + 1])[0]
        k = int(worst_k[i])
        margin = float(worst[i])
        if not is_close(vec, p, budget):
            raise RuntimeError("falsifier produced a sample that is not close to p")
        if prefix_sums(vec)[k] <= min(target[k], envelope[k]) + DEFAULT_TOL:
            raise RuntimeError("falsifier counterexample failed re-verification")
        counterexample = Counterexample(vector=vec, prefix_index=k, margin=margin)
    return FalsificationReport(trials=len(prefixes), counterexample=counterexample, seed=seed)


def _drop_delta_step(p: SimplexVector, budget: PrivacyBudget) -> SimplexVector:
    """Deliberately corrupted operator that forgets the +delta term.

    Kept here for harness self-validation: when delta > 0 the falsifier
    must catch this mutant quickly.
    """
    stripped = PrivacyBudget(budget.epsilon, 0.0)
    return t_step(p, stripped)


def pentagon_graph() -> RainbowGraph:
    """Five datasets on a cycle: d1..d4 prefer (1,2,3), d5 prefers (1,3,2)."""
    space = ColorSpace(("1", "2", "3"))
    c123 = Rainbow((0, 1, 2))
    c132 = Rainbow((0, 2, 1))
    nodes = ("d1", "d2", "d3", "d4", "d5")
    edges = frozenset(
        (("d1", "d2"), ("d2", "d3"), ("d3", "d4"), ("d4", "d5"), ("d1", "d5"))
    )
    preference = {d: c123 for d in ("d1", "d2", "d3", "d4")}
    preference["d5"] = c132
    return RainbowGraph(nodes, edges, preference, space)


# Non-homogeneous boundary of the pentagon. The cycle leaves d5's value
# unpinned; (0.3, 0.1, 0.6) is close to both neighbors at e^eps = 2,
# delta = 0, so every verdict below is about the interior nodes.
_PENTAGON_BOUNDARY = {
    "d1": (0.2, 0.1, 0.7),
    "d4": (0.4, 0.1, 0.5),
    "d5": (0.3, 0.1, 0.6),
}


@dataclass(frozen=True, eq=False)
class NoOptimalReport:
    budget: PrivacyBudget
    graph: RainbowGraph
    mech1: Mechanism
    mech2: Mechanism
    mech3: Mechanism
    mech1_valid: bool
    mech2_valid: bool
    mech3_valid: bool
    violating_edge: tuple[str, str] | None
    margin: float | None
    boundary_homogeneous: bool


def no_optimal_demo(budget: PrivacyBudget | None = None) -> NoOptimalReport:
    """Exhibit a non-homogeneous boundary condition with valid mechanisms
    but no optimal one.

    Two valid completions of the pentagon boundary are built; the
    mechanism forced by dominance against both (d2 from the first, d3
    from the second) violates closeness on edge (d2, d3). At the
    canonical budget e^eps = 2, delta = 0 the verdict triple is
    (valid, valid, invalid).
    """
    if budget is None:
        budget = PrivacyBudget(math.log(2.0), 0.0)
    graph = pentagon_graph()
    space = graph.color_space
    base = {d: SimplexVector(v) for d, v in _PENTAGON_BOUNDARY.items()}
    d2_of_mech1 = SimplexVector((0.4, 0.2, 0.4))
    d3_of_mech2 = SimplexVector((0.7, 0.05, 0.25))

    mech1 = Mechanism({**base, "d2": d2_of_mech1, "d3": d2_of_mech1}, space)
    mech2 = Mechanism({**base, "d2": SimplexVector((0.4, 0.1, 0.5)), "d3": d3_of_mech2}, space)
    mech3 = Mechanism({**base, "d2": d2_of_mech1, "d3": d3_of_mech2}, space)

    r1 = verify_dp(graph, mech1, budget)
    r2 = verify_dp(graph, mech2, budget)
    r3 = verify_dp(graph, mech3, budget)
    edge = r3.violations[0].edge if r3.violations else None
    margin = r3.violations[0].margin if r3.violations else None
    return NoOptimalReport(
        budget=budget,
        graph=graph,
        mech1=mech1,
        mech2=mech2,
        mech3=mech3,
        mech1_valid=r1.valid,
        mech2_valid=r2.valid,
        mech3_valid=r3.valid,
        violating_edge=edge,
        margin=margin,
        boundary_homogeneous=is_boundary_homogeneous(graph, mech1),
    )


def homogenized_pentagon(budget: PrivacyBudget | None = None) -> tuple[RainbowGraph, Mechanism]:
    """The same pentagon with the boundary made homogeneous
    (d1 = d4 = (0.4, 0.1, 0.5)); here the optimal mechanism exists."""
    if budget is None:
        budget = PrivacyBudget(math.log(2.0), 0.0)
    graph = pentagon_graph()
    c123 = graph.preference["d1"]
    c132 = graph.preference["d5"]
    bc = BoundaryCondition(
        {
            c123: SimplexVector((0.4, 0.1, 0.5)),
            c132: SimplexVector((0.3, 0.1, 0.6)),
        }
    )
    return graph, optimal_mechanism(graph, bc, budget)
