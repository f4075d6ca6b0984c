"""Independent verification oracles: exhaustive subset closeness, seeded
sampling of close distributions, dominance falsification, and the
pentagon demonstration that non-homogeneous boundary conditions can
admit valid mechanisms but no optimal one.

The falsifier works on a stack of trials at once: each trial draws from
its own generators, then one rejection loop, one normalization, one
operator step (t_step_rows) and one prefix check run on the stacked rows.
sample_close and dominance_falsify are its one-trial case, and `fuzz`
runs it on blocks of about _BLOCK_ROWS sample rows. The operator it
tests is a function of a stack of rows: the real one, t_step_rows, or
the deliberately corrupted _drop_delta_rows of its self-test.

All randomness flows through explicitly seeded 64-bit PCG64 generators;
there is no global RNG state anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

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
    _t_step_prefix_rows,
    is_boundary_homogeneous,
    optimal_mechanism,
    t_step_rows,
    verify_dp,
)

_MAX_BRUTEFORCE_Q = 20

# The falsifier runs trials in blocks of about this many sample rows, and
# its rejection loop this many rows at a time: numpy's per-call cost is
# paid once per block, and a block's arrays (384 KB each at q = 12, about
# 4 MB in all) do not grow with the number of trials.
_BLOCK_ROWS = 1 << 12


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
    # Row i of pa is the p that row i of cand must be close to. Strict
    # closeness (no tolerance slack) so the rows still pass is_close
    # after construction-time renormalization.
    e = budget.exp_epsilon
    ex1 = np.maximum(cand - e * pa, 0.0).sum(axis=1)
    ex2 = np.maximum(pa - e * cand, 0.0).sum(axis=1)
    return (ex1 <= budget.delta) & (ex2 <= budget.delta)


def _mix_until_close(
    pa: np.ndarray, u: np.ndarray, lam: np.ndarray, budget: PrivacyBudget
) -> np.ndarray:
    """Row i mixes pa[i] toward u[i] with weight lam[i], the weight halved
    until the mix is close to pa[i]; a row still rejected after 200
    halvings is pa[i]. Each round recomputes only the rows still
    rejected."""
    cand = pa + lam[:, None] * (u - pa)
    # The rows still rejected, compacted: their indices into cand, their
    # p, uniform draw, weight and latest candidate.
    rows, pr, ur, lr, cr = np.arange(len(cand)), pa, u, lam, cand
    for _ in range(200):
        bad = ~_accept_mask(cr, pr, budget)
        cand[rows[~bad]] = cr[~bad]
        rows, pr, ur, lr = rows[bad], pr[bad], ur[bad], lr[bad] * 0.5
        if not rows.size:
            break
        cr = pr + lr[:, None] * (ur - pr)
    else:
        bad = ~_accept_mask(cr, pr, budget)
        cand[rows] = np.where(bad[:, None], pr, cr)
    return cand


def _raw_close_samples(
    p_rows: np.ndarray, budget: PrivacyBudget, n: int, seeds: Sequence[int]
) -> np.ndarray:
    """n accepted candidates per trial, stacked: rows j*n to j*n + n - 1
    are close to p_rows[j] and drawn from _rng(seeds[j]). Candidates mix
    p toward a uniform simplex draw with a random weight; rejected rows
    have their weight halved until they pass, which terminates because
    the close set contains a neighborhood of p (within its support)
    whenever eps > 0 or delta > 0. Each row's draws and halvings are
    its own, so its bits do not depend on the other rows, and the
    mixing runs on _BLOCK_ROWS rows at a time."""
    trials, q = p_rows.shape
    u = np.zeros((trials * n, q))
    lam = np.empty(trials * n)
    for j, seed in enumerate(seeds):
        rng = _rng(seed)
        rows = slice(j * n, (j + 1) * n)
        if budget.delta > 0.0:
            u[rows] = rng.gamma(1.0, 1.0, size=(n, q))
        else:
            support = p_rows[j] > 0.0
            u[rows, support] = rng.gamma(1.0, 1.0, size=(n, int(support.sum())))
        lam[rows] = rng.uniform(0.0, 1.0, size=n)
    u /= u.sum(axis=1, keepdims=True)

    cand = np.empty_like(u)
    for lo in range(0, len(u), _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        pa = p_rows[np.arange(lo, min(lo + _BLOCK_ROWS, len(u))) // n]
        cand[rows] = _mix_until_close(pa, u[rows], lam[rows], budget)
    return cand


def _close_samples(
    p_rows: np.ndarray, steps: np.ndarray, budget: PrivacyBudget, count: int, seeds: Sequence[int]
) -> np.ndarray:
    """The sample matrices of a stack of trials, as a (trials, count, q)
    array: trial j's first row is p_rows[j], its second steps[j] and the
    rest come from _raw_close_samples. At a (0,0) budget each trial has
    the one row p_rows[j]."""
    if budget.epsilon == 0.0 and budget.delta == 0.0:
        return p_rows[:, None, :].copy()
    trials, q = p_rows.shape
    out = np.empty((trials, count, q))
    out[:, 0] = p_rows
    if count > 1:
        out[:, 1] = steps
    if count > 2:
        raw = normalized_rows(_raw_close_samples(p_rows, budget, count - 2, seeds))
        out[:, 2:] = raw.reshape(trials, count - 2, q)
    return out


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
    p_rows = np.array([p.p])
    rows = _close_samples(p_rows, t_step_rows(p_rows, budget), budget, count, [seed])[0]
    return CloseSamples(rows, degenerate_budget=len(rows) < count)


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


_RowsStep = Callable[[np.ndarray, PrivacyBudget], np.ndarray]


def _falsify(
    p_rows: np.ndarray,
    budget: PrivacyBudget,
    count: int,
    seeds: Sequence[int],
    step_rows: _RowsStep | None = None,
) -> tuple[np.ndarray, np.ndarray, tuple[int, Counterexample] | None]:
    """The falsifier on a stack of trials: trial j tests the samples of
    p_rows[j], drawn with seeds[j], against the prefixes of the operator
    output (step_rows, t_step_rows when None) and the envelope.

    Returns the (trials, count, q) sample matrices, each trial's verdict
    (True when a sample beats the bound) and the first trial's first
    counterexample, re-verified, as (trial, Counterexample), or None.
    """
    steps = t_step_rows(p_rows, budget)
    target = np.cumsum(steps if step_rows is None else step_rows(p_rows, budget), axis=1)
    envelope = _t_step_prefix_rows(np.cumsum(p_rows, axis=1), budget)
    bound = np.minimum(target, envelope)

    samples = _close_samples(p_rows, steps, budget, count, seeds)
    excess = np.cumsum(samples, axis=2) - bound[:, None, :]
    worst_k = np.argmax(excess, axis=2)
    worst = np.take_along_axis(excess, worst_k[..., None], axis=2)[..., 0]
    hits = worst > DEFAULT_TOL
    verdicts = hits.any(axis=1)
    if not verdicts.any():
        return samples, verdicts, None

    j = int(np.argmax(verdicts))
    i = int(np.argmax(hits[j]))
    p = SimplexVector.wrap(p_rows[j:j + 1])[0]
    vec = SimplexVector.wrap(samples[j, i:i + 1])[0]
    k = int(worst_k[j, i])
    if not is_close(vec, p, budget):
        raise RuntimeError("falsifier produced a sample that is not close to p")
    if prefix_sums(vec)[k] <= min(target[j, k], envelope[j, k]) + DEFAULT_TOL:
        raise RuntimeError("falsifier counterexample failed re-verification")
    return samples, verdicts, (j, Counterexample(vector=vec, prefix_index=k, margin=float(worst[j, i])))


def dominance_falsify(
    p: SimplexVector,
    budget: PrivacyBudget,
    trials: int,
    seed: int,
    step_rows: _RowsStep | None = None,
) -> FalsificationReport:
    """Search for a close distribution that the operator output fails to
    dominate.

    Each sampled close p'' is checked against the prefix sums of the
    operator output and against the analytic envelope
    min(1, min(e^eps s_k, 1 - e^-eps (1 - s_k)) + delta). The operator
    is step_rows applied to the one row p, t_step_rows when None. For
    the real operator the two coincide and no counterexample exists; the
    hook exists so a deliberately corrupted operator, such as
    _drop_delta_rows, can be fed to the same harness. A sample fails
    when one of its prefixes exceeds the bound by more than DEFAULT_TOL.
    A reported counterexample is re-verified (closeness to p and the
    violated prefix) before being returned.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    samples, _, hit = _falsify(np.array([p.p]), budget, trials, [seed], step_rows)
    counterexample = None if hit is None else hit[1]
    return FalsificationReport(trials=samples.shape[1], counterexample=counterexample, seed=seed)


def _fuzz(
    q: int, budget: PrivacyBudget, trials: int, count: int, seed: int,
    step_rows: _RowsStep | None = None,
) -> tuple[int, SimplexVector, Counterexample] | None:
    """The first trial of a fuzz run that finds a counterexample, as
    (trial, p, counterexample), or None.

    Trial i starts from a Dirichlet draw of _rng((seed, i)) and samples
    `count` close distributions with seed * 1_000_003 + i, as
    dominance_falsify(p, budget, count, seed * 1_000_003 + i) does.
    Trials run in blocks of about _BLOCK_ROWS sample rows, and the first
    block with a hit reports its first one.
    """
    per_block = max(1, _BLOCK_ROWS // count)
    ones = np.ones(q)
    for lo in range(0, trials, per_block):
        block = range(lo, min(lo + per_block, trials))
        p_rows = normalized_rows(np.array([_rng((seed, i)).dirichlet(ones) for i in block]))
        seeds = [seed * 1_000_003 + i for i in block]
        hit = _falsify(p_rows, budget, count, seeds, step_rows)[2]
        if hit is not None:
            j, counterexample = hit
            return lo + j, SimplexVector.wrap(p_rows[j:j + 1])[0], counterexample
    return None


def _drop_delta_rows(rows: np.ndarray, budget: PrivacyBudget) -> np.ndarray:
    """Deliberately corrupted operator that forgets the +delta term, on
    every row.

    Kept here for harness self-validation: when delta > 0 the falsifier
    must catch this mutant quickly.
    """
    return t_step_rows(rows, PrivacyBudget(budget.epsilon, 0.0))


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
