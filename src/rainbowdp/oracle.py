"""Independent verification oracles: exhaustive subset closeness, the
dominance check on the lemma's witnesses, seeded sampling of close
distributions, and the pentagon demonstration that non-homogeneous
boundary conditions can admit valid mechanisms but no optimal one.

The dominance check. Let s_k be the k-th prefix of p in its preference
order, S its top colors up to k and C the rest, and let

    g(s) = min(1, e^eps s + delta, 1 - e^-eps (1 - s - delta)),

the operator's own prefix map, as _t_step_prefix_rows computes it. Any u
(eps, delta)-close to p has u(S) <= e^eps s_k + delta, by the subset S,
and u(S) = 1 - u(C) <= 1 - e^-eps (1 - s_k - delta), by the subset C;
so u(S) <= g(s_k). The witness w_k (_witnesses) attains that bound: it
scales p on S by g/s_k (all of g on entry k when s_k = 0) and p on C by
t/p(C), with t = 1 - g. As s_k <= g <= e^eps s_k + delta, w_k >= p on S
with w_k(S) - e^eps p(S) <= delta; as e^eps t >= 1 - s_k - delta,
w_k <= p on C with p(C) - e^eps w_k(C) <= delta; every other term of
either hockey-stick sum is <= 0. So w_k is close to p, and an operator
output dominates every distribution close to p exactly when its k-th
prefix is at least g(s_k) for every k: checking the q witnesses is
complete, and needs no search.

The operator under test is a function of a stack of rows: the real one,
t_step_rows, or the deliberately corrupted _drop_delta_rows of the
self-test. `fuzz` checks blocks of trials at once (_fuzz): for each
trial's p, that its real step is close to p, then the dominance check.

sample_close's samples past p and t_step(p) are mixes of p's q
witnesses. The hockey-stick divergence is convex in each argument, so a
convex mix of distributions close to p is close to p: no sample is
rejected. At delta = 0 each witness, and so each mix, is 0 off p's
support, since g(0) = 0.

All randomness flows through explicitly seeded generators: one numpy
default_rng(seed) per sample_close call, one row of q draws per mix, and
one default_rng((seed, first trial)) per fuzz block, one row of q draws
per trial. There is no global RNG state anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    DEFAULT_TOL,
    ColorSpace,
    PrivacyBudget,
    Rainbow,
    SimplexVector,
    _not_close,
    _prefix_rows,
    _require_same_length,
    _row_sums,
    is_close,
    normalized_rows,
    prefix_sums,
)
from .graph import RainbowGraph
from .mechanism import (
    BoundaryCondition,
    DpReport,
    Mechanism,
    _steps_and_bound,
    _t_step_prefix_rows,
    optimal_mechanism,
    t_step_rows,
    verify_dp,
)

_MAX_BRUTEFORCE_Q = 20

# fuzz runs its trials in blocks of this many rows of q draws: numpy's
# per-call cost is paid once per block, and a block's draws (384 KB at
# q = 12) do not grow with the number of trials.
_BLOCK_ROWS = 1 << 12

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
    _require_same_length(p, q_)
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
    return max(worst_pq, worst_qp) - budget.delta <= DEFAULT_TOL


def _witnesses(p: np.ndarray, budget: PrivacyBudget) -> np.ndarray:
    """The lemma's witnesses of one distribution p, as a (q, q) array: row
    k is w_k, whose k-th prefix is g(s_k) (see the module docstring). The
    mass past prefix k is the tail max(0, 1 - e^eps s_k - delta,
    e^-eps (1 - s_k - delta)) computed as it stands, not 1 - g: 1 - g
    carries g's rounding, which the complement's hockey-stick term
    multiplies by e^eps (at eps = 50 it can leave w_k 0.999 from close)."""
    q = len(p)
    s = np.cumsum(p)
    # rest[k]: the mass of p past prefix k.
    rest = np.zeros(q)
    rest[:-1] = np.cumsum(p[::-1])[::-1][1:]
    g = _t_step_prefix_rows(s[None, :], budget)[0]
    tail = np.maximum(np.maximum(1.0 - budget.exp_epsilon * s - budget.delta, 0.0),
                      math.exp(-budget.epsilon) * (1.0 - s - budget.delta))
    top = np.divide(g, s, out=np.zeros(q), where=s > 0.0)
    low = np.divide(tail, rest, out=np.zeros(q), where=rest > 0.0)
    w = p * np.where(np.tri(q, dtype=bool), top[:, None], low[:, None])
    # A prefix of zeros takes all of g on its last entry.
    empty = np.flatnonzero(s == 0.0)
    w[empty, empty] = g[empty]
    return w


def _one_row(p: SimplexVector, budget: PrivacyBudget) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p as a one-row stack, its operator step and the step's prefix
    bound g (_steps_and_bound). A step not close to p is refused, as fuzz
    reports it: sample_close would hand it out as a close sample."""
    p_rows = np.array([p.p])
    steps, g = _steps_and_bound(p_rows, budget)
    margins, over = _not_close(p_rows, steps, budget)
    if over.any():
        raise ValueError(
            f"t_step(p) is not close to p at this budget (margin {float(margins.max()):.6g}); "
            "see ROADMAP.md item 2, large epsilon"
        )
    return p_rows, steps, g


def _start_rows(draws: np.ndarray) -> np.ndarray:
    """Flat Dirichlet draws, normalized as SimplexVector stores them: row
    i is the one that row i of draws, q standard exponentials, makes as
    Generator.dirichlet makes it (each times the reciprocal of their
    left-to-right sum)."""
    return normalized_rows(draws * (1.0 / _row_sums(draws))[:, None])


def sample_close(
    p: SimplexVector, budget: PrivacyBudget, count: int, seed: int
) -> np.ndarray:
    """Deterministic sample of `count` distributions, each (eps,delta)-
    close to p, as the rows of a float64 matrix. The first sample is
    always p and the second is t_step(p). Each of the rest mixes p's
    witnesses (_witnesses) with flat Dirichlet weights, row i of
    _start_rows on count - 2 rows of q standard exponentials from
    default_rng(seed): sum_k lam_k w_k, summed left to right over k, then
    normalized as SimplexVector stores it. Every mix is re-checked
    against p. A budget at which t_step(p) is not close to p is a
    ValueError.

    A (0,0) budget admits only p itself: the matrix is the one row p,
    fewer rows than asked for when count > 1.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    p_rows, steps, _ = _one_row(p, budget)
    rng = np.random.default_rng(seed)
    if budget.epsilon == 0.0 and budget.delta == 0.0:
        return p_rows
    if count <= 2:
        return np.concatenate([p_rows, steps])[:count]
    w = _witnesses(p_rows[0], budget)
    lam = _start_rows(rng.standard_exponential((count - 2, len(p))))
    # One array op per witness, not a matrix product, whose summation
    # order varies with the BLAS build.
    mixes = lam[:, :1] * w[0]
    for k in range(1, len(w)):
        mixes += lam[:, k:k + 1] * w[k]
    mixes = normalized_rows(mixes)
    if _not_close(np.broadcast_to(p_rows, mixes.shape), mixes, budget)[1].any():
        raise RuntimeError("sample_close produced a sample that is not close to p")
    return np.concatenate([p_rows, steps, mixes])


@dataclass(frozen=True)
class Counterexample:
    vector: SimplexVector
    prefix_index: int
    margin: float


_RowsStep = Callable[[np.ndarray, PrivacyBudget], np.ndarray]


def _falsify(
    p_rows: np.ndarray, g: np.ndarray, target: np.ndarray, budget: PrivacyBudget,
) -> tuple[int, Counterexample] | None:
    """The dominance check on a stack of rows, given g(s) of their prefixes
    (_steps_and_bound): the first row j whose operator prefixes target[j]
    fall short of g(s_k) for some k by more than DEFAULT_TOL, and whose
    witness w_k, at the k of the largest shortfall, beats target[j, k] by
    more than DEFAULT_TOL with its own k-th prefix, as (j, Counterexample)
    with w_k, re-checked to be close to p; or None. w_k's prefix and
    g(s_k) differ by rounding, so a row that g alone puts past the
    tolerance is passed over."""
    shortfall = g - target
    # Each row's largest shortfall, as a running maximum over the columns.
    worst = shortfall[:, 0].copy()
    for k in range(1, shortfall.shape[1]):
        np.maximum(worst, shortfall[:, k], out=worst)
    hits = worst > DEFAULT_TOL
    for j in np.flatnonzero(hits).tolist():
        k = int(np.argmax(shortfall[j]))
        p = SimplexVector.wrap(p_rows[j:j + 1])[0]
        vec = SimplexVector.wrap(_witnesses(p_rows[j], budget)[k:k + 1])[0]
        if not is_close(vec, p, budget):
            raise RuntimeError("falsifier produced a sample that is not close to p")
        if prefix_sums(vec)[k] > target[j, k] + DEFAULT_TOL:
            return j, Counterexample(vector=vec, prefix_index=k, margin=float(worst[j]))
    return None


def dominance_falsify(
    p: SimplexVector,
    budget: PrivacyBudget,
    step_rows: _RowsStep | None = None,
) -> Counterexample | None:
    """A distribution close to p that the operator output fails to
    dominate, as a re-verified Counterexample, or None when there is none.

    The operator is step_rows applied to the one row p, t_step_rows when
    None; the hook exists so a deliberately corrupted operator, such as
    _drop_delta_rows, can be fed to the same check. The check is
    complete: it reports the witness w_k of the k at which the output's
    k-th prefix falls furthest below g(s_k), when that is by more than
    DEFAULT_TOL (see the module docstring), with that shortfall as the
    margin. As in sample_close, a budget at which t_step(p) is not close
    to p is a ValueError.
    """
    p_rows, steps, g = _one_row(p, budget)
    hit = _falsify(p_rows, g, _prefix_rows(steps if step_rows is None else step_rows(p_rows, budget)), budget)
    return None if hit is None else hit[1]


@dataclass(frozen=True)
class _StepMiss:
    """A fuzz trial whose real operator step is not close to its p: the
    step, and the larger of its two hockey-stick excesses over p less
    delta."""

    step: SimplexVector
    margin: float


def _fuzz(
    q: int, budget: PrivacyBudget, trials: int, seed: int,
    step_rows: _RowsStep | None = None,
) -> tuple[int, SimplexVector, Counterexample | _StepMiss] | None:
    """The first trial of a fuzz run that refutes the operator's claim
    (T(p) is close to p and dominates every distribution close to p), as
    (trial, p, finding), or None. The finding is a _StepMiss when the
    real step t_step_rows(p) is not close to p (core._not_close), and
    otherwise the Counterexample of the dominance check (_falsify); a
    trial with both reports the miss. One _steps_and_bound call per block
    gives both checks the real steps and the bound g.

    Trials run in blocks of _BLOCK_ROWS. The block from trial lo draws
    one row of q standard exponentials per trial from its own generator,
    default_rng((seed, lo)), and trial i starts from the Dirichlet draw
    of its row (_start_rows). The block is held column-major, so every
    column op on it is contiguous; no bit depends on the layout. A
    generator's draws come out in sequence, so a short last block is a
    prefix of a full one: a trial's finding depends only on (seed, i, q),
    never on `trials` or on the other trials.
    """
    for lo in range(0, trials, _BLOCK_ROWS):
        rng = np.random.default_rng((seed, lo))
        p_rows = _start_rows(np.asfortranarray(rng.standard_exponential((min(_BLOCK_ROWS, trials - lo), q))))
        steps, g = _steps_and_bound(p_rows, budget)
        margins, over = _not_close(p_rows, steps, budget)
        misses = over.any(axis=0)
        # Only the trials before the first miss are checked for dominance:
        # that trial reports its miss.
        j = int(np.argmax(misses)) if misses.any() else len(p_rows)
        outputs = steps[:j] if step_rows is None else step_rows(p_rows[:j], budget)
        hit = _falsify(p_rows[:j], g[:j], _prefix_rows(outputs), budget)
        if hit is None and j < len(p_rows):
            hit = j, _StepMiss(SimplexVector.wrap(steps[j:j + 1])[0], float(margins[:, j].max()))
        if hit is not None:
            j, finding = hit
            return lo + j, SimplexVector.wrap(p_rows[j:j + 1])[0], finding
    return None


def _drop_delta_rows(rows: np.ndarray, budget: PrivacyBudget) -> np.ndarray:
    """Deliberately corrupted operator that forgets the +delta term, on
    every row.

    Kept here for harness self-validation: when delta is well above
    DEFAULT_TOL the dominance check must catch this mutant on its first
    trial.
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


def no_optimal_demo(
    budget: PrivacyBudget | None = None,
) -> tuple[RainbowGraph, tuple[Mechanism, Mechanism, Mechanism], tuple[DpReport, DpReport, DpReport]]:
    """Exhibit a non-homogeneous boundary condition with valid mechanisms
    but no optimal one, as (graph, (mech1, mech2, mech3), reports), each
    report verify_dp's for its mechanism.

    Two valid completions of the pentagon boundary are built; the
    mechanism forced by dominance against both (d2 from the first, d3
    from the second) violates closeness on edge (d2, d3). At the
    canonical budget e^eps = 2, delta = 0 the verdict triple is
    (valid, valid, invalid).
    """
    if budget is None:
        budget = PrivacyBudget(math.log(2.0), 0.0)
    graph = pentagon_graph()
    base = {d: SimplexVector(v).p for d, v in _PENTAGON_BOUNDARY.items()}
    d2_of_mech1 = SimplexVector((0.4, 0.2, 0.4)).p
    d3_of_mech2 = SimplexVector((0.7, 0.05, 0.25)).p

    def completion(d2: tuple[float, ...], d3: tuple[float, ...]) -> Mechanism:
        rows = [{**base, "d2": d2, "d3": d3}[d] for d in graph.nodes]
        return Mechanism(np.array(rows), np.arange(len(rows)), graph.nodes, graph.color_space)

    mechs = (
        completion(d2_of_mech1, d2_of_mech1),
        completion(SimplexVector((0.4, 0.1, 0.5)).p, d3_of_mech2),
        completion(d2_of_mech1, d3_of_mech2),
    )
    return graph, mechs, tuple(verify_dp(graph, m, budget) for m in mechs)


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
