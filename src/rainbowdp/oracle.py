"""Independent verification oracles: exhaustive subset closeness, seeded
sampling of close distributions, dominance falsification, and the
pentagon demonstration that non-homogeneous boundary conditions can
admit valid mechanisms but no optimal one.

The falsifier works on a stack of trials at once: one rejection loop,
one normalization, one operator step (t_step_rows) and one prefix check
run on the stacked rows, and each trial reads only its own slice of the
stack's draws, so a stack gives, bit for bit, what its trials give run
alone on their slices. The rejection loop (_mix_until_close) halves
each sample's mixing weight until the mix is close to p; after a few
halvings it jumps each row still rejected to a lower bound on the count
it needs, and its output is the bytes of trying every count in turn.
sample_close and dominance_falsify are its one-trial case, and `fuzz`
runs it on blocks of about _BLOCK_ROWS sample rows, checking as well
that each trial's operator step is close to its p. The operator it
tests is a function of a stack of rows: the real one, t_step_rows, or
the deliberately corrupted _drop_delta_rows of its self-test.

All randomness flows through explicitly seeded generators: one
numpy default_rng(seed) per sample_close or dominance_falsify call, and
one default_rng((seed, first trial)) per fuzz block (_close_draws lays
out what each trial reads). There is no global RNG state anywhere in
this module.
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
    _hockey_stick,
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
    _t_step_prefix_rows,
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
    bound = budget.delta + DEFAULT_TOL
    return worst_pq <= bound and worst_qp <= bound


def _accept_mask(cand: np.ndarray, pa: np.ndarray, budget: PrivacyBudget) -> np.ndarray:
    # Row i of pa is the p that row i of cand must be close to. Strict
    # closeness (no tolerance slack) so the rows still pass is_close
    # after construction-time renormalization.
    e = budget.exp_epsilon
    return (_hockey_stick(cand, pa, e) <= budget.delta) & (_hockey_stick(pa, cand, e) <= budget.delta)


# The rejection loop tests halving counts 0 to _SCAN_HALVINGS of every
# row in turn, then jumps each row still rejected (_resume_counts); a row
# rejected at _MAX_HALVINGS is p. Rows that need a few halvings, as at
# eps = 0.3, pay less for the scan than for the jump's bound.
_SCAN_HALVINGS = 2
_MAX_HALVINGS = 200


def _mixed(pr: np.ndarray, dr: np.ndarray, lr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """pr + lr dr, row by row: the same floats as the expression, in one
    array instead of two (a fresh block-sized array costs more than the
    arithmetic on it), written into out when given."""
    out = np.multiply(lr[:, None], dr, out=out)
    out += pr
    return out


def _resume_counts(
    pr: np.ndarray, dr: np.ndarray, lr: np.ndarray, budget: PrivacyBudget
) -> tuple[np.ndarray, np.ndarray]:
    """The weight and halving count at which the rejection loop resumes
    each of its rows rejected at every count up to _SCAN_HALVINGS: row i
    mixes pr[i] along dr[i] = u - p, with weight lr[i] at count
    k0 = _SCAN_HALVINGS + 1.

    With t the weight and D_i = delta + (e^eps - 1) p_i, the mix p + t d
    has the forward term t d_i - (e^eps - 1) p_i at entry i and the
    backward term -e^eps t d_i - (e^eps - 1) p_i, so it is rejected by
    entry i alone once t s_i > D_i, s_i = max(d_i, -e^eps d_i). In real
    arithmetic every count below k_b = k0 + ceil(log2(lr max_i s_i / D_i))
    is rejected. The candidate at k_b - 1 is tested once: rejected, the
    row resumes at k_b; accepted (the bound was off by rounding), at k0.
    k_b is capped at _MAX_HALVINGS, and rows whose bound gains nothing
    resume at k0."""
    k0 = _SCAN_HALVINGS + 1
    e = budget.exp_epsilon
    # 0/0 (an entry where u = p and D = 0) is nan, which fmax skips; a
    # row of them has a nan bound, which compares False below.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = dr * -e
        np.maximum(s, dr, out=s)
        den = pr * (e - 1.0)
        den += budget.delta
        s /= den
        # fmax column by column: a reduce along rows of q entries is slow.
        reach = s[:, 0].copy()
        for column in s.T[1:]:
            np.fmax(reach, column, out=reach)
        kb = k0 + np.ceil(np.log2(lr * reach))
    i = np.flatnonzero(kb >= k0 + 2)
    kb = np.minimum(kb[i], _MAX_HALVINGS).astype(np.intp)
    lb = np.ldexp(lr[i], k0 - kb)
    rejected = ~_accept_mask(_mixed(pr[i], dr[i], 2.0 * lb), pr[i], budget)
    i = i[rejected]
    k = np.full(len(pr), k0)
    lr[i], k[i] = lb[rejected], kb[rejected]
    return lr, k


def _mix_until_close(
    pa: np.ndarray, d: np.ndarray, lam: np.ndarray, budget: PrivacyBudget, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Row i mixes pa[i] toward a draw u, along d[i] = u - pa[i], with
    weight lam[i] 2^-k, for the smallest halving count k from 0 to
    _MAX_HALVINGS at which the mix pa[i] + lam[i] 2^-k d[i] is close to
    pa[i]; a row rejected at every count is pa[i]. Each round recomputes
    only the rows still rejected, which it keeps in scratch, a
    (3, len(pa), q) array. The rows are written into out.

    Phase 1 tests counts 0 to _SCAN_HALVINGS of every row in turn.
    Phase 2 moves each row still rejected to a lower bound on its first
    accepted count (_resume_counts) and scans on from there. The bits
    are those of scanning every count from 0, because acceptance is
    monotone in k in floats, for e^eps >= 1:
    - a forward term fl(c_i - fl(e^eps p_i)) can be positive only where
      d_i > 0 (elsewhere c_i <= p_i <= fl(e^eps p_i)), and there c_i,
      so the term, does not grow with k;
    - a backward term fl(p_i - fl(e^eps c_i)) can be positive only where
      d_i < 0, and there c_i does not shrink with k;
    - fl is monotone, and so is a left-to-right sum of non-negative
      terms, so neither excess grows with k.
    So one rejection at a count rules out every smaller count. And each
    candidate is the float the scan builds: d is the float u - p that
    each round of the scan takes, and lam 2^-k is exact, by np.ldexp or
    by repeated halving, since lam is 0 or, drawn by random(), at least
    2^-53, so lam 2^-_MAX_HALVINGS is still a normal float."""
    cand = _mixed(pa, d, lam, out)
    # The rows still rejected, compacted: their indices into cand, their
    # p, u - p, weight and latest candidate; in phase 2, also the
    # halving count k of each one's candidate. Rows are gathered with
    # take from pa and d into the head of scratch, which is several
    # times faster than a boolean mask on them. At round r every row's
    # count is at least r, so by round _MAX_HALVINGS every row is
    # accepted or spent.
    rows, pr, dr, lr, cr = np.arange(len(cand)), pa, d, lam, cand
    for r in range(_MAX_HALVINGS + 1):
        ok = _accept_mask(cr, pr, budget)
        if r > _SCAN_HALVINGS:
            # A row rejected at the last count is p.
            spent = ~ok & (k == _MAX_HALVINGS)
            cr[spent] = pr[spent]
            ok |= spent
        # cand already holds round 0's candidates.
        if r:
            i = np.flatnonzero(ok)
            cand[rows[i]] = cr.take(i, axis=0)
        i = np.flatnonzero(~ok)
        if not i.size:
            break
        rows, lr = rows[i], lr[i] * 0.5
        pr = np.take(pa, rows, axis=0, out=scratch[0, :len(rows)])
        dr = np.take(d, rows, axis=0, out=scratch[1, :len(rows)])
        if r > _SCAN_HALVINGS:
            k = k[i] + 1
        elif r == _SCAN_HALVINGS:
            lr, k = _resume_counts(pr, dr, lr, budget)
        cr = _mixed(pr, dr, lr, scratch[2, :len(rows)])
    return cand


class _Work:
    """The arrays of a stack of up to `trials` trials of `count` samples
    over q outcomes, from the draws of _close_draws (with `start` rows
    of q per trial ahead of the samples' rows) to the prefix excesses.
    fuzz allocates them once per call and refills them on every block:
    fresh block-sized arrays grow the heap, which glibc then trims."""

    def __init__(self, trials: int, count: int, q: int, start: int) -> None:
        n = max(count - 2, 0)
        self.draws = np.empty((trials, start + n, q))
        self.weights = np.empty((trials, n))
        # The prefix excesses reuse the candidates' memory, dead once normalized.
        self.cand = np.empty((trials * count, q))
        self.excess = self.cand.reshape(trials, count, q)
        self.units = np.empty((min(trials * n, _BLOCK_ROWS), q))
        self.rounds = np.empty((3, *self.units.shape))
        self.samples = np.empty((trials, count, q))


def _close_draws(rng: np.random.Generator, work: _Work) -> None:
    """Fill work's draws from one generator, in two calls: every
    exponential of the stack, then every uniform weight. Trial j reads
    row j of each, so its bits do not depend on which trials of the
    stack are run. These are the bits of the gamma(1, 1) and
    uniform(0, 1) draws of the same shapes, which scale the same
    variates by 1 and add them to 0."""
    rng.standard_exponential(out=work.draws)
    rng.random(out=work.weights)


def _raw_close_samples(
    p_rows: np.ndarray, budget: PrivacyBudget, draws: np.ndarray, lam: np.ndarray, work: _Work
) -> np.ndarray:
    """n accepted candidates per trial, stacked, for the draws of a
    stack of trials ((trials, n, q) exponentials and (trials, n)
    weights): rows j*n to j*n + n - 1 are close to p_rows[j]. Each
    candidate mixes p toward a uniform simplex draw, its exponentials
    (zeroed off p's support at delta = 0) over their sum, with a random
    weight; rejected rows have their weight halved until they pass,
    which terminates because the close set contains a neighborhood of p
    (within its support) whenever eps > 0 or delta > 0. Each row's draws
    and halvings are its own, so its bits do not depend on the other
    rows, and the loop runs on _BLOCK_ROWS rows at a time."""
    n = draws.shape[1]
    # A view for one trial, whose rows are contiguous; a copy for a stack
    # of several, at most _BLOCK_ROWS rows in fuzz.
    rows, lam = draws.reshape(-1, draws.shape[2]), lam.reshape(-1)
    cand = work.cand[:len(rows)]
    for lo in range(0, len(rows), _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, len(rows))
        pa = p_rows[np.arange(lo, hi) // n]
        u = work.units[:hi - lo]
        u[...] = rows[lo:hi]
        if budget.delta == 0.0:
            np.copyto(u, 0.0, where=~(pa > 0.0))
        u /= u.sum(axis=1, keepdims=True)
        # u - p, in place: the draws are not read again.
        u -= pa
        _mix_until_close(pa, u, lam[lo:hi], budget, cand[lo:hi], work.rounds[:, :hi - lo])
    return cand


def _close_samples(
    p_rows: np.ndarray, steps: np.ndarray, budget: PrivacyBudget, draws: np.ndarray, lam: np.ndarray, work: _Work
) -> np.ndarray:
    """The sample matrices of a stack of trials, as a (trials, count, q)
    array in work: trial j's first row is p_rows[j], its second steps[j]
    and the rest come from _raw_close_samples. At a (0,0) budget each
    trial has the one row p_rows[j], in a new array."""
    if budget.epsilon == 0.0 and budget.delta == 0.0:
        return p_rows[:, None, :].copy()
    trials, q = p_rows.shape
    out = work.samples[:trials]
    out[:, 0] = p_rows
    if out.shape[1] > 1:
        out[:, 1] = steps
    if out.shape[1] > 2:
        raw = _raw_close_samples(p_rows, budget, draws, lam, work)
        # The draws are read by now: the rows are normalized into their memory.
        rows = normalized_rows(raw, work.draws.reshape(-1)[:raw.size].reshape(raw.shape))
        out[:, 2:] = rows.reshape(trials, -1, q)
    return out


def _step_misses(
    p_rows: np.ndarray, steps: np.ndarray, budget: PrivacyBudget
) -> tuple[np.ndarray, np.ndarray]:
    """Per row, whether steps[i] fails is_close's test against p_rows[i]
    (one hockey-stick excess each way, the larger above delta +
    DEFAULT_TOL), and that larger excess less delta."""
    e = budget.exp_epsilon
    excess = np.maximum(_hockey_stick(steps, p_rows, e), _hockey_stick(p_rows, steps, e))
    return excess > budget.delta + DEFAULT_TOL, excess - budget.delta


def _one_trial(p: SimplexVector, budget: PrivacyBudget, count: int, seed: int) -> tuple[np.ndarray, np.ndarray, _Work]:
    """p as a one-row stack, its operator step, and new arrays for its
    `count` samples with the draws of default_rng(seed) in them. A step
    not close to p is refused before anything is drawn: the samplers
    hand the step out as a close sample."""
    p_rows = np.array([p.p])
    steps = t_step_rows(p_rows, budget)
    misses, margins = _step_misses(p_rows, steps, budget)
    if misses[0]:
        raise ValueError(
            f"t_step(p) is not close to p at this budget (margin {float(margins[0]):.6g}); "
            "see ROADMAP.md item 2, large epsilon"
        )
    work = _Work(1, count, len(p), 0)
    _close_draws(np.random.default_rng(seed), work)
    return p_rows, steps, work


def sample_close(
    p: SimplexVector, budget: PrivacyBudget, count: int, seed: int
) -> np.ndarray:
    """Deterministic sample of `count` distributions, each (eps,delta)-
    close to p, as the rows of a float64 matrix. The first sample is
    always p and the second is t_step(p); the rest come from rejection
    sampling on the draws of default_rng(seed) (_close_draws). A budget
    at which t_step(p) is not close to p is a ValueError.

    A (0,0) budget admits only p itself: the matrix is the one row p,
    fewer rows than asked for when count > 1.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    p_rows, steps, work = _one_trial(p, budget, count, seed)
    return _close_samples(p_rows, steps, budget, work.draws, work.weights, work)[0]


@dataclass(frozen=True)
class Counterexample:
    vector: SimplexVector
    prefix_index: int
    margin: float


_RowsStep = Callable[[np.ndarray, PrivacyBudget], np.ndarray]


def _falsify(
    p_rows: np.ndarray, steps: np.ndarray, budget: PrivacyBudget, draws: np.ndarray, lam: np.ndarray, work: _Work,
    step_rows: _RowsStep | None = None,
) -> tuple[np.ndarray, np.ndarray, tuple[int, Counterexample] | None]:
    """The falsifier on a stack of trials: trial j tests the samples of
    p_rows[j], made from its draws draws[j] and weights lam[j] in work's
    arrays, against the prefixes of the operator output (step_rows,
    t_step_rows when None) and the envelope. steps is
    t_step_rows(p_rows, budget), which every sample matrix holds as row 1.

    Returns the (trials, count, q) sample matrices (in work's arrays,
    which the next stack overwrites), each trial's verdict (True when a
    sample beats the bound) and the first trial's first counterexample,
    re-verified, as (trial, Counterexample), or None.
    """
    target = np.cumsum(steps if step_rows is None else step_rows(p_rows, budget), axis=1)
    envelope = _t_step_prefix_rows(np.cumsum(p_rows, axis=1), budget)
    bound = np.minimum(target, envelope)

    samples = _close_samples(p_rows, steps, budget, draws, lam, work)
    excess = np.cumsum(samples, axis=2, out=work.excess[:len(samples), :samples.shape[1]])
    excess -= bound[:, None, :]
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
) -> Counterexample | None:
    """Search for a close distribution that the operator output fails to
    dominate: the first one found, as a Counterexample, or None.

    Each sampled close p'' is checked against the prefix sums of the
    operator output and against the analytic envelope
    min(1, min(e^eps s_k, 1 - e^-eps (1 - s_k)) + delta). The operator
    is step_rows applied to the one row p, t_step_rows when None. For
    the real operator the two coincide and no counterexample exists; the
    hook exists so a deliberately corrupted operator, such as
    _drop_delta_rows, can be fed to the same harness. A sample fails
    when one of its prefixes exceeds the bound by more than DEFAULT_TOL.
    A reported counterexample is re-verified (closeness to p and the
    violated prefix) before being returned. As in sample_close, the
    `trials` samples are those of sample_close(p, budget, trials, seed),
    and a budget at which t_step(p) is not close to p is a ValueError.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p_rows, steps, work = _one_trial(p, budget, trials, seed)
    hit = _falsify(p_rows, steps, budget, work.draws, work.weights, work, step_rows)[2]
    return None if hit is None else hit[1]


def _start_rows(draws: np.ndarray) -> np.ndarray:
    """fuzz's start distributions, normalized as SimplexVector stores
    them: row i is the flat Dirichlet draw that row i of draws, q
    standard exponentials, makes as Generator.dirichlet makes it (each
    times the reciprocal of their left-to-right sum)."""
    return normalized_rows(draws * (1.0 / _row_sums(draws))[:, None])


@dataclass(frozen=True)
class _StepMiss:
    """A fuzz trial whose real operator step is not close to its p: the
    step, and the larger of its two hockey-stick excesses over p less
    delta."""

    step: SimplexVector
    margin: float


def _fuzz(
    q: int, budget: PrivacyBudget, trials: int, count: int, seed: int,
    step_rows: _RowsStep | None = None,
) -> tuple[int, SimplexVector, Counterexample | _StepMiss] | None:
    """The first trial of a fuzz run that refutes the operator's claim
    (T(p) is close to p and dominates every distribution close to p), as
    (trial, p, finding), or None. The finding is a _StepMiss when the
    real step t_step_rows(p) is not close to p (_step_misses), and
    otherwise the Counterexample that the falsifier found; a trial with
    both reports the miss.

    Trials run in blocks of max(1, _BLOCK_ROWS // count), and the first
    block with a finding reports its first one. Each block draws from
    its own generator, default_rng((seed, its first trial)), the draws
    of all its trials whatever `trials` is (_close_draws, one start row
    per trial). Trial i of a block starts from the Dirichlet draw of
    its start row (_start_rows) and falsifies on the rest of its slice,
    so a block's findings are, bit for bit, those of its trials run
    alone on their own slices, and a trial's finding depends only on
    (seed, i, count, q), never on `trials` or on the other trials.
    """
    per_block = max(1, _BLOCK_ROWS // count)
    work = _Work(per_block, count, q, 1)
    for lo in range(0, trials, per_block):
        _close_draws(np.random.default_rng((seed, lo)), work)
        p_rows = _start_rows(work.draws[:min(per_block, trials - lo), 0])
        steps = t_step_rows(p_rows, budget)
        misses, margins = _step_misses(p_rows, steps, budget)
        # Only the trials before the first miss are falsified: a step not
        # close to its p is no close sample, and that trial reports its miss.
        j = int(np.argmax(misses)) if misses.any() else len(p_rows)
        draws, lam = work.draws[:j, 1:], work.weights[:j]
        hit = _falsify(p_rows[:j], steps[:j], budget, draws, lam, work, step_rows)[2] if j else None
        if hit is None and j < len(p_rows):
            hit = j, _StepMiss(SimplexVector.wrap(steps[j:j + 1])[0], float(margins[j]))
        if hit is not None:
            j, finding = hit
            return lo + j, SimplexVector.wrap(p_rows[j:j + 1])[0], finding
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
