"""The one-step prefix operator, its closed-form trajectories, and the
optimal mechanism construction for rainbow graphs.

The operator acts on prefix sums of a distribution written in
preference order:

    s'_k = min(1, e^eps * s_k + delta, 1 - e^-eps * (1 - s_k - delta))

Each prefix is pushed to the largest value any (eps,delta)-close
distribution can reach: the first bound is the closeness constraint on
the prefix itself, the second is the constraint on its complement
(which is why the cap at 1 engages exactly when the remaining mass
drops to delta). Iterating from a boundary distribution yields, at
distance d from the boundary, the unique close distribution dominating
every other one. Each prefix follows a two-phase closed form:
exponential growth (with an affine drift rho = delta / (e^eps - 1)) up
to a crossing step, then exponential approach to 1.

Each is written once, on arrays: the operator in _t_step_prefix_rows
(t_step_rows on distributions), the growth phase in _growth and the
whole trajectory, on per-row starts, in _curve_rows. t_step is the
operator's one-row case; every chain and every trajectory point goes
through _curve_rows, a trajectory with every row on its one start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    ColorSpace,
    PrivacyBudget,
    Rainbow,
    SimplexVector,
    _first_bad_row,
    _not_close,
    _row_sums,
    normalized_rows,
    prefix_sums,
)
from .graph import RainbowGraph, _distinct_codes

# Below this mass the growth phase is evaluated in log space to dodge
# overflow in exp(t * eps) for extremely small prefixes.
_LOG_FORM_THRESHOLD = 1e-8

# Chain rows and edges are processed this many at a time, so each array
# of a pass stays small (256 KiB at q = 8) whatever the size of the graph.
_CHUNK_ROWS = 1 << 12


class MissingRainbow(LookupError):
    """A bounded region's rainbow is absent from the boundary condition."""

    def __init__(self, rainbows: Sequence[Rainbow], space: ColorSpace):
        self.rainbows = tuple(rainbows)
        lines = [f"boundary condition missing {len(self.rainbows)} rainbow(s)"]
        lines += ["  missing rainbow " + ",".join(c.color_names(space)) for c in self.rainbows]
        super().__init__("\n".join(lines))


class InvalidBoundary(ValueError):
    """Some pair of adjacent regions has boundary values that are not
    (eps,delta)-close."""

    def __init__(self, violations: Sequence[tuple[Rainbow, Rainbow]], space: ColorSpace):
        self.violations = tuple(violations)
        lines = [f"boundary condition violates closeness on {len(self.violations)} region pair(s)"]
        lines += [
            f"  boundary values for ({','.join(ca.color_names(space))}) "
            f"and ({','.join(cb.color_names(space))}) are not close"
            for ca, cb in self.violations
        ]
        super().__init__("\n".join(lines))


class Mechanism:
    """A distribution per node: node nodes[i] has row node_rows[i] of
    `rows`, a read-only float64 matrix of distributions in canonical color
    order; nodes may share a row. `node_rows` is a read-only intp array,
    and a mechanism built on a graph has graph.nodes itself as `nodes`.
    `assignment` is the same rows as read-only SimplexVectors by node
    name, built on first use, one vector per row.

    The rows are not renormalized; the first row outside the CSV
    parser's windows (core._first_bad_row) raises ValueError("row i: ...").
    A mechanism parsed from a CSV holds the file's values exactly, so its
    rows, and the SimplexVectors of its `assignment`, may have entries
    down to -1e-9 or up to 1 + 1e-9 and sums off from 1 by up to 1e-9.
    """

    def __init__(self, rows: np.ndarray, node_rows: np.ndarray, nodes: Sequence[str], color_space: ColorSpace):
        rows = np.asarray(rows, dtype=np.float64)
        node_rows = np.asarray(node_rows, dtype=np.intp)
        nodes = tuple(nodes)
        if rows.ndim != 2 or rows.shape[1] != color_space.q:
            raise ValueError(f"expected rows of {color_space.q} entries, got shape {rows.shape}")
        if node_rows.shape != (len(nodes),):
            raise ValueError(f"expected {len(nodes)} row ids, one per node, got shape {node_rows.shape}")
        if len(nodes) and (node_rows.min() < 0 or node_rows.max() >= len(rows)):
            raise ValueError(f"row ids must lie in [0, {len(rows)})")
        if (bad := _first_bad_row(rows)) is not None:
            raise ValueError(f"row {bad[0]}: {bad[1]}")
        # Views, so that freezing them leaves the caller's arrays writable.
        self.rows, self.node_rows = rows.view(), node_rows.view()
        self.rows.flags.writeable = self.node_rows.flags.writeable = False
        self.nodes = nodes
        self.color_space = color_space

    @cached_property
    def assignment(self) -> Mapping[str, SimplexVector]:
        """bench/ reads this; it leaves src/ after ROADMAP item 6's tracer change."""
        vectors = SimplexVector.wrap(self.rows)
        return MappingProxyType(dict(zip(self.nodes, map(vectors.__getitem__, self.node_rows.tolist()))))


def _node_rows(graph: RainbowGraph, mech: Mechanism) -> np.ndarray:
    """mech.node_rows, by graph node id; ValueError unless mech is on the graph's nodes and colors."""
    if mech.nodes is not graph.nodes and mech.nodes != graph.nodes:
        raise ValueError("mechanism is not on the graph's nodes")
    if mech.color_space != graph.color_space:
        raise ValueError("mechanism is not on the graph's colors")
    return mech.node_rows


@dataclass(frozen=True, eq=False)
class BoundaryCondition:
    """One distribution per rainbow, in canonical color order."""

    values: Mapping[Rainbow, SimplexVector]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", dict(self.values))
        for c, vec in self.values.items():
            if len(vec) != c.q:
                raise ValueError("boundary vector length does not match its rainbow")


def to_preference_order(vec: SimplexVector, rainbow: Rainbow) -> SimplexVector:
    """Reindex a canonical-order distribution so entry k is the mass of
    the k-th preferred color."""
    return SimplexVector(tuple(vec.p[i] for i in rainbow.order))


def t_step(p: SimplexVector, budget: PrivacyBudget) -> SimplexVector:
    """Apply the operator once to a distribution in preference order: the
    one-row case of t_step_rows. At a (0,0) budget the operator is the
    identity and p itself is returned.

    The output is a valid distribution, is (eps,delta)-close to the
    input, and dominates both the input and every distribution close to
    the input.
    """
    if budget.epsilon == 0.0 and budget.delta == 0.0:
        return p
    return SimplexVector.wrap(t_step_rows(np.array([p.p]), budget))[0]


def _t_step_prefix_rows(s: np.ndarray, budget: PrivacyBudget) -> np.ndarray:
    """One operator step on every row of an array of prefix sums; each
    row's floats depend on that row alone."""
    if budget.epsilon == 0.0:
        return np.minimum(s + budget.delta, 1.0)
    e = budget.exp_epsilon
    ei = math.exp(-budget.epsilon)
    d = budget.delta
    return np.minimum(np.minimum(e * s + d, 1.0), 1.0 - ei * (1.0 - s - d))


def t_step_rows(rows: np.ndarray, budget: PrivacyBudget) -> np.ndarray:
    """The operator on every row of a 2-D array of distributions in
    preference order, as a new array; row i depends on row i alone."""
    if budget.epsilon == 0.0 and budget.delta == 0.0:
        return np.array(rows, dtype=np.float64)
    return normalized_rows(_distributions(_t_step_prefix_rows(np.cumsum(rows, axis=1), budget)))


def _tau(s0k: float, level: float, budget: PrivacyBudget, rho: float) -> float:
    """floor(max(log(level / (s0k + rho)) / eps + 1, 0)): the growth step
    on which prefix s0k reaches level, a target for s + rho. math.inf
    when s0k + rho = 0, since such a prefix never grows."""
    if s0k + rho <= 0.0:
        return math.inf
    # At a subnormal s0k + rho the ratio overflows; its log does not.
    ratio = level / (s0k + rho)
    val = (math.log(ratio) if ratio < math.inf else math.log(level) - math.log(s0k + rho)) / budget.epsilon + 1.0
    return float(math.floor(max(val, 0.0)))


def tau_profile(m: SimplexVector, budget: PrivacyBudget) -> tuple[float, tuple[float, ...]]:
    """The drift rho and the phase-transition index tau_k per prefix of a
    preference-order boundary distribution, as (rho, tau).

    tau_k = floor(max(log(((e^eps+1)^-1 + rho) / (s0_k + rho)) / eps + 1, 0))

    with rho = delta / (e^eps - 1); at delta = 0 this reduces to
    floor(max(-log(s0_k (e^eps+1)) / eps + 1, 0)). Prefixes with
    s0_k + rho = 0 never transition and get math.inf.

    tau_k marks the growth step on which prefix k reaches the weight
    1/(e^eps + 1). At delta = 0 that is exactly where the operator
    switches from growth to approach; at delta > 0 the switch happens
    slightly earlier (see _phases), so tau is the reported transition
    landmark, not the internal branch point. e^eps == 1 raises ValueError.
    """
    if budget.exp_epsilon == 1.0:
        raise ValueError("tau profile is undefined at epsilon = 0 and wherever e^epsilon rounds to 1")
    rho = budget.delta / (budget.exp_epsilon - 1.0)
    level = 1.0 / (budget.exp_epsilon + 1.0) + rho
    return rho, tuple(_tau(sk, level, budget, rho) for sk in prefix_sums(m))


def _exp_each(x: np.ndarray) -> np.ndarray:
    # math.exp, not np.exp, which differs from it in the last bit.
    return np.fromiter(map(math.exp, x.tolist()), dtype=np.float64, count=len(x))


def _growth(start: np.ndarray, rho: float, eps: float, ts: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """The growth phase s^t = e^(t eps) (s0 + rho) - rho, capped at 1, of
    each prefix s0 of row i's start: entry (i, k) is prefix k after ts[i]
    steps, for the growth steps ts[i] <= tau[i, k]; the other entries are
    not defined. start and tau are (rows, q) arrays. A prefix with
    s0 + rho <= 0 never grows and stays at 0."""
    base = start + rho
    direct = base >= _LOG_FORM_THRESHOLD
    # e^(t eps) is taken once per row, and only up to the last crossing
    # step of a prefix on the direct branch; beyond it, it may overflow.
    shared = ts <= tau[direct].max(initial=-1.0)
    growth = np.zeros(len(ts))
    growth[shared] = _exp_each(ts[shared] * eps)
    out = growth[:, None] * base - rho
    out[base <= 0.0] = 0.0
    # Tiny prefixes grow in log space, which dodges overflow in e^(t eps).
    tiny = np.flatnonzero((ts[:, None] <= tau) & ~direct & (base > 0.0))
    if len(tiny):
        log_base = np.array(list(map(math.log, base.take(tiny).tolist())))
        out.put(tiny, _exp_each(ts[tiny // base.shape[1]] * eps + log_base) - rho)
    # min(1.0, val) as Python evaluates it.
    return np.where(out < 1.0, out, 1.0)


def _phases(start: np.ndarray, budget: PrivacyBudget) -> tuple[float, np.ndarray, np.ndarray] | None:
    """The drift rho and, per prefix in start (a (rows, q) table), its
    last growth step tau and its value s_tau there, where the approach
    phase starts, as (rho, tau, s_tau) with tau and s_tau shaped like
    start. None where e^eps == 1 (eps below about 1.1e-16): no growth."""
    e = budget.exp_epsilon
    if e == 1.0:
        return None
    rho = budget.delta / (e - 1.0)
    # Last step of the growth phase: the operator's two bounds cross at
    # s = (1 - delta) / (e^eps + 1), which in drift-shifted coordinates
    # is 1/(e^eps + 1) + 2 delta / (e^(2 eps) - 1).
    crossing = 1.0 / (e + 1.0) + 2.0 * budget.delta / (e * e - 1.0)
    flat = start.ravel()
    tau = np.array([_tau(sk, crossing, budget, rho) for sk in flat.tolist()])
    # Each prefix is a row of its own, evaluated at its own tau.
    at_tau = _growth(flat[:, None], rho, budget.epsilon, tau, tau[:, None])[:, 0]
    return rho, tau.reshape(start.shape), np.where(tau == 0.0, flat, at_tau).reshape(start.shape)


def _curve_rows(
    start: np.ndarray,
    phases: tuple[float, np.ndarray, np.ndarray] | None,
    budget: PrivacyBudget,
    ts: np.ndarray,
) -> np.ndarray:
    """The closed form (see closed_form_prefix) on per-row starts: row i
    holds the prefix sums start[i] after ts[i] steps, for t >= 0. start,
    and phases' tau and s_tau, are (rows, q) arrays (see _chain_curve);
    flat index f is entry (f // q, f % q). Each row's floats depend on its
    own start and time alone, not on the other rows asked for."""
    if phases is None:
        out = start + ts[:, None] * budget.delta
    else:
        rho, tau, s_tau = phases
        eps = budget.epsilon
        out = _growth(start, rho, eps, ts, tau)
        # Approach phase, past each prefix's crossing step.
        past = np.flatnonzero(ts[:, None] > tau)
        if len(past):
            decay = _exp_each(-eps * (ts[past // start.shape[1]] - tau.take(past)))
            out.put(past, 1.0 + rho - decay * (1.0 + rho - s_tau.take(past)))
    out = np.where(out < 1.0, out, 1.0)
    zero = ts == 0
    out[zero] = start[zero]
    return out


def _chain_curve(
    table: np.ndarray, phases: tuple[float, np.ndarray, np.ndarray] | None, budget: PrivacyBudget,
    j: np.ndarray, ts: np.ndarray,
) -> np.ndarray:
    """_curve_rows with row i on row j[i] of table, a (chains, q) table of
    prefix sums, and of phases, its _phases, after ts[i] steps."""
    at = None if phases is None else (phases[0], phases[1].take(j, axis=0), phases[2].take(j, axis=0))
    return _curve_rows(table.take(j, axis=0), at, budget, np.asarray(ts, dtype=np.float64))


def _prefix_curve(m: SimplexVector, budget: PrivacyBudget, ts: np.ndarray) -> np.ndarray:
    """The closed-form trajectory of m's prefix sums: row i holds them
    after ts[i] steps, for t >= 0, with every row on m's one start."""
    table = np.array([prefix_sums(m)])
    return _chain_curve(table, _phases(table, budget), budget, np.zeros(len(ts), dtype=np.intp), ts)


def _distributions(s: np.ndarray) -> np.ndarray:
    """Entries of the distributions whose prefix sums are the rows of s."""
    out = np.empty_like(s)
    out[:, 0] = s[:, 0]
    np.subtract(s[:, 1:], s[:, :-1], out=out[:, 1:])
    return out


def closed_form_prefix(
    m: SimplexVector, budget: PrivacyBudget, t: float
) -> tuple[float, ...]:
    """Prefix sums after t operator steps, in closed form: the one-time
    case of _prefix_curve.

    At integer t this equals the iterated operator; fractional t
    interpolates along the same two-phase curves. For eps = 0 the
    recurrence collapses to s^t_k = min(1, s0_k + t delta).
    """
    if not t >= 0:
        raise ValueError("t must be >= 0")
    return tuple(_prefix_curve(m, budget, [t])[0].tolist())


def _fill_chains(
    rows: np.ndarray,
    chains: Sequence[tuple[int, int, SimplexVector, Sequence[int]]],
    budget: PrivacyBudget,
) -> None:
    """For each chain (head, depth, m, order): rows head + 1 .. head +
    depth of rows get operator powers 1 .. depth of m (in preference
    order), normalized, with the k-th preferred color in column order[k].
    Row head is the caller's.

    Every chain goes through one closed-form pass: _phases runs once, on
    the table of the chains' prefix sums, and their power rows, laid end
    to end, are evaluated _CHUNK_ROWS at a time, each row on its own
    chain's start, phases and column order."""
    if not chains:
        return
    heads, depths, ms, orders = zip(*chains)
    table = np.array([prefix_sums(m) for m in ms])
    phases = _phases(table, budget)
    q = table.shape[1]
    # Power row v of the chains laid end to end is step v - begins[j] + 1
    # of chain j, where begins[j] <= v < ends[j]. Its entry k goes to row
    # heads[j] + that step, column orders[j][k]: flat cell v * q + cells[j, k].
    ends = np.cumsum(depths)
    begins = ends - depths
    cells = (np.array(heads) - begins + 1)[:, None] * q + np.array(orders, dtype=np.intp)
    for lo in range(0, int(ends[-1]), _CHUNK_ROWS):
        v = np.arange(lo, min(lo + _CHUNK_ROWS, int(ends[-1])))
        j = np.searchsorted(ends, v, side="right")
        block = normalized_rows(_distributions(_chain_curve(table, phases, budget, j, v - begins[j] + 1)))
        rows.put(v[:, None] * q + cells.take(j, axis=0), block)


def line_mechanism(m: SimplexVector, budget: PrivacyBudget, n: int) -> np.ndarray:
    """The unique optimal mechanism on the path 0..n with boundary m at
    node 0, as its (n + 1, q) float64 rows: row i is the i-th operator
    power of m.

    m is taken in preference order (the caller applies the rainbow), and
    so are the rows; they use the closed form, which avoids accumulating
    float error over long lines.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    rows = np.empty((n + 1, len(m)))
    rows[0] = m.p
    _fill_chains(rows, [(0, n, m, range(len(m)))], budget)
    return rows


def validate_boundary_condition(
    graph: RainbowGraph, bc: BoundaryCondition, budget: PrivacyBudget
) -> tuple[tuple[Rainbow, Rainbow], ...]:
    """Check the boundary condition: every pair of regions joined by an
    edge must carry (eps,delta)-close boundary distributions.

    Raises MissingRainbow when a rainbow with nonempty boundary has no
    boundary vector. Returns the pairs that core._not_close finds not
    close, in adjacent_pairs order: () when the condition is valid. The
    test runs on all pairs at once, both sides of each gathered from one
    table of boundary rows, one per rainbow.
    """
    rainbows = graph.rainbows()
    rim_counts = np.bincount(graph.rainbow_ids[graph.rim], minlength=len(rainbows))
    missing = [c for c, n in zip(rainbows, rim_counts.tolist()) if n and c not in bc.values]
    if missing:
        raise MissingRainbow(missing, graph.color_space)
    pairs, q = graph.adjacent_pairs, graph.color_space.q
    # One boundary row per rainbow id, gathered on both sides of each pair
    # by its rainbow ids; a rainbow with no vector has no rim node, so it is
    # in no pair.
    table = np.array([bc.values[c].p if c in bc.values else (0.0,) * q for c in rainbows]).reshape(-1, q)
    a, b = table[graph._cross[1].T]
    fails = _not_close(a, b, budget)[1].any(axis=0)
    return tuple(pair for pair, bad in zip(pairs, fails.tolist()) if bad)


def optimal_mechanism(
    graph: RainbowGraph, bc: BoundaryCondition, budget: PrivacyBudget
) -> Mechanism:
    """Construct the unique optimal (eps,delta)-DP mechanism for a valid
    homogeneous boundary condition.

    Each node's distribution is the boundary vector of its rainbow,
    taken to preference order, advanced by the operator as many times as
    the node's distance to its region's boundary, and permuted back to
    canonical order. The result is boundary homogeneous, satisfies the
    privacy constraint on every edge, and dominates every valid
    mechanism with the same boundary values.

    The powers form one chain per rainbow, stacked as graph.search lays
    them out, so row k is node k of build_boundary_graph's graph: row 0
    of a chain is the boundary vector, and _fill_chains fills the rest
    of every chain in one pass.
    Node i takes row chain_row[i], its image under the boundary morphism,
    so a (rainbow, distance) pair's nodes share a row: this gather is the
    paper's pullback.
    """
    violations = validate_boundary_condition(graph, bc, budget)
    if violations:
        raise InvalidBoundary(violations, graph.color_space)
    _, depths, starts, chain_row = graph.search
    rows = np.empty((int((depths + 1).sum()), graph.color_space.q))
    chains = []
    for c, start, depth in zip(graph.rainbows(), starts.tolist(), depths.tolist()):
        rows[start] = bc.values[c].p
        if depth:
            chains.append((start, depth, to_preference_order(bc.values[c], c), c.order))
    _fill_chains(rows, chains, budget)
    return Mechanism(rows, chain_row, graph.nodes, graph.color_space)


@dataclass(frozen=True)
class DpViolation:
    edge: tuple[str, str]
    direction: tuple[str, str]
    margin: float


@dataclass(frozen=True)
class DpReport:
    violations: tuple[DpViolation, ...]

    @property
    def valid(self) -> bool:
        return not self.violations


def _failing_pairs(
    rows: np.ndarray, lookup: np.ndarray, pairs: np.ndarray, budget: PrivacyBudget
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs (a, b) of `pairs` whose rows rows[lookup[a]] and
    rows[lookup[b]] are not close, checked by core._not_close _CHUNK_ROWS
    pairs at a time: their indices into pairs, in order, and their columns
    of the kernel's margins and flags, (a, b) then (b, a)."""
    found = [(np.zeros(0, dtype=np.intp), np.zeros((2, 0)), np.zeros((2, 0), dtype=bool))]
    for lo in range(0, len(pairs), _CHUNK_ROWS):
        chunk = pairs[lo:lo + _CHUNK_ROWS]
        margins, over = _not_close(rows[lookup[chunk[:, 0]]], rows[lookup[chunk[:, 1]]], budget)
        bad = np.flatnonzero(over.any(axis=0))
        if len(bad):
            found.append((bad + lo, margins[:, bad], over[:, bad]))
    index, margins, over = (np.concatenate(parts, axis=-1) for parts in zip(*found))
    return index, margins, over


def verify_dp(graph: RainbowGraph, mech: Mechanism, budget: PrivacyBudget) -> DpReport:
    """Check closeness on every edge of the graph.

    A violation records the edge, the failing direction (P, Q), and the
    margin by which delta is exceeded, when that margin is above
    DEFAULT_TOL. Violations come in sorted edge order, each edge's
    (a, b) direction before its (b, a) one.

    An edge's check reads only the rows of its endpoints, mech.rows by
    mech.node_rows, so with r = len(mech.rows) and r * r <= the number of
    edges each distinct (row, row) pair is checked once, found through a
    table of r * r flags, and a failing pair's margins go back to its
    edges; otherwise each edge is checked, in chunks of graph.edge_ends.
    Either way an edge gets the margins the same kernel gives its own two
    rows, the same floats. A mechanism on other nodes or colors than the
    graph's raises ValueError.
    """
    nodes, ends = graph.nodes, graph.edge_ends
    node_rows, rows = _node_rows(graph, mech), mech.rows
    r = len(rows)
    if r * r <= len(ends):
        # In place, so at most two edge-length arrays are alive at once.
        codes = node_rows[ends[:, 0]]
        codes *= r
        codes += node_rows[ends[:, 1]]
        distinct = _distinct_codes(codes, r * r)
        pairs = np.stack(np.divmod(distinct, r), axis=1)
        bad, margins, over = _failing_pairs(rows, np.arange(r), pairs, budget)
        if len(bad):
            # Each failing pair's place among the failures, -1 for a passing one.
            slot = np.full(r * r, -1, dtype=np.intp)
            slot[distinct[bad]] = np.arange(len(bad))
            at = slot[codes]
            bad = np.flatnonzero(at >= 0)
            margins, over = margins[:, at[bad]], over[:, at[bad]]
    else:
        bad, margins, over = _failing_pairs(rows, node_rows, ends, budget)
    found = [
        ((nodes[u], nodes[v]), ms, hits)
        for (u, v), ms, hits in zip(ends[bad].tolist(), margins.T.tolist(), over.T.tolist())
    ]
    violations = []
    for edge, ms, hits in sorted(found, key=lambda f: f[0]):
        for direction, margin, hit in zip((edge, edge[::-1]), ms, hits):
            if hit:
                violations.append(DpViolation(edge, direction, margin))
    return DpReport(tuple(violations))


def is_boundary_homogeneous(graph: RainbowGraph, mech: Mechanism) -> bool:
    """True iff within each rainbow's boundary all node distributions
    agree entrywise within DEFAULT_TOL: each boundary node's row of
    mech.rows is compared with the row of its rainbow's first boundary
    node by name. A mechanism on other nodes or colors than the graph's
    raises ValueError."""
    nodes, ids = graph.nodes, graph.rainbow_ids.tolist()
    # Rim node ids by rainbow id, then name; reference[k] is where rim[k]'s rainbow starts.
    rim = sorted(np.flatnonzero(graph.rim).tolist(), key=lambda i: (ids[i], nodes[i]))
    first: dict[int, int] = {}
    reference = [first.setdefault(ids[i], k) for k, i in enumerate(rim)]
    block = mech.rows[_node_rows(graph, mech)[rim]]
    return not (np.abs(block - block[reference]) > DEFAULT_TOL).any()


def _preference_rows(graph: RainbowGraph, mech: Mechanism) -> np.ndarray:
    """Each node's stored row of mech.rows, in graph.nodes order, with its
    entries in the node's preference order: column k is the mass of its
    k-th preferred color. A mechanism on other nodes or colors than the
    graph's raises ValueError."""
    orders = np.array([c.order for c in graph.rainbows()], dtype=np.intp).reshape(-1, graph.color_space.q)
    return mech.rows[_node_rows(graph, mech)[:, None], orders[graph.rainbow_ids]]


def utility_eval(
    graph: RainbowGraph,
    mech: Mechanism,
    weights: Mapping[str, Sequence[float]],
) -> float:
    """Expected total utility of a mechanism under per-node weights.

    weights[d][k] is the payoff when node d's output is its k-th
    preferred color; each weight sequence must be nonincreasing in k.
    Node d's distribution is its row of mech.rows. Products are added
    left to right, then node totals in graph.nodes order, as plain floats.
    """
    q = graph.color_space.q
    weight_rows = []
    for d in graph.nodes:
        w = weights[d]
        if len(w) != q:
            raise ValueError(f"weight sequence for node {d!r} has wrong length")
        if any(w[i] < w[i + 1] - DEFAULT_TOL for i in range(len(w) - 1)):
            raise ValueError(f"weight sequence for node {d!r} is not nonincreasing")
        weight_rows.append(w)
    products = np.array(weight_rows, dtype=np.float64).reshape(-1, q) * _preference_rows(graph, mech)
    total = 0.0
    for x in _row_sums(products).tolist():
        total += x
    return total


def mechanism_dominates(graph: RainbowGraph, a: Mechanism, b: Mechanism) -> bool:
    """Nodewise dominance of mechanism a over b, compared on each node's
    rows in its preference order as stored, not renormalized."""
    prefixes_a = np.cumsum(_preference_rows(graph, a), axis=1)
    prefixes_b = np.cumsum(_preference_rows(graph, b), axis=1)
    return bool((prefixes_a >= prefixes_b - DEFAULT_TOL).all())


def build_trajectory(
    m: SimplexVector,
    budget: PrivacyBudget,
    steps: int,
    substeps: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The closed-form trajectory of m on the grid t = 0, 1/substeps,
    ..., steps, as arrays (t, p, s): t has shape (T,), and row i of p
    and of s holds the distribution and its prefix sums at t[i]."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    t = np.arange(steps * substeps + 1) / substeps
    s = _prefix_curve(m, budget, t)
    return t, _distributions(s), s
