"""Foundational value types and order/closeness predicates.

Distributions over a finite output space are compared through their
prefix sums, in the dominance (partial) order, and through the
(epsilon,delta)-closeness relation that defines differential privacy
edgewise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# The one tolerance of every check: dominance, (eps,delta)-closeness,
# the edgewise DP check, boundary homogeneity and the falsifier's
# verdicts all use it.
DEFAULT_TOL = 1e-12

# Published boundary vectors are often rounded to 4 decimals, so their
# entries can miss 1.0 by up to a few 1e-4. Anything beyond this window
# is treated as a genuinely invalid distribution.
SUM_WINDOW = 1e-3

# Entries this far below zero are float noise from prefix differencing
# and get clamped; anything lower is rejected.
NEGATIVE_WINDOW = 1e-9

# Mechanism rows are never renormalized and may miss a sum of 1 by this
# much: written rows miss it by a few 1e-16, hand-written ones rounded to
# about 9 digits by more.
ROW_SUM_TOL = 1e-9

# The largest epsilon whose e^epsilon is a finite float (about 709.78).
MAX_EPSILON = math.log(sys.float_info.max)


@dataclass(frozen=True)
class ColorSpace:
    """The ordered finite output space; index order is canonical."""

    colors: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "colors", tuple(self.colors))
        if len(self.colors) < 2:
            raise ValueError("color space needs at least 2 colors")
        if len(set(self.colors)) != len(self.colors):
            raise ValueError("color identifiers must be distinct")
        if any(not c for c in self.colors):
            raise ValueError("color identifiers must be nonempty")

    @property
    def q(self) -> int:
        return len(self.colors)

    def index_of(self, color: str) -> int:
        return self.colors.index(color)


@dataclass(frozen=True)
class Rainbow:
    """A total preference order: ``order[k]`` is the canonical index of
    the k-th most preferred color."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", tuple(int(i) for i in self.order))
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError(f"not a permutation of 0..{len(self.order) - 1}: {self.order}")

    @property
    def q(self) -> int:
        return len(self.order)

    def color_names(self, space: ColorSpace) -> tuple[str, ...]:
        """Color identifiers in preference order (most preferred first)."""
        return tuple(space.colors[i] for i in self.order)


@dataclass(frozen=True)
class SimplexVector:
    """A probability distribution over the output space.

    Entries are stored in canonical color order unless a call site says
    otherwise. Construction clamps float-noise negatives to zero and
    renormalizes sums within SUM_WINDOW of 1; worse inputs are rejected.
    SimplexVector.wrap is the exception: it keeps rows as given, and
    Mechanism.assignment uses it, so the vectors of a mechanism parsed
    from a CSV hold the file's values, which may lie up to 1e-9 outside
    the simplex.
    """

    p: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = [float(x) for x in self.p]
        if len(vals) < 2:
            raise ValueError("distribution needs at least 2 entries")
        for x in vals:
            if not math.isfinite(x) or x < -NEGATIVE_WINDOW or x > 1.0 + NEGATIVE_WINDOW:
                raise ValueError(f"entry {x!r} outside [0, 1]")
        vals = [min(max(x, 0.0), 1.0) for x in vals]
        # Summed left to right by hand: builtin sum() of floats is
        # compensated from Python 3.12 on, and the bits of every
        # normalized row must not depend on the interpreter.
        total = 0.0
        for x in vals:
            total += x
        if abs(total - 1.0) > SUM_WINDOW:
            raise ValueError(f"entries sum to {total!r}, not 1")
        object.__setattr__(self, "p", tuple(x / total for x in vals))

    @classmethod
    def wrap(cls, a: np.ndarray) -> list[SimplexVector]:
        """One SimplexVector per row of a 2-D array, holding the row's
        entries as they are: nothing is checked, clamped or normalized.
        For rows that normalized_rows made, or that were checked as read."""
        out = []
        for row in a.tolist():
            vec = object.__new__(cls)
            object.__setattr__(vec, "p", tuple(row))
            out.append(vec)
        return out

    def __len__(self) -> int:
        return len(self.p)

    def __iter__(self):
        return iter(self.p)

    def __getitem__(self, k: int) -> float:
        return self.p[k]


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-D array added left to right from 0.0, as the scalar
    checks add, with no warning for a sum that overflows or meets
    inf + -inf: the caller's check rejects the inf or nan."""
    total = np.zeros(len(rows))
    with np.errstate(invalid="ignore", over="ignore"):
        for column in rows.T:
            total += column
    return total


def _outside_window(a: np.ndarray) -> np.ndarray:
    """The entries not finite or outside [0, 1] by more than NEGATIVE_WINDOW."""
    return ~np.isfinite(a) | (a < -NEGATIVE_WINDOW) | (a > 1.0 + NEGATIVE_WINDOW)


def _first_bad_row(rows: np.ndarray) -> tuple[int, str] | None:
    """The first row whose entries, added left to right, miss a sum of 1
    by more than ROW_SUM_TOL, or that holds an entry that is not finite
    or lies outside [0, 1] by more than NEGATIVE_WINDOW, with the error;
    a row failing both reports its sum."""
    total = _row_sums(rows)
    bad_sum = np.abs(total - 1.0) > ROW_SUM_TOL
    bad_entry = _outside_window(rows)
    bad = bad_sum | bad_entry.any(axis=1)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    if bad_sum[i]:
        return i, f"entries sum to {float(total[i])!r}, not 1"
    return i, f"entry {float(rows[i, int(np.argmax(bad_entry[i]))])!r} outside [0, 1]"


def normalized_rows(a: np.ndarray) -> np.ndarray:
    """The rows of a 2-D array as SimplexVector stores them, as a new
    array: each entry checked to be finite and inside [-NEGATIVE_WINDOW,
    1 + NEGATIVE_WINDOW], clamped to [0, 1], the row checked to sum to 1
    within SUM_WINDOW, then divided by its left-to-right sum. The first
    bad row raises SimplexVector's error.

    Row for row this is bit for bit what the constructor gives, so
    ``SimplexVector.wrap(normalized_rows(a))`` equals
    ``[SimplexVector(tuple(row)) for row in a]``."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array of rows, got {a.ndim} dimension(s)")
    if a.shape[0] and a.shape[1] < 2:
        raise ValueError("distribution needs at least 2 entries")
    out_of_range = _outside_window(a)
    # min(max(x, 0.0), 1.0) as Python evaluates it, so -0.0 stays -0.0.
    rows = a.copy()
    np.copyto(rows, 0.0, where=a < 0.0)
    np.copyto(rows, 1.0, where=rows > 1.0)
    total = _row_sums(rows)
    bad_entry = out_of_range.any(axis=1)
    bad = bad_entry | (np.abs(total - 1.0) > SUM_WINDOW)
    if bad.any():
        i = int(np.argmax(bad))
        if bad_entry[i]:
            x = float(a[i, int(np.argmax(out_of_range[i]))])
            raise ValueError(f"entry {x!r} outside [0, 1]")
        raise ValueError(f"entries sum to {float(total[i])!r}, not 1")
    rows /= total[:, None]
    return rows


@dataclass(frozen=True)
class PrivacyBudget:
    """An (epsilon, delta) privacy budget."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.epsilon) or self.epsilon < 0:
            raise ValueError("epsilon must be finite and >= 0")
        if self.epsilon > MAX_EPSILON:
            raise ValueError(f"epsilon must be <= {MAX_EPSILON!r} so that e^epsilon is a finite float")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must be in [0, 1]")

    @property
    def exp_epsilon(self) -> float:
        return math.exp(self.epsilon)


def _require_same_length(x: Sequence[float], y: Sequence[float]) -> None:
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")


def prefix_sums(p: SimplexVector | Iterable[float]) -> tuple[float, ...]:
    """Running sums s_1..s_q of the entries; s_q lands on 1 for any
    valid distribution."""
    out = []
    acc = 0.0
    for x in p:
        acc += x
        out.append(acc)
    return tuple(out)


def dominates(x: SimplexVector, y: SimplexVector) -> bool:
    """True iff x is at least y in the dominance order: every prefix sum
    of x is >= the matching prefix sum of y, up to DEFAULT_TOL.

    Both inputs must already be expressed in the comparison (preference)
    order; callers permute first when needed.
    """
    _require_same_length(x, y)
    sx = prefix_sums(x)
    sy = prefix_sums(y)
    return all(a >= b - DEFAULT_TOL for a, b in zip(sx, sy))


def subset_excess(p: SimplexVector, q_: SimplexVector, exp_epsilon: float) -> float:
    """max over outcome subsets S of P(S) - e^eps * Q(S).

    The maximizing S is exactly the set of outcomes with positive
    margin, so the supremum is a sum of per-element positive parts and
    the check is O(q) instead of O(2^q).
    """
    _require_same_length(p, q_)
    total = 0.0
    for a, b in zip(p, q_):
        m = a - exp_epsilon * b
        if m > 0.0:
            total += m
    return total


def _hockey_stick(p: np.ndarray, q_: np.ndarray, exp_epsilon: float) -> np.ndarray:
    """subset_excess of each row pair: the positive parts of
    P - e^eps Q, added column by column, left to right, as subset_excess
    adds them, so each total is the float it gives."""
    diff = exp_epsilon * q_
    np.subtract(p, diff, out=diff)
    # fmax, unlike maximum, takes nan to 0.0, as subset_excess skips it.
    return _row_sums(np.fmax(diff, 0.0, out=diff))


def _not_close(a: np.ndarray, b: np.ndarray, budget: PrivacyBudget) -> tuple[np.ndarray, np.ndarray]:
    """The closeness verdict on each pair of aligned rows a[i], b[i]: their
    margins, hockey-stick excess less delta, as a (2, n) array, row 0
    from a[i] to b[i] and row 1 back, and the (2, n) mask of margins
    above DEFAULT_TOL. Pair i is close iff neither flag of column i is
    set. Every check of closeness on arrays reads this one comparison."""
    e = budget.exp_epsilon
    margins = np.stack([_hockey_stick(a, b, e), _hockey_stick(b, a, e)])
    margins -= budget.delta
    return margins, margins > DEFAULT_TOL


def is_close(p: SimplexVector, q_: SimplexVector, budget: PrivacyBudget) -> bool:
    """True iff P(S) <= e^eps Q(S) + delta and symmetrically, up to
    DEFAULT_TOL, for every outcome subset S (computed without subset
    enumeration): the one-row reference of _not_close, whose margin form
    it shares, so the two agree on every pair."""
    e = budget.exp_epsilon
    return max(subset_excess(p, q_, e), subset_excess(q_, p, e)) - budget.delta <= DEFAULT_TOL

