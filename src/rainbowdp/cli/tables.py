"""CSV emission and parsing for mechanisms and trajectories.

Numbers are written with 12 significant digits and LF line endings so
identical invocations produce byte-identical files.
"""

from __future__ import annotations

import math

from ..core import ColorSpace, SimplexVector, prefix_sums
from ..graph import RainbowGraph
from ..mechanism import Mechanism, TauProfile, TrajectoryRow, TrajectoryTable

# Rows written by mechanism_csv miss a sum of 1 only by the rounding of
# their 12-digit cells (about q * 5e-13). SimplexVector's SUM_WINDOW is
# for rounded boundary vectors and would quietly renormalize far worse.
ROW_SUM_TOL = 1e-9


def fmt(x: float) -> str:
    """Shortest 12-significant-digit decimal form, '.' separator."""
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".12g")


def mechanism_csv(graph: RainbowGraph, mech: Mechanism) -> str:
    """One row per node, probabilities in canonical color order; rows
    sorted by node identifier. Each distinct distribution is formatted
    once and its cells shared by every node that carries it."""
    space = graph.color_space
    parts = ["node," + ",".join(space.colors) + "\n"]
    cells: dict[tuple[float, ...], str] = {}
    for d in sorted(graph.nodes):
        p = mech.assignment[d].p
        row = cells.get(p)
        if row is None:
            row = cells[p] = "," + ",".join(fmt(x) for x in p) + "\n"
        parts += (d, row)
    return "".join(parts)


def parse_mechanism_csv(text: str, space: ColorSpace) -> dict[str, SimplexVector]:
    """Parse a mechanism CSV back into per-node distributions; a row
    whose entries miss a sum of 1 by more than ROW_SUM_TOL is rejected.
    Blank lines are skipped; error messages give physical line numbers."""
    lines = ((n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip())
    _, header = next(lines, (0, None))
    if header is None:
        raise ValueError("empty mechanism file")
    expected_header = "node," + ",".join(space.colors)
    if header != expected_header:
        raise ValueError(f"header {header!r} does not match colors {space.colors}")
    out: dict[str, SimplexVector] = {}
    for lineno, line in lines:
        cells = line.split(",")
        if len(cells) != 1 + space.q:
            raise ValueError(f"line {lineno}: expected {1 + space.q} cells, got {len(cells)}")
        node = cells[0]
        if node in out:
            raise ValueError(f"line {lineno}: duplicate row for node {node!r}")
        try:
            probs = tuple(float(c) for c in cells[1:])
            # Left to right, as SimplexVector sums: sum() is compensated from 3.12 on.
            total = prefix_sums(probs)[-1]
            if abs(total - 1.0) > ROW_SUM_TOL:
                raise ValueError(f"entries sum to {total!r}, not 1")
            out[node] = SimplexVector(probs)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return out


def trajectory_csv(table: TrajectoryTable, profile: TauProfile | None = None) -> str:
    """Trajectory rows sorted by (t, k), preceded by the drift and the
    transition indices as comment lines when a profile is available (the
    plotter reads them back for its markers)."""
    lines: list[str] = []
    if profile is not None:
        lines.append("# rho " + fmt(profile.rho))
        lines.append("# tau " + ",".join(fmt_tau(v) for v in profile.tau))
    lines.append("t,k,color,p,s")
    for row in table.rows:
        lines.append(f"{fmt(row.t)},{row.k},{row.color},{fmt(row.p)},{fmt(row.s)}")
    return "\n".join(lines) + "\n"


def fmt_tau(v: float) -> str:
    """A transition index as an integer, or 'inf' for INFINITE."""
    return "inf" if math.isinf(v) else str(int(v))


def parse_trajectory_csv(
    text: str,
) -> tuple[TrajectoryTable, float | None, tuple[float, ...] | None]:
    """Parse a trajectory CSV; returns the table plus any rho/tau comment
    values found."""
    rho: float | None = None
    tau: tuple[float, ...] | None = None
    rows: list[TrajectoryRow] = []
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        comment = line.startswith("#")
        if not comment and not header_seen:
            if line != "t,k,color,p,s":
                raise ValueError(f"line {lineno}: expected trajectory header, got {line!r}")
            header_seen = True
            continue
        try:
            if comment:
                body = line[1:].strip()
                if body.startswith("rho "):
                    rho = float(body[4:])
                elif body.startswith("tau "):
                    tau = tuple(float(v) for v in body[4:].split(","))
                continue
            cells = line.split(",")
            if len(cells) != 5:
                raise ValueError(f"expected 5 cells, got {len(cells)}")
            rows.append(
                TrajectoryRow(
                    t=float(cells[0]),
                    k=int(cells[1]),
                    color=cells[2],
                    p=float(cells[3]),
                    s=float(cells[4]),
                )
            )
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not header_seen:
        raise ValueError("missing trajectory header")
    rows.sort(key=lambda r: (r.t, r.k))
    return TrajectoryTable(tuple(rows)), rho, tau
