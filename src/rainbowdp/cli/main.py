"""Subcommand dispatcher.

Exit codes: 0 ok, 1 usage or malformed input, 2 privacy/boundary
violation, 3 unconstrained region, 4 incomplete input, 5 falsification
found.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from pathlib import Path
from typing import Iterable

from ..core import PrivacyBudget, SimplexVector
from ..graph import UnconstrainedRegion
from ..mechanism import (
    DpViolation,
    InvalidBoundary,
    MissingRainbow,
    build_trajectory,
    is_boundary_homogeneous,
    optimal_mechanism,
    tau_profile,
    verify_dp,
)
from ..oracle import (
    _drop_delta_rows,
    _fuzz,
    _StepMiss,
    homogenized_pentagon,
    no_optimal_demo,
)
from .graphfile import parse_graph_file
from .svg import render_trajectory_svg
from .tables import (
    MAX_TRAJECTORY_CELLS,
    MissingNodes,
    fmt,
    fmt_tau,
    mechanism_csv,
    mechanism_csv_blocks,
    parse_mechanism_csv,
    parse_trajectory_csv,
    trajectory_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_UNCONSTRAINED = 3
EXIT_INCOMPLETE = 4
EXIT_FALSIFIED = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_budget_flags(parser: argparse.ArgumentParser, required: bool) -> None:
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("--epsilon", type=float, help="privacy parameter epsilon")
    group.add_argument(
        "--e-epsilon",
        dest="e_epsilon",
        type=float,
        help="e^epsilon; sets epsilon = log of this value",
    )
    parser.add_argument("--delta", type=float, default=0.0, help="privacy parameter delta")


def _budget_from_args(args, default_epsilon: float | None = None) -> PrivacyBudget:
    # default_epsilon is read only where the budget flags are optional.
    if args.epsilon is not None:
        eps = args.epsilon
    elif args.e_epsilon is not None:
        if args.e_epsilon < 1.0:
            raise ValueError("--e-epsilon must be >= 1")
        eps = math.log(args.e_epsilon)
    else:
        eps = default_epsilon
    return PrivacyBudget(eps, args.delta)


def _write_text(path: str, blocks: Iterable[str]) -> None:
    """Write the blocks of text in turn over the file in place and cut it at their end, as a truncating
    open makes ext4 free the old blocks first (auto_da_alloc); a failed write leaves an empty file."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb", buffering=0) as raw:
        regular = stat.S_ISREG(os.fstat(raw.fileno()).st_mode)
        try:
            with open(raw.fileno(), "w", encoding="utf-8", newline="", closefd=False) as fh:
                fh.writelines(blocks)
            if regular:
                raw.truncate()
        except BaseException:
            if regular:
                raw.truncate(0)
            raise


def cmd_build(args) -> int:
    budget = _budget_from_args(args)
    gf = parse_graph_file(Path(args.graph_file).read_text(encoding="utf-8"))
    if gf.boundary is None:
        print("error: graph file declares no boundary vectors", file=sys.stderr)
        return EXIT_INCOMPLETE
    mech = optimal_mechanism(gf.graph, gf.boundary, budget)
    # The construction is checked before anything is written: at large
    # epsilon its float arithmetic can miss the budget.
    report = verify_dp(gf.graph, mech, budget)
    if not report.valid:
        worst = max(report.violations, key=lambda v: v.margin)
        print(
            f"error: the constructed mechanism fails the privacy check with "
            f"{len(report.violations)} violation(s); worst: {_violation_line(worst)}",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    _write_text(args.out, mechanism_csv_blocks(gf.graph, mech))
    return EXIT_OK


def _violation_line(v: DpViolation) -> str:
    return (
        f"violation edge=({v.edge[0]},{v.edge[1]}) "
        f"direction={v.direction[0]}->{v.direction[1]} margin={fmt(v.margin)}"
    )


def cmd_verify(args) -> int:
    budget = _budget_from_args(args)
    gf = parse_graph_file(Path(args.graph_file).read_text(encoding="utf-8"))
    with open(args.mechanism_file, encoding="utf-8") as fh:
        try:
            mech = parse_mechanism_csv(fh, gf.graph)
        except UnicodeDecodeError as exc:
            # exc.object, the bytes being decoded, ends where the file has been read to.
            at, bad = fh.buffer.tell() - len(exc.object) + exc.start, exc.object[exc.start:exc.end]
            where = (f"byte 0x{bad[0]:02x} in position {at}" if len(bad) == 1
                     else f"bytes in position {at}-{at + len(bad) - 1}")
            raise ValueError(f"'{exc.encoding}' codec can't decode {where}: {exc.reason}") from None
    report = verify_dp(gf.graph, mech, budget)
    if report.valid:
        print("valid")
        return EXIT_OK
    for v in report.violations:
        print(_violation_line(v))
    return EXIT_VIOLATION


def cmd_trajectory(args) -> int:
    budget = _budget_from_args(args)
    m = SimplexVector(tuple(float(tok) for tok in args.boundary.split(",")))
    if args.steps < 0 or args.substeps < 1:
        raise ValueError("need steps >= 0 and substeps >= 1")
    # The CSV has a line per (t, k) cell, and its text is built at once.
    if (args.steps * args.substeps + 1) * len(m) > MAX_TRAJECTORY_CELLS:
        raise ValueError(f"need (steps * substeps + 1) * q <= {MAX_TRAJECTORY_CELLS}")
    if budget.exp_epsilon > 1.0:
        rho, tau = profile = tau_profile(m, budget)
        print("rho " + fmt(rho))
        print("tau " + ",".join(map(fmt_tau, tau)))
    else:
        profile = None
        print("rho n/a (epsilon=0)")
        print("tau n/a (epsilon=0)")
    t, p, s = build_trajectory(m, budget, args.steps, args.substeps)
    _write_text(args.out, [trajectory_csv(t, p, s, profile)])
    return EXIT_OK


def cmd_plot(args) -> int:
    series, _, tau = parse_trajectory_csv(Path(args.trajectory_csv).read_text(encoding="utf-8"))
    _write_text(args.out, [render_trajectory_svg(series, tau)])
    return EXIT_OK


def cmd_demo_no_optimal(args) -> int:
    budget = _budget_from_args(args, default_epsilon=math.log(2.0))
    if args.homogenized:
        graph, mech = homogenized_pentagon(budget)
        report = verify_dp(graph, mech, budget)
        print("optimal mechanism on the homogenized pentagon:")
        sys.stdout.write(mechanism_csv(graph, mech))
        print(f"verifies: {str(report.valid).lower()}")
        return EXIT_OK if report.valid else EXIT_VIOLATION
    graph, (mech1, _, _), (r1, r2, r3) = no_optimal_demo(budget)
    print(f"mech1 valid: {str(r1.valid).lower()}")
    print(f"mech2 valid: {str(r2.valid).lower()}")
    print(f"forced mech3 valid: {str(r3.valid).lower()}")
    if r3.violations:
        (a, b), margin = r3.violations[0].edge, r3.violations[0].margin
        print(f"violating edge: ({a},{b}) margin {fmt(margin)}")
    print(f"boundary homogeneous: {str(is_boundary_homogeneous(graph, mech1)).lower()}")
    return EXIT_OK if r1.valid and r2.valid and not r3.valid else EXIT_VIOLATION


def cmd_fuzz(args) -> int:
    budget = _budget_from_args(args)
    if not 2 <= args.q <= 12:
        raise ValueError("need 2 <= q <= 12")
    for name, low in (("trials", 1), ("samples", 1), ("seed", 0)):
        if getattr(args, name) < low:
            raise ValueError(f"need {name} >= {low}")
    # --samples is checked and printed; it draws nothing.
    if args.samples > 65536:
        raise ValueError("need samples <= 65536")
    step_rows = _drop_delta_rows if args.mutant_drop_delta else None
    hit = _fuzz(args.q, budget, args.trials, args.seed, step_rows)
    result, code = "ok", EXIT_OK
    if hit is not None:
        i, p, found = hit
        line = {"trial": i, "p": [fmt(x) for x in p], "margin": fmt(found.margin), "seed": args.seed}
        if isinstance(found, _StepMiss):
            line["step"] = [fmt(x) for x in found.step]
            result = f"step-not-close trial={i}"
        else:
            line["sample"] = [fmt(x) for x in found.vector]
            line["prefix_index"] = found.prefix_index
            result = f"counterexample trial={i}"
        print(json.dumps(line, sort_keys=True))
        code = EXIT_FALSIFIED
    print(
        f"fuzz q={args.q} trials={args.trials} seed={args.seed} "
        f"epsilon={fmt(budget.epsilon)} delta={fmt(budget.delta)} "
        f"samples={args.samples} result={result}"
    )
    return code


@functools.cache
def build_parser() -> _Parser:
    """The one parser of this process, built on first use and shared by
    every caller, so none may change it. It holds no command function:
    main looks the command up by name on each call, so a cmd_* rebound
    on this module after the parser was built is the one run."""
    parser = _Parser(prog="rainbow-dp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct the optimal mechanism for a graph file")
    p.add_argument("graph_file")
    _add_budget_flags(p, required=True)
    p.add_argument("--out", required=True, help="output mechanism CSV path")

    p = sub.add_parser("verify", help="check a mechanism CSV against a graph file")
    p.add_argument("graph_file")
    p.add_argument("mechanism_file")
    _add_budget_flags(p, required=True)

    p = sub.add_parser("trajectory", help="emit the closed-form trajectory of a boundary vector")
    p.add_argument("--boundary", required=True, help="comma-separated probabilities, preference order")
    _add_budget_flags(p, required=True)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--substeps", type=int, default=1, help="samples per unit t")
    p.add_argument("--out", required=True, help="output trajectory CSV path")

    p = sub.add_parser("plot", help="render a trajectory CSV as a standalone SVG")
    p.add_argument("trajectory_csv")
    p.add_argument("--out", required=True, help="output SVG path")

    p = sub.add_parser(
        "demo-no-optimal",
        help="run the pentagon demonstration (no optimal mechanism for a non-homogeneous boundary)",
    )
    _add_budget_flags(p, required=False)
    p.add_argument(
        "--homogenized",
        action="store_true",
        help="build and print the optimal mechanism on the homogenized pentagon instead",
    )

    p = sub.add_parser("fuzz", help="check the operator's one-step claim on random start distributions")
    p.add_argument("--q", type=int, required=True, help="alphabet size, 2..12")
    p.add_argument("--trials", type=int, default=100, help="number of random start distributions")
    p.add_argument("--seed", type=int, default=0)
    _add_budget_flags(p, required=True)
    p.add_argument(
        "--samples", type=int, default=64,
        help="1..65536; accepted and printed, with no effect on any draw (each trial checks q witnesses)",
    )
    p.add_argument("--mutant-drop-delta", action="store_true", help=argparse.SUPPRESS)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except Exception as exc:
        # The first match wins (InvalidBoundary is also a ValueError).
        # Anything else is a program fault and keeps its traceback.
        for kinds, code in (
            ((MissingRainbow, MissingNodes), EXIT_INCOMPLETE),
            (InvalidBoundary, EXIT_VIOLATION),
            (UnconstrainedRegion, EXIT_UNCONSTRAINED),
            ((ValueError, OSError), EXIT_USAGE),
        ):
            if isinstance(exc, kinds):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    raise SystemExit(main())
