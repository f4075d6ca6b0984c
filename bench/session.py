"""The measured child process: one workload's CLI commands, timed.

Started by run.py, never by hand. It runs `build`, `verify` and `fuzz`
in process through `rainbowdp.cli.main.main`, one cycle after another
(one untimed warm-up cycle first), then checks the outputs outside the
timed region and prints one JSON object on stdout.

With `--trace 1` the cycles are split: the first half untouched by the
tracer, the second half traced, which gives the per-layer figures and
the tracing overhead. With `--boundary-graph` it instead times one
traced `build_boundary_graph` call on the graph file; run.py runs that
mode under a timeout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

from calibrate import probe_seconds
from tracing import Tracer

OPS = ("build", "verify", "fuzz")
BRUTEFORCE_EDGES = 200
TSTEP_NODES = 5
TSTEP_TOL = 1e-9


def import_program(root: Path):
    """Import rainbowdp from the checkout's src/ and nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import rainbowdp
    import rainbowdp.cli.main

    if Path(rainbowdp.__file__).resolve().parent != (src / "rainbowdp").resolve():
        raise SystemExit(f"rainbowdp imported from {rainbowdp.__file__}, not {src}")
    return rainbowdp


class Session:
    def __init__(self, workload: dict, graph: Path, workdir: Path, seed: int):
        from rainbowdp.cli.main import main

        self.main = main
        self.w = workload
        self.graph = str(graph)
        self.csv = str(workdir / "mechanism.csv")
        self.seed = seed
        budget = workload["budget_args"]
        self.argv = {
            "build": ["build", self.graph, *budget, "--out", self.csv],
            "verify": ["verify", self.graph, self.csv, *budget],
            "fuzz": ["fuzz", "--q", str(workload["q"]), "--trials", str(workload["fuzz_trials"]),
                     "--samples", str(workload["fuzz_samples"]), "--seed", str(workload["fuzz_seed"]), *budget],
        }
        self.attempted = 0
        self.failed = 0
        self.csv_sha: set[str] = set()
        self.fuzz_out: set[str] = set()
        self.verify_out: set[str] = set()

    def op(self, kind: str) -> list[float]:
        """One timed CLI call, as [seconds, probe before, probe after].
        Its exit code and output are judged after the clock stops."""
        out = io.StringIO()
        gc.collect()
        before = probe_seconds()
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            rc = self.main(self.argv[kind])
            elapsed = time.perf_counter() - t0
        after = probe_seconds()
        text = out.getvalue()
        ok = rc == 0
        if kind == "build" and ok:
            self.csv_sha.add(hashlib.sha256(Path(self.csv).read_bytes()).hexdigest())
            ok = len(self.csv_sha) == 1
        elif kind == "verify":
            self.verify_out.add(text)
            ok = ok and text == "valid\n"
        elif kind == "fuzz":
            self.fuzz_out.add(text)
            ok = ok and "result=ok" in text and len(self.fuzz_out) == 1
        self.attempted += 1
        self.failed += not ok
        return [elapsed, before, after]

    def cycles(self, count: int) -> dict[str, list[list[float]]]:
        """`count` cycles of build, verify, fuzz. The count is fixed in
        advance, never read off the clock, so the same seed always makes
        the same calls and the same failures."""
        samples: dict[str, list[list[float]]] = {k: [] for k in OPS}
        for _ in range(count):
            for kind in OPS:
                samples[kind].append(self.op(kind))
        return samples


def verify_violations(texts: set[str]) -> tuple[int, float]:
    """Violation count and largest margin reported by `verify`."""
    count, worst = 0, 0.0
    for text in texts:
        for line in text.splitlines():
            if line.startswith("violation "):
                count += 1
                worst = max(worst, float(line.rsplit("margin=", 1)[1]))
    return count, worst


def check_outputs(session: Session) -> list[str]:
    """Correctness checks against the library, outside any timed region."""
    from rainbowdp import (
        PrivacyBudget,
        boundary_distances,
        decompose_regions,
        is_close,
        is_close_bruteforce,
        optimal_mechanism,
        t_step,
        to_preference_order,
        verify_dp,
    )
    from rainbowdp.cli.graphfile import parse_graph_file
    from rainbowdp.cli.tables import mechanism_csv

    problems = []
    if len(session.csv_sha) != 1:
        problems.append(f"repeated builds wrote {len(session.csv_sha)} distinct CSVs")
    if len(session.fuzz_out) != 1:
        problems.append(f"repeated fuzz calls printed {len(session.fuzz_out)} distinct outputs")

    gf = parse_graph_file(Path(session.graph).read_text(encoding="utf-8"))
    graph, bc = gf.graph, gf.boundary
    budget = PrivacyBudget(session.w["epsilon"], session.w["delta"])
    mech = optimal_mechanism(graph, bc, budget)
    if not verify_dp(graph, mech, budget).valid:
        problems.append("verify_dp rejects the in-memory optimal mechanism")
    in_memory_sha = hashlib.sha256(mechanism_csv(graph, mech).encode()).hexdigest()
    if session.csv_sha and in_memory_sha not in session.csv_sha:
        problems.append("the CLI's CSV differs from the in-memory mechanism's CSV")

    rng = random.Random(f"checks:{session.seed}")
    edges = sorted(graph.edges)
    for a, b in rng.sample(edges, min(BRUTEFORCE_EDGES, len(edges))):
        p, q_ = mech.assignment[a], mech.assignment[b]
        if not (is_close_bruteforce(p, q_, budget) and is_close(p, q_, budget)):
            problems.append(f"edge ({a},{b}) is not close by subset enumeration")
            break

    dist = boundary_distances(graph, decompose_regions(graph))
    nodes = sorted(graph.nodes)
    picked = {max(nodes, key=lambda d: (dist[d], d))}
    picked.update(rng.sample(nodes, min(TSTEP_NODES, len(nodes))))
    for d in sorted(picked):
        c = graph.preference[d]
        vec = to_preference_order(bc.values[c], c)
        for _ in range(dist[d]):
            vec = t_step(vec, budget)
        want = to_preference_order(mech.assignment[d], c)
        gap = max(abs(x - y) for x, y in zip(vec, want))
        if gap > TSTEP_TOL:
            problems.append(f"node {d} at depth {dist[d]}: row differs from iterated t_step by {gap:.3g}")
    return problems


def layer_figures(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced cycle."""
    total, self_time, calls = tracer.totals()
    c = tracer.counts
    closed_form = c["mechanism.closed_form"]
    distinct = len(tracer.powers)
    return {
        "cli.parse_graph_s": total.get("cli.parse_graph", 0.0),
        "cli.emit_csv_s": total.get("cli.emit_csv", 0.0),
        "cli.parse_csv_s": total.get("cli.parse_csv", 0.0),
        "graph.decompose_s": total.get("graph.decompose", 0.0),
        "graph.decompose_calls": calls.get("graph.decompose", 0),
        "graph.distances_s": total.get("graph.distances", 0.0),
        "graph.distances_calls": calls.get("graph.distances", 0),
        "mechanism.validate_s": total.get("mechanism.validate", 0.0),
        "mechanism.close_pair_checks": c["core.is_close@mechanism.validate"],
        "mechanism.optimal_self_s": self_time.get("mechanism.optimal", 0.0),
        "mechanism.closed_form_calls": closed_form,
        "mechanism.distinct_powers": distinct,
        # No calls means no wasted calls.
        "mechanism.power_reuse": distinct / closed_form if closed_form else 1.0,
        "mechanism.verify_dp_s": total.get("mechanism.verify_dp", 0.0),
        "mechanism.edge_checks": c["core.subset_excess@mechanism.verify_dp"],
        "mechanism.verify_violations": tracer.violations,
        "mechanism.t_step_calls": c["mechanism.t_step"],
        "core.simplex_vectors": c["core.simplex_vectors"],
        "core.subset_excess_calls": c["core.subset_excess"],
        "core.subset_excess_s": tracer.leaf_seconds.get("core.subset_excess", 0.0),
        "oracle.sample_close_s": total.get("oracle.sample_close", 0.0),
        "oracle.falsify_self_s": self_time.get("oracle.falsify", 0.0),
        "oracle.samples_tested": tracer.samples_tested,
    }


def span_summary(tracer: Tracer) -> list[dict]:
    total, self_time, calls = tracer.totals()
    return [
        {"span": name, "calls": calls[name], "total_s": total[name], "self_s": self_time[name]}
        for name in sorted(total, key=lambda n: -self_time[n])
    ]


def run_session(args, root: Path) -> dict:
    import numpy

    import_program(root)
    workload = json.loads(Path(args.workload_json).read_text())
    session = Session(workload, Path(args.graph), Path(args.workload_json).parent, args.seed)
    session.cycles(1)  # warm-up

    result: dict = {"env": {"python": sys.version.split()[0], "numpy": numpy.__version__}}
    if args.trace:
        # One cycle per half at least: per-layer figures are not gated, and
        # a traced deep-path cycle alone takes several seconds.
        half = max(1, args.cycles // 2)
        result["untraced"] = session.cycles(half)
        tracer = Tracer()
        tracer.install()
        try:
            per_cycle, traced = [], {k: [] for k in OPS}
            for _ in range(half):
                tracer.clear()
                for kind in OPS:
                    traced[kind].append(session.op(kind))
                per_cycle.append(layer_figures(tracer))
            result["spans_last_cycle"] = span_summary(tracer)
        finally:
            tracer.uninstall()
        result["traced"] = traced
        result["layers"] = {k: [fig[k] for fig in per_cycle] for k in per_cycle[0]}
    else:
        result["samples"] = session.cycles(args.cycles)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    count, worst = verify_violations(session.verify_out)
    result.update(
        attempted=session.attempted,
        failed=session.failed,
        verify_violations=count,
        verify_worst_margin=worst,
        mech_csv_sha256=sorted(session.csv_sha),
        csv_bytes=os.path.getsize(session.csv),
        problems=check_outputs(session),
    )
    return result


def run_boundary_graph(args, root: Path) -> dict:
    import_program(root)
    from rainbowdp.cli.graphfile import parse_graph_file

    gf = parse_graph_file(Path(args.graph).read_text(encoding="utf-8"))
    tracer = Tracer()
    tracer.install()
    try:
        gc.collect()
        bgraph = sys.modules["rainbowdp.graph"].build_boundary_graph(gf.graph)
    finally:
        tracer.uninstall()
    total, _, _ = tracer.totals()
    return {"seconds": total["graph.boundary_graph"], "chain_nodes": len(bgraph.graph.nodes)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--graph", required=True)
    parser.add_argument("--workload-json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cycles", type=int, default=3)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--boundary-graph", action="store_true")
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    result = run_boundary_graph(args, root) if args.boundary_graph else run_session(args, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
