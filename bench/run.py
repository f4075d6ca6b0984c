"""rainbowdp benchmark: wall time of `build`, `verify` and `fuzz` on
seeded workloads, plus a traced run with per-layer figures.

    python3 bench/run.py --workload grid-stripes --seed 1 --seconds 15 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory. The graph file is generated here, outside the measured
child process, which then runs the commands through
`rainbowdp.cli.main.main`. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under `--trace 0` and the per-layer metrics
under `--trace 1`. The lines before it are a readable report: every
metric with its unit and sample count, the tail percentile the sample
count supports, the environment, and the mechanism CSV's sha256.
`--smoke` shrinks every workload so the whole path runs in seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, scaled
from session import OPS
from workloads import WORKLOADS, make_workload

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_RUNS = 5
MIN_CYCLES = 3
SESSION_TIMEOUT_S = 150.0
# build_boundary_graph is quadratic on long chains (Morphism rebuilds the
# codomain node set per mapped node); a 50k-node path would take minutes.
BOUNDARY_GRAPH_TIMEOUT_S = 10.0
# The probes run after the import, so the import sees a fresh interpreter.
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import rainbowdp, rainbowdp.cli.main\n"
    "elapsed = time.perf_counter() - t0\n"
    f"sys.path.insert(0, {str(BENCH)!r})\n"
    "from calibrate import probe_seconds\n"
    "speed = probe_seconds()\n"
    "print(elapsed, speed, speed)\n"
)


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=timeout,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[:2])} exited with {proc.returncode}")
    return proc


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(runs: int) -> list[list[float]]:
    """Import time of the package and its CLI in fresh interpreters, as
    [seconds, probe, probe] (one probe, given twice to fit `scaled`)."""
    return [[float(x) for x in run_child(["-c", SETUP_CODE], 60).stdout.split()] for _ in range(runs)]


def cycle_count(cycle_s: float, seconds: float, smoke: bool) -> int:
    """Timed cycles of one run: as many as fill `seconds` at the workload's
    nominal cycle time. Fixed before the run, so two runs of one seed make
    the same calls (and fail the same ones) whatever the host's speed."""
    return max(1 if smoke else MIN_CYCLES, round(seconds / cycle_s))


def tail(samples: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    return math.floor(100 * (n - 10) / n), sorted(samples)[n - 11]


def describe(name: str, samples: list[list[float]]) -> str:
    values = scaled(samples)
    t = tail(values)
    tail_text = f"p{t[0]} {t[1]:.6g}" if t else "no tail percentile (needs n >= 11)"
    raw = statistics.median(s[0] for s in samples)
    return (f"  {name:<12} median {statistics.median(values):.6g} s  {tail_text}  n={len(values)}"
            f"  (unscaled median {raw:.6g} s)")


def revision() -> dict:
    src = ROOT / "src" / "rainbowdp"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        git = None
    return {"git": git, "src_sha256": digest.hexdigest()}


def end_to_end(result: dict, setup: list[list[float]]) -> tuple[dict, list[str]]:
    samples = {f"{op}_s": result["samples"][op] for op in OPS}
    samples["setup_s"] = setup
    probes = [k for s in samples.values() for sample in s for k in sample[1:]]
    lines = [f"  timings scaled to a {REFERENCE_S * 1e3:g} ms calibration kernel pass; this run's "
             f"probes: median {statistics.median(probes) * 1e3:.2f} ms, fastest "
             f"{min(probes) * 1e3:.2f} ms (see bench/calibrate.py)"]
    lines += [describe(name, s) for name, s in samples.items()]
    lines.append(f"  {'peak_rss_mb':<12} {result['peak_rss_mb']:.6g} MB  n=1")
    metrics = {name: {"value": statistics.median(scaled(s)), "unit": "s"}
               for name, s in samples.items()}
    metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
    return metrics, lines


def per_layer(result: dict, boundary: dict, graph_bytes: int, units: dict) -> tuple[dict, list[str]]:
    values = {name: statistics.median(v) for name, v in result["layers"].items()}
    values["cli.graph_bytes"] = graph_bytes
    values["cli.csv_bytes"] = result["csv_bytes"]
    values["graph.boundary_graph_s"] = boundary["seconds"]
    values["graph.boundary_graph_timed_out"] = int(boundary["timed_out"])
    for op in OPS:
        values[f"trace.overhead_{op}_s"] = (
            statistics.median(scaled(result["traced"][op]))
            - statistics.median(scaled(result["untraced"][op]))
        )
    cycles = len(result["traced"]["build"])
    lines = [f"  per traced cycle (one build, one verify, one fuzz), median of {cycles} cycles;"
             f" untraced cycles: {len(result['untraced']['build'])}"]
    lines += [f"  {name:<34} {value:.6g} {units[name]}" for name, value in values.items()]
    if boundary["timed_out"]:
        lines.append(f"  graph.boundary_graph_s timed out after {BOUNDARY_GRAPH_TIMEOUT_S:g} s "
                     "(value is the timeout, a lower bound)")
    lines.append("  spans of the last traced cycle (by self time):")
    lines += [f"    {s['span']:<22} calls {s['calls']:>4}  total {s['total_s']:.4f} s  "
              f"self {s['self_s']:.4f} s" for s in result["spans_last_cycle"]]
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    return metrics, lines


def boundary_graph(graph: Path) -> dict:
    """One traced build_boundary_graph call in its own process, killed at
    the timeout; a timeout is reported, not skipped."""
    try:
        proc = run_child([str(BENCH / "session.py"), "--boundary-graph", "--graph", str(graph)],
                         BOUNDARY_GRAPH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"seconds": BOUNDARY_GRAPH_TIMEOUT_S, "timed_out": True}
    return {**last_json(proc), "timed_out": False}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny graphs and fuzz calls")
    args = parser.parse_args()

    if not (ROOT / "src" / "rainbowdp" / "__init__.py").is_file():
        print(f"error: no rainbowdp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        started = time.perf_counter()
        workload, text = make_workload(args.workload, args.seed, smoke=args.smoke)
        graph = workdir / "input.graph"
        graph.write_text(text, encoding="utf-8")
        workload_json = workdir / "workload.json"
        workload_json.write_text(json.dumps(dataclasses.asdict(workload)))
        setup = [] if args.trace else measure_setup(2 if args.smoke else SETUP_RUNS)
        cycles = cycle_count(workload.cycle_s, args.seconds, args.smoke)
        proc = run_child(
            [str(BENCH / "session.py"), "--graph", str(graph), "--workload-json", str(workload_json),
             "--seed", str(args.seed), "--trace", str(args.trace),
             "--cycles", str(cycles)],
            SESSION_TIMEOUT_S,
        )
        result = last_json(proc)
        if args.trace:
            metrics, lines = per_layer(result, boundary_graph(graph), len(text.encode()), wanted)
        else:
            metrics, lines = end_to_end(result, setup)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            workdir.parent.rmdir()
    if set(metrics) != set(wanted):
        print(f"error: metrics {sorted(set(metrics) ^ set(wanted))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1

    env = {**result["env"], **revision(), "nproc": len(os.sched_getaffinity(0)),
           "workload": args.workload, "sizes": workload.sizes, "smoke": args.smoke}
    print(f"rainbowdp benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} cycles={cycles} trace={args.trace}  wall {time.perf_counter() - started:.1f} s")
    print("env " + json.dumps(env, sort_keys=True))
    print("\n".join(lines))
    print(f"  mech_csv_sha256 {' '.join(result['mech_csv_sha256'])}")
    if result["verify_violations"]:
        print(f"  verify rejects build's own CSV: {result['verify_violations']} violations per call, "
              f"worst margin {result['verify_worst_margin']:.3g} (CSV rows are written with 12 "
              "significant digits; the in-memory mechanism verifies valid)")
    print(f"  failed_share {result['failed'] / result['attempted']:.6g}  "
          f"(failed {result['failed']} of {result['attempted']} calls)")
    problems = result["problems"]
    print("  correctness checks: " + ("ok" if not problems else "; ".join(problems)))
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
