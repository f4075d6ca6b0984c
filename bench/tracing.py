"""Span and counter tracing around rainbowdp's public functions.

The program is not edited: `Tracer.install` rebinds each traced public
function, in every loaded `rainbowdp` module that holds a reference to
it, to a wrapper, and `uninstall` puts the originals back.

Layer boundaries are recorded as spans (name, start, end, parent index)
kept in memory. Hot leaf functions, called once per edge or per node,
only bump counters (and, for `subset_excess`, a time total) so the
trace does not swamp what it measures.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, attribute) -> span name. Spans nest; the CLI commands are roots.
SPANS = {
    ("rainbowdp.cli.main", "cmd_build"): "cli.build",
    ("rainbowdp.cli.main", "cmd_verify"): "cli.verify",
    ("rainbowdp.cli.main", "cmd_fuzz"): "cli.fuzz",
    ("rainbowdp.cli.graphfile", "parse_graph_file"): "cli.parse_graph",
    ("rainbowdp.cli.tables", "parse_mechanism_csv"): "cli.parse_csv",
    ("rainbowdp.cli.tables", "mechanism_csv"): "cli.emit_csv",
    ("rainbowdp.graph", "decompose_regions"): "graph.decompose",
    ("rainbowdp.graph", "boundary_distances"): "graph.distances",
    ("rainbowdp.graph", "build_boundary_graph"): "graph.boundary_graph",
    ("rainbowdp.mechanism", "validate_boundary_condition"): "mechanism.validate",
    ("rainbowdp.mechanism", "optimal_mechanism"): "mechanism.optimal",
    ("rainbowdp.mechanism", "verify_dp"): "mechanism.verify_dp",
    ("rainbowdp.oracle", "dominance_falsify"): "oracle.falsify",
    ("rainbowdp.oracle", "sample_close"): "oracle.sample_close",
}

# (module, attribute) -> counter name. Counted per enclosing span as
# "<name>@<span>" as well as in total.
LEAVES = {
    ("rainbowdp.core", "is_close"): "core.is_close",
    ("rainbowdp.core", "subset_excess"): "core.subset_excess",
    ("rainbowdp.mechanism", "closed_form_prefix"): "mechanism.closed_form",
    ("rainbowdp.mechanism", "t_step"): "mechanism.t_step",
}

TIMED_LEAVES = {"core.subset_excess"}


class Tracer:
    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.leaf_seconds: defaultdict = defaultdict(float)
        self.powers: set = set()  # distinct (boundary vector, t > 0) arguments
        self.violations = 0
        self.samples_tested = 0
        self._stack: list[int] = []

    # -- wrappers -----------------------------------------------------

    def _span(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _leaf(self, name, fn):
        counts, stack, spans = self.counts, self._stack, self.spans
        timed = name in TIMED_LEAVES
        seconds, clock = self.leaf_seconds, time.perf_counter
        powers = self.powers if name == "mechanism.closed_form" else None

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if stack:
                counts[name + "@" + spans[stack[-1]][0]] += 1
            if powers is not None:
                t = args[2] if len(args) > 2 else kwargs["t"]
                if t > 0:
                    powers.add((args[0].p, t))
            if not timed:
                return fn(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - t0

        return wrapper

    def _on_verify(self, report) -> None:
        self.violations += len(report.violations)

    def _on_falsify(self, report) -> None:
        self.samples_tested += report.trials

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever rainbowdp modules bind it,
        and count SimplexVector constructions."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {"mechanism.verify_dp": self._on_verify, "oracle.falsify": self._on_falsify}
        replacements = {}
        for (mod, attr), name in SPANS.items():
            original = getattr(sys.modules[mod], attr)
            replacements[id(original)] = (original, self._span(name, original, hooks.get(name)))
        for (mod, attr), name in LEAVES.items():
            original = getattr(sys.modules[mod], attr)
            replacements[id(original)] = (original, self._leaf(name, original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "rainbowdp" and not mod_name.startswith("rainbowdp."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

        simplex = sys.modules["rainbowdp.core"].SimplexVector
        original_post_init = simplex.__post_init__
        counts = self.counts

        def post_init(vec):
            counts["core.simplex_vectors"] += 1
            original_post_init(vec)

        self._patches.append((simplex, "__post_init__", original_post_init))
        simplex.__post_init__ = post_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def clear(self) -> None:
        """Empty the collected data in place; installed wrappers hold
        references to these containers."""
        self.spans.clear()
        self.counts.clear()
        self.leaf_seconds.clear()
        self.powers.clear()
        self._stack.clear()
        self.violations = 0
        self.samples_tested = 0

    # -- derived figures ----------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: total seconds, self seconds (minus direct
        child spans) and call count."""
        total: defaultdict = defaultdict(float)
        child: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_time: defaultdict = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child[idx]
        return dict(total), dict(self_time), dict(calls)
