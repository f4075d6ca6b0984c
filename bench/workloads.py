"""Seeded workload definitions and graph-file generators.

The generators write the repository's graph-file text format directly
and do not import rainbowdp, so the program under test only ever sees
the generated file. The same (workload, seed, smoke) always gives the
same bytes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class Workload:
    name: str
    q: int
    budget_args: tuple[str, ...]  # CLI budget flags shared by build, verify and fuzz
    epsilon: float
    delta: float
    fuzz_trials: int
    fuzz_samples: int
    fuzz_seed: int
    # Nominal wall time of one build + verify + fuzz cycle, in seconds,
    # on the 2-vCPU host the benchmark was tuned on; turns --seconds
    # into a fixed number of cycles.
    cycle_s: float
    sizes: dict = field(default_factory=dict)


SMOKE_CYCLE_S = 0.1
# The fuzz call the graph workloads add so that fuzz_s has a value on
# them. At 200 trials (a quarter second) its samples varied by +-20%
# with the host's speed from one call to the next. Its seed is fixed:
# rejection sampling makes the work depend on the fuzz seed (at q=5,
# 200 trials, the median of three calls ranged from 0.21 to 0.25 s
# over eight seeds), and the workload's seed already varies the graph. fuzz-q8 fuzzes with the workload's seed.
GRAPH_FUZZ_TRIALS = 500
GRAPH_FUZZ_SEED = 0


def _fmt_prob(x: float) -> str:
    return repr(float(x))


def _color_names(q: int) -> list[str]:
    return [f"c{k}" for k in range(1, q + 1)]


def _distinct_rainbows(rng: random.Random, q: int, count: int) -> list[tuple[int, ...]]:
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    while len(out) < count:
        perm = list(range(q))
        rng.shuffle(perm)
        key = tuple(perm)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def _close_boundary_vectors(
    rng: random.Random, q: int, count: int, spread: float
) -> list[list[float]]:
    """A random base distribution, then one jittered copy per rainbow.

    Each entry is scaled by a factor in [e^-spread, e^spread] and the row
    renormalized, so any two rows differ entrywise by a ratio of at most
    e^(4 spread). Callers pick spread below epsilon / 4, which makes every
    pair of boundary vectors (epsilon, 0)-close and every boundary
    condition valid whichever regions touch.
    """
    base = [rng.gammavariate(1.0, 1.0) + 1e-3 for _ in range(q)]
    rows = []
    for _ in range(count):
        row = [b * math.exp(rng.uniform(-spread, spread)) for b in base]
        total = sum(row)
        rows.append([x / total for x in row])
    return rows


def _graph_text(
    q: int,
    nodes: list[tuple[str, tuple[int, ...]]],
    edges: list[tuple[str, str]],
    boundary: list[tuple[tuple[int, ...], list[float]]],
) -> str:
    colors = _color_names(q)
    out = ["colors " + " ".join(colors)]
    for ident, rainbow in nodes:
        out.append(f"node {ident} " + " ".join(colors[i] for i in rainbow))
    for a, b in edges:
        out.append(f"edge {a} {b}")
    for rainbow, probs in boundary:
        label = ",".join(colors[i] for i in rainbow)
        out.append(f"boundary {label} " + " ".join(_fmt_prob(p) for p in probs))
    return "\n".join(out) + "\n"


def striped_grid(rng: random.Random, rows: int, cols: int, q: int, stripes: int, spread: float):
    """rows x cols grid; columns are cut into `stripes` vertical bands of
    near-equal width, each band carrying its own rainbow."""
    rainbows = _distinct_rainbows(rng, q, stripes)
    vectors = _close_boundary_vectors(rng, q, stripes, spread)
    band_of = [min(c * stripes // cols, stripes - 1) for c in range(cols)]
    nodes = [(f"g{r}_{c}", rainbows[band_of[c]]) for r in range(rows) for c in range(cols)]
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((f"g{r}_{c}", f"g{r}_{c + 1}"))
            if r + 1 < rows:
                edges.append((f"g{r}_{c}", f"g{r + 1}_{c}"))
    text = _graph_text(q, nodes, edges, list(zip(rainbows, vectors)))
    return text, {"nodes": len(nodes), "edges": len(edges), "rainbows": stripes}


def split_path(rng: random.Random, n: int, q: int, spread: float):
    """Path of n nodes; the first half carries one rainbow, the rest a
    second one. The split point moves by up to 1% of n with the seed."""
    rainbows = _distinct_rainbows(rng, q, 2)
    vectors = _close_boundary_vectors(rng, q, 2, spread)
    jitter = max(1, n // 100)
    split = n // 2 + rng.randint(-jitter, jitter)
    nodes = [(f"p{i}", rainbows[0] if i < split else rainbows[1]) for i in range(n)]
    edges = [(f"p{i}", f"p{i + 1}") for i in range(n - 1)]
    text = _graph_text(q, nodes, edges, list(zip(rainbows, vectors)))
    return text, {"nodes": n, "edges": n - 1, "rainbows": 2, "split": split}


def dense_random(rng: random.Random, n: int, m: int, q: int, rainbows_n: int, spread: float):
    """Random spanning tree plus uniformly random extra edges up to m
    edges in all; every node draws one of `rainbows_n` rainbows."""
    rainbows = _distinct_rainbows(rng, q, rainbows_n)
    vectors = _close_boundary_vectors(rng, q, rainbows_n, spread)
    # Every rainbow gets at least one node, the rest draw uniformly.
    pick = list(range(rainbows_n)) + [rng.randrange(rainbows_n) for _ in range(n - rainbows_n)]
    rng.shuffle(pick)
    ids = [f"d{i}" for i in range(n)]
    nodes = [(ids[i], rainbows[pick[i]]) for i in range(n)]
    edge_set: set[tuple[int, int]] = set()
    order = list(range(n))
    rng.shuffle(order)
    for k in range(1, n):
        a, b = order[k], order[rng.randrange(k)]
        edge_set.add((min(a, b), max(a, b)))
    while len(edge_set) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edge_set.add((min(a, b), max(a, b)))
    edges = [(ids[a], ids[b]) for a, b in sorted(edge_set)]
    text = _graph_text(q, nodes, edges, list(zip(rainbows, vectors)))
    return text, {"nodes": n, "edges": len(edges), "rainbows": rainbows_n}


def _budget(e_epsilon: float | None, epsilon: float | None, delta: float):
    if e_epsilon is not None:
        return ("--e-epsilon", repr(e_epsilon), "--delta", repr(delta)), math.log(e_epsilon)
    return ("--epsilon", repr(epsilon), "--delta", repr(delta)), epsilon


def make_workload(name: str, seed: int, smoke: bool = False) -> tuple[Workload, str]:
    """The workload definition and its graph-file text for one seed.

    smoke shrinks every graph and the fuzz call to a size that runs in
    well under a second; the structure of each workload is unchanged.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "grid-stripes":
        args, eps = _budget(1.2, None, 1e-3)
        side = 12 if smoke else 150
        text, sizes = striped_grid(rng, side, side, 5, 4, spread=eps / 5)
        w = Workload(name, 5, args, eps, 1e-3, 20 if smoke else GRAPH_FUZZ_TRIALS, 64, GRAPH_FUZZ_SEED, 5.0, sizes)
    elif name == "deep-path":
        args, eps = _budget(None, 1e-4, 1e-7)
        text, sizes = split_path(rng, 400 if smoke else 50_000, 4, spread=eps / 5)
        w = Workload(name, 4, args, eps, 1e-7, 20 if smoke else GRAPH_FUZZ_TRIALS, 64, GRAPH_FUZZ_SEED, 7.5, sizes)
    elif name == "dense-many":
        args, eps = _budget(None, 0.5, 0.0)
        n, m, k = (120, 600, 10) if smoke else (3000, 60_000, 40)
        text, sizes = dense_random(rng, n, m, 8, k, spread=eps / 5)
        w = Workload(name, 8, args, eps, 0.0, 20 if smoke else GRAPH_FUZZ_TRIALS, 64, GRAPH_FUZZ_SEED, 4.4, sizes)
    elif name == "fuzz-q8":
        # The fuzz call is the workload; the small q=8 graph at the same
        # budget gives build_s and verify_s a value here too.
        args, eps = _budget(None, 0.3, 0.01)
        side = 8 if smoke else 24
        text, sizes = striped_grid(rng, side, side, 8, 8, spread=eps / 5)
        w = Workload(name, 8, args, eps, 0.01, 40 if smoke else 2000, 64, seed, 3.0, sizes)
    else:
        raise ValueError(f"unknown workload {name!r}")
    if smoke:
        w = replace(w, cycle_s=SMOKE_CYCLE_S)
    w.sizes.update(q=w.q, epsilon=w.epsilon, delta=w.delta,
                   fuzz_trials=w.fuzz_trials, fuzz_samples=w.fuzz_samples, fuzz_seed=w.fuzz_seed,
                   seed=seed)
    return w, text


WORKLOADS = ("grid-stripes", "deep-path", "dense-many", "fuzz-q8")
