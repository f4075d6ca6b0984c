"""Check the checks: apply each mutant below to a temporary copy of the
tree, run tier-1 there with -x, and print the test that kills it.

    python tests/mutants/run.py

A mutant is one textual edit (file, old text, new text, reason) whose old
text must occur exactly once in its file. The run fails when the
unmutated copy fails tier-1, when a mutant's old text is not found once,
or when a mutant survives, unless its entry is marked equivalent, with
the reason it cannot change behaviour. Nothing is written to the working
tree. Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]
# The hash-seed test reruns, in child interpreters, tests that the run
# itself has already passed; it kills nothing they do not.
PYTEST = [
    "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
    "--deselect", "tests/test_hash_seeds.py::test_pinned_outputs_hold_under_three_hash_seeds",
]
TIMEOUT_S = 900


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    reason: str
    # Why the mutant cannot change behaviour, when it cannot.
    equivalent: str | None = None


CORE, MECH, ORACLE = "src/rainbowdp/core.py", "src/rainbowdp/mechanism.py", "src/rainbowdp/oracle.py"
IS_CLOSE = "return max(subset_excess(p, q_, e), subset_excess(q_, p, e)) - budget.delta <= DEFAULT_TOL"
VERIFY_KERNEL = "_not_close(rows[lookup[chunk[:, 0]]], rows[lookup[chunk[:, 1]]], budget)"


def _verify_dp_allows(slack: str) -> Mutant:
    return Mutant(
        MECH, VERIFY_KERNEL,
        VERIFY_KERNEL.replace(", budget)", f", PrivacyBudget(budget.epsilon, min({slack}, 1.0)))"),
        f"verify_dp allows {slack.replace('budget.delta', 'delta')}",
    )


MUTANTS = [
    Mutant(MECH, "zip((edge, edge[::-1]), ms, hits)", "zip((edge,), ms, hits)",
           "verify_dp checks one direction"),
    _verify_dp_allows("2 * budget.delta"),
    _verify_dp_allows("budget.delta + 1e-10"),
    _verify_dp_allows("budget.delta + 1e-11"),
    Mutant(CORE, "DEFAULT_TOL = 1e-12", "DEFAULT_TOL = 1e-9", "DEFAULT_TOL at 1e-9"),
    Mutant(CORE, "NEGATIVE_WINDOW = 1e-9", "NEGATIVE_WINDOW = 1e-6", "NEGATIVE_WINDOW at 1e-6"),
    Mutant(CORE, "np.fmax(diff, 0.0, out=diff)", "np.fmax(diff, -1e-13, out=diff)",
           "the hockey-stick clamp at -1e-13"),
    Mutant(MECH, "fails = _not_close(a, b, budget)[1].any(axis=0)", "fails = _not_close(a, b, budget)[1][0]",
           "validate_boundary_condition checks one direction"),
    Mutant(MECH, "fails = _not_close(a, b, budget)[1]",
           "fails = _not_close(a, b, PrivacyBudget(budget.epsilon, min(budget.delta + 1e-6, 1.0)))[1]",
           "validate_boundary_condition allows delta + 1e-6"),
    Mutant(CORE, IS_CLOSE, "return subset_excess(p, q_, e) - budget.delta <= DEFAULT_TOL",
           "is_close checks one direction"),
    Mutant(MECH, "(prefixes_a >= prefixes_b - DEFAULT_TOL)", "(prefixes_a >= prefixes_b - 1e-6)",
           "mechanism_dominates allows 1e-6"),
    Mutant(ORACLE, "hits = worst > DEFAULT_TOL", "hits = worst > 1e-6", "fuzz's dominance verdict allows 1e-6"),
    Mutant(ORACLE, "misses = over.any(axis=0)", "misses = (margins > 1e-6).any(axis=0)",
           "fuzz's step-close verdict allows 1e-6"),
    Mutant(CORE, IS_CLOSE, IS_CLOSE.replace("<= DEFAULT_TOL", "<= 1e-6"), "is_close allows delta + 1e-6"),
    Mutant(CORE, "all(a >= b - DEFAULT_TOL for", "all(a >= b - 1e-6 for", "dominates allows 1e-6"),
    Mutant(ORACLE, "worst_qp) - budget.delta <= DEFAULT_TOL", "worst_qp) - budget.delta <= 1e-6",
           "is_close_bruteforce allows delta + 1e-6"),
    Mutant(MECH, "block[reference]) > DEFAULT_TOL)", "block[reference]) > 1e-6)",
           "is_boundary_homogeneous allows 1e-6"),
    Mutant(CORE, "ROW_SUM_TOL = 1e-9", "ROW_SUM_TOL = 1e-6", "ROW_SUM_TOL at 1e-6"),
    # Goes with ROADMAP item 19, which deletes the window.
    Mutant(CORE, "SUM_WINDOW = 1e-3", "SUM_WINDOW = 1e-2", "SUM_WINDOW at 1e-2"),
    Mutant(CORE, "for k in range(1, rows.shape[1]):\n        np.add(",
           "for k in range(1, rows.shape[1] - 1):\n        np.add(",
           "_prefix_rows skips its last column add"),
    Mutant(ORACLE, "worst = shortfall[:, 0].copy()\n    for k in range(1,",
           "worst = shortfall[:, 1].copy()\n    for k in range(2,",
           "_falsify's running maximum starts at column 1"),
    Mutant(CORE, "    if out_of_range.any():\n        bad |= out_of_range.any(axis=1)\n", "",
           "normalized_rows never computes per-row bad entries"),
]


def _tier1(tree: Path) -> tuple[int, str]:
    """Tier-1 with -x in tree: pytest's exit code and the first failing
    or erroring test ('' if none), with the hypothesis database cleared."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    # No bytecode cache: a mutated module must never load a stale .pyc.
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run([sys.executable, *PYTEST], cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 1, f"(timed out after {TIMEOUT_S} s)"
    lines = done.stdout.splitlines()
    first = next((line for line in lines if line.startswith(("FAILED ", "ERROR "))), "")
    if done.returncode not in (0, 1, 2):
        sys.exit(f"pytest exited {done.returncode}:\n{done.stdout}{done.stderr}")
    test = first.split(" - ")[0]
    # Golden-text parameter ids run to hundreds of characters.
    return done.returncode, test if len(test) <= 120 else test[:117] + "..."


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory(prefix="rainbowdp-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", ".hypothesis", ".pytest_cache", "__pycache__", "*.egg-info", "build", ".bench_work"))
        code, first = _tier1(tree)
        if code:
            print(f"unmutated tree fails tier-1: {first}")
            return 1
        for i, m in enumerate(MUTANTS):
            path = tree / m.file
            original = path.read_text(encoding="utf-8")
            if original.count(m.old) != 1:
                problems.append(f"[{i}] {m.reason}: old text found {original.count(m.old)} times in {m.file}")
                print(problems[-1], flush=True)
                continue
            path.write_text(original.replace(m.old, m.new), encoding="utf-8")
            try:
                code, first = _tier1(tree)
            finally:
                path.write_text(original, encoding="utf-8")
            if code:
                print(f"[{i}] killed    {m.reason}: {first}", flush=True)
            elif m.equivalent:
                print(f"[{i}] survived  {m.reason} (equivalent: {m.equivalent})", flush=True)
            else:
                problems.append(f"[{i}] SURVIVED  {m.reason}")
                print(problems[-1], flush=True)
    print(f"{len(MUTANTS)} mutant(s), {len(problems)} problem(s)")
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
