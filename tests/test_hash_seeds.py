"""Output that rests on string hashing would pass one run and fail the
next. The tests that pin output bytes or orders rerun here in child
interpreters under three fixed hash seeds."""

import re
import subprocess
import sys
from pathlib import Path

from helpers import child_env

# Golden hashes (build and trajectory CSVs, fuzz stdout, verify's
# violation lines), what a RainbowGraph and a graph file name for an
# undeclared node, exact CSV round trips, the boundary graph's node order
# and mapping and the edge its self-check names first, the parsed graph's
# ids and edge rows, the CSV parser's distinct rows and the node rows it
# resolves (its unknown names come from a set), and
# the order of the test helpers' morphism violations.
SELECTION = (
    "golden or undeclared_node_error or exact_round_trip or boundary_graph_indexes or parsed_graph_equals"
    " or distinct_row or node_rows or morphism or pullback"
)
# What the selection picks today: a renamed test that leaves it shows here.
MIN_SELECTED = 90
HASH_SEEDS = ("0", "1", "4242")


def test_pinned_outputs_hold_under_three_hash_seeds(request):
    # A name the selection matched would start these children again.
    assert not any(word in request.node.nodeid for word in SELECTION.split(" or "))
    tests = Path(__file__).parent
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-k", SELECTION, str(tests)]
    children = [
        subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                         cwd=tests.parent, env={**child_env(), "PYTHONHASHSEED": seed})
        for seed in HASH_SEEDS
    ]
    try:
        for seed, child in zip(HASH_SEEDS, children):
            out = child.communicate(timeout=600)[0]
            assert child.returncode == 0, (seed, out)
            passed = re.search(r"(\d+) passed", out)
            assert passed and int(passed.group(1)) >= MIN_SELECTED, (seed, out)
    finally:
        # A failure leaves the other children running with open pipes;
        # an unclosed pipe would fail a later test under the GC's warning.
        for child in children:
            child.kill()
            child.wait()
            child.stdout.close()
