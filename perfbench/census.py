"""Exhaustive 2-fault census: every labeled connected graph on at most six vertices.

For each graph it checks `is_connected`, then `is_f_fault_hamiltonian(G, 2)`,
and for every 2-fault hamiltonian graph it requires a spanning path from
`find_hamiltonian_path`. It prints the counts as JSON and exits 1 when they
differ from the known totals.

Run from the repository root: PYTHONPATH=src python3 perfbench/census.py
"""

from __future__ import annotations

import json
import sys
from itertools import combinations

# module attributes, not imported names, so that a tracer installed into
# wheelembed after this import still sees every call
from wheelembed import graphs, hamiltonian

SCANNED = 27476   # 1 + 1 + 4 + 38 + 728 + 26704 labeled connected graphs
POSITIVE = 77     # K5, and K6 minus a matching of 0..3 edges, all labelings


def main() -> int:
    scanned = positive = 0
    for n in range(1, 7):
        pairs = list(combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            G = graphs.Graph(n, frozenset(p for i, p in enumerate(pairs) if mask >> i & 1))
            if not graphs.is_connected(G):
                continue
            scanned += 1
            if hamiltonian.is_f_fault_hamiltonian(G, 2).verdict:
                positive += 1
                if hamiltonian.find_hamiltonian_path(G) is None:
                    print(f"census: no spanning path in 2-fault hamiltonian graph "
                          f"{n} {sorted(G.edges)}", file=sys.stderr)
                    return 1
    print(json.dumps({"positive": positive, "scanned": scanned}, sort_keys=True))
    if (scanned, positive) != (SCANNED, POSITIVE):
        print(f"census: expected {SCANNED} scanned and {POSITIVE} positive", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
