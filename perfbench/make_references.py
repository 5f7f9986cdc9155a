"""Regenerate ``references.json``, the stored values the output checks need.

The direct-n64 check compares the timed answer (epsilon 1e-6) against a
Pmax computed at epsilon 1e-10, which takes as long as the timed solve
itself, so it is computed once here rather than on every run.  The
Table 1 state counts are copied from the paper.

Run from the root of the repository::

    PYTHONPATH=src python3 perfbench/make_references.py
"""

import json
import sys

from workload import REF_EPSILON, REFERENCES, WORKLOADS

#: Hermanns & Johr, Table 1: N -> (interactive states, Markov states).
PAPER_TABLE1 = {2: (274, 205), 64: (151058, 117261)}


def main() -> int:
    from repro.core.reachability import PreparedTimedReachability
    from repro.models import ftwc_direct

    direct = {}
    for size in ("smoke", "full"):
        params = WORKLOADS["direct-n64"][size]
        model = ftwc_direct.build_ctmdp(params["n"])
        result = PreparedTimedReachability(model.ctmdp, model.goal_mask).solve(
            params["t"], REF_EPSILON, "max"
        )
        direct[str(params["n"])] = {
            "t": params["t"],
            "epsilon": REF_EPSILON,
            "value": result.value(model.ctmdp.initial),
            "error_bound": result.certificate.error_bound,
        }
    stored = {
        "paper_table1": {str(n): list(counts) for n, counts in PAPER_TABLE1.items()},
        "direct_pmax": direct,
    }
    REFERENCES.write_text(json.dumps(stored, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
