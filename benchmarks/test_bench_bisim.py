"""Benchmark: worklist vs naive branching-bisimulation refinement.

The compositional FTWC route spends most of its time in repeated
branching-bisimulation quotients (``repro profile`` attributed ~80% of
the build to the naive signature engine before the worklist engine
existed).  This benchmark replays exactly that workload: it records
every ``(model, labels)`` pair the N=3 compositional build passes to
the refinement, then times both engines over the recorded sequence --
isolating refinement from composition and quotient construction, which
the two engines share.

The recorded build is the station-last composition order kept in
``tests/models/_ftwc_compositional_reference.py`` (its largest quotient
input has 80,000 states), not the library's station-first order, whose
products stay below 3,400 states at N=3: the ledger series keeps
measuring the same workload.

Every run appends wall times and the speedup to the
``BENCH_bisim.json`` ledger in the repository root (git commit + UTC
timestamp), so the series shows regressions rather than one snapshot.
The engines' partitions are asserted equal on every recorded model.
"""

import time
from pathlib import Path

import numpy as np
from _ledger import append_run

import repro.bisim.branching as branching
from tests.models._ftwc_compositional_reference import build_system_imc

N = 3
WORKLIST_REPEATS = 3
NAIVE_REPEATS = 2
#: Soft floor asserted here; the acceptance series in the ledger shows
#: the actual ratio (>= 3x on this workload).
MIN_SPEEDUP = 2.0


def _record_minimisation_workload():
    """The (model, labels) pairs minimised by the N=3 station-last build."""
    recorded = []
    original = branching.branching_bisimulation

    def recording(imc, labels=None, engine="worklist", metrics=None):
        recorded.append((imc, list(labels) if labels is not None else None))
        return original(imc, labels, engine=engine, metrics=metrics)

    branching.branching_bisimulation = recording
    try:
        build_system_imc(N, minimize_intermediate=True, engine="worklist")
    finally:
        branching.branching_bisimulation = original
    return recorded


def _time_engine(workload, engine, repeats):
    best = float("inf")
    partitions = None
    for _ in range(repeats):
        started = time.perf_counter()
        partitions = [
            branching.branching_bisimulation(imc, labels, engine=engine)
            for imc, labels in workload
        ]
        best = min(best, time.perf_counter() - started)
    return best, partitions


def test_worklist_speedup_on_ftwc_minimisation():
    workload = _record_minimisation_workload()
    sizes = [imc.num_states for imc, _ in workload]

    worklist_seconds, worklist_parts = _time_engine(
        workload, "worklist", WORKLIST_REPEATS
    )
    naive_seconds, naive_parts = _time_engine(workload, "naive", NAIVE_REPEATS)

    # Correctness first: both engines compute the identical partitions.
    for left, right in zip(worklist_parts, naive_parts):
        np.testing.assert_array_equal(left.block_of, right.block_of)

    speedup = naive_seconds / worklist_seconds if worklist_seconds else float("inf")
    out = Path(__file__).resolve().parent.parent / "BENCH_bisim.json"
    append_run(
        out,
        "bisim-worklist-refinement",
        {
            "workload": {
                "family": "ftwc-compositional",
                "n": N,
                "minimisations": len(workload),
                "model_sizes": sizes,
            },
            "worklist_seconds": round(worklist_seconds, 6),
            "naive_seconds": round(naive_seconds, 6),
            "speedup": round(speedup, 3),
            "partitions_equal": True,
        },
    )
    print(
        f"\nFTWC N={N} compositional minimisation ({len(workload)} quotients, "
        f"largest {max(sizes)} states): worklist {worklist_seconds:.3f} s, "
        f"naive {naive_seconds:.3f} s ({speedup:.2f}x)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"worklist engine only {speedup:.2f}x faster than the naive engine "
        f"(expected >= {MIN_SPEEDUP}x on the FTWC minimisation workload)"
    )
