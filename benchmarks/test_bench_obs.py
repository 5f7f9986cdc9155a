"""Overhead budget of the observability layer.

The tracing instrumentation sits inside the hottest loop of the library
(the backward iteration of Algorithm 1), so its *disabled* cost must be
negligible, and so must the generality of the shared sweep kernel
(selector call, optional blocked/goal handling).  This module times the
kernel's solve with tracing disabled against the hand-written plain
loop it replaced (kept in ``tests/core/_sweep_reference.py``, same
arithmetic, and the same disabled-tracing hooks the loop always had)
on a Table-1-sized solve: FTWC N=32, t=100 h, 38,675 states, about
0.2 s per solve, so the 2 ms absolute slack is about 1% of it and the
gate measures the kernel rather than timer noise.  It asserts the
overhead stays within ~5% and appends the measurements to the
``BENCH_obs.json`` ledger in the repository root (one entry per run,
keyed by commit and timestamp; see ``_ledger``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_bench_obs.py``.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from _ledger import append_run

from repro.core.reachability import PreparedTimedReachability
from repro.models.ftwc_direct import build_ctmdp
from repro.obs import current_tracer, tracing
from tests.core import _sweep_reference as reference

N = 32
T = 100.0
EPSILON = 1e-6
REPEATS = 5

#: Multiplicative budget for the disabled-tracer overhead, plus a small
#: absolute allowance for scheduler jitter on a CI box.
RELATIVE_BUDGET = 1.05
ABSOLUTE_SLACK = 2e-3


def _reference_solve(prepared: reference.PreparedTimedReachability, t: float) -> np.ndarray:
    """The hand-written plain loop the sweep kernel replaced, byte-for-byte
    the same arithmetic -- the baseline the overhead is measured against."""
    return prepared.solve(t, epsilon=EPSILON).values


def _best_of(fn, repeats: int = REPEATS) -> tuple[float, object]:
    """Minimum wall time over ``repeats`` runs (robust against noise)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


@pytest.fixture(scope="module")
def model():
    return build_ctmdp(N)


@pytest.fixture(scope="module")
def prepared(model):
    return PreparedTimedReachability(model.ctmdp, model.goal_mask)


@pytest.fixture(scope="module")
def reference_prepared(model):
    return reference.PreparedTimedReachability(model.ctmdp, model.goal_mask)


def test_disabled_tracer_overhead_within_budget(prepared, reference_prepared):
    """The headline budget: with no tracer active, the kernel's solve
    must stay within ~5% of the hand-written loop it replaced."""
    assert current_tracer() is None

    # Warm-up: JIT-free Python, but caches, allocator pools etc. settle.
    _reference_solve(reference_prepared, T)
    prepared.solve(T, epsilon=EPSILON)

    ref_seconds, ref_values = _best_of(lambda: _reference_solve(reference_prepared, T))
    solve_seconds, result = _best_of(lambda: prepared.solve(T, epsilon=EPSILON))

    # The kernel must not change the arithmetic.
    np.testing.assert_array_equal(result.values, ref_values)

    budget = ref_seconds * RELATIVE_BUDGET + ABSOLUTE_SLACK
    assert solve_seconds <= budget, (
        f"instrumented solve {solve_seconds * 1e3:.2f} ms exceeds budget "
        f"{budget * 1e3:.2f} ms (reference {ref_seconds * 1e3:.2f} ms)"
    )

    _record_datapoints(prepared, ref_seconds, solve_seconds, result.iterations)


def test_enabled_tracer_still_usable(prepared, reference_prepared):
    """Tracing on: the per-step duration collection costs something,
    but the solve must stay within a small factor -- profiling must not
    distort the workload it measures beyond recognition."""
    ref_seconds, _ = _best_of(lambda: _reference_solve(reference_prepared, T), repeats=3)

    def traced():
        with tracing():
            return prepared.solve(T, epsilon=EPSILON)

    traced_seconds, _ = _best_of(traced, repeats=3)
    assert traced_seconds <= ref_seconds * 2.0 + ABSOLUTE_SLACK


def _record_datapoints(prepared, ref_seconds, solve_seconds, iterations):
    out = Path(__file__).resolve().parent.parent / "BENCH_obs.json"
    payload = {
        "workload": {
            "family": "ftwc",
            "n": N,
            "t_hours": T,
            "epsilon": EPSILON,
            "states": prepared.num_states,
            "transitions": prepared.ctmdp.num_transitions,
            "iterations": int(iterations),
        },
        "reference_seconds": ref_seconds,
        "instrumented_disabled_seconds": solve_seconds,
        "overhead_ratio": solve_seconds / ref_seconds if ref_seconds > 0 else None,
        "budget": {"relative": RELATIVE_BUDGET, "absolute_slack": ABSOLUTE_SLACK},
        "repeats": REPEATS,
        "timing": "min over repeats",
    }
    append_run(out, "obs-overhead", payload)
