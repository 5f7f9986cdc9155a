"""Overhead budget of the observability layer.

The tracing instrumentation sits inside the hottest loop of the library
(the backward iteration of Algorithm 1), so its *disabled* cost must be
negligible, and so must the generality of the shared sweep kernel
(selector call, goal and zero pins).  This module times the kernel's
solve with tracing disabled against Algorithm 1 written out by hand on
the same prepared live rows (``_bare_solve``: the same arithmetic and
the same per-step work, with no selector object and no tracing hook)
on the Figure 4 solve the repository benchmark also runs: FTWC N=64,
t=500 h, 151,059 states, 1,368 steps over the 10,127 rows of the
non-goal states, 0.25-0.37 s per solve on a 2-core x86-64 box, so the
2 ms absolute slack is under 1% of it and the gate measures the kernel
rather than timer noise (overhead ratio 0.99-1.03 over three runs).
It asserts the overhead stays within ~5% and appends the measurements
to the ``BENCH_obs.json`` ledger in the repository root (one entry per
run, keyed by commit and timestamp; see ``_ledger``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_bench_obs.py``.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from _ledger import append_run

from repro.core.reachability import PreparedTimedReachability
from repro.core.sweep import finish_sweep
from repro.models.ftwc_direct import build_ctmdp
from repro.numerics.foxglynn import fox_glynn
from repro.obs import current_tracer, tracing

N = 64
T = 500.0
EPSILON = 1e-6
REPEATS = 5

#: Multiplicative budget for the disabled-tracer overhead, plus a small
#: absolute allowance for scheduler jitter on a CI box.
RELATIVE_BUDGET = 1.05
ABSOLUTE_SLACK = 2e-3


def _bare_solve(prepared: PreparedTimedReachability, t: float):
    """Algorithm 1 (Pmax) written out by hand on the prepared live rows --
    the baseline the overhead is measured against.  Returns the values
    and certificate of :func:`~repro.core.sweep.finish_sweep`."""
    rows = prepared.live
    fg = fox_glynn(prepared.rate * t, EPSILON)
    psi = fg.probabilities()
    starts, nonempty = rows.segments.starts, rows.segments.nonempty
    live = rows.states.size
    q = np.zeros(rows.prob.shape[1])
    g = 0.0
    for i in range(fg.right, 0, -1):
        psi_i = psi[i - fg.left] if i >= fg.left else 0.0
        values = psi_i * rows.prob_to_goal + rows.prob @ q
        best = np.zeros(live)
        best[nonempty] = np.maximum.reduceat(values, starts)
        q[:live] = best
        g = psi_i + g
        q[rows.goal_pos] = g
    return finish_sweep(q, g, fg, EPSILON, rows, algorithm=prepared.algorithm)


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


def test_disabled_tracer_overhead_within_budget(prepared):
    """The headline budget: with no tracer active, the kernel's solve
    must stay within ~5% of the same sweep written out by hand."""
    assert current_tracer() is None
    assert prepared.live.zero_pos is None  # no until: _bare_solve pins no zeros

    # Warm-up: JIT-free Python, but caches, allocator pools etc. settle.
    _bare_solve(prepared, T)
    prepared.solve(T, epsilon=EPSILON)

    ref_seconds, (ref_values, ref_certificate) = _best_of(lambda: _bare_solve(prepared, T))
    solve_seconds, result = _best_of(lambda: prepared.solve(T, epsilon=EPSILON))

    # The kernel must not change the arithmetic.
    np.testing.assert_array_equal(result.values, ref_values)
    assert result.certificate == ref_certificate

    budget = ref_seconds * RELATIVE_BUDGET + ABSOLUTE_SLACK
    assert solve_seconds <= budget, (
        f"instrumented solve {solve_seconds * 1e3:.2f} ms exceeds budget "
        f"{budget * 1e3:.2f} ms (reference {ref_seconds * 1e3:.2f} ms)"
    )

    _record_datapoints(prepared, ref_seconds, solve_seconds, result.iterations)


def test_enabled_tracer_still_usable(prepared):
    """Tracing on: the per-step duration collection costs something,
    but the solve must stay within a small factor -- profiling must not
    distort the workload it measures beyond recognition."""
    ref_seconds, _ = _best_of(lambda: _bare_solve(prepared, T), repeats=3)

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
            "rows_swept": int(prepared.live.prob.shape[0]),
            "iterations": int(iterations),
        },
        # The baseline became the hand-written sweep over the live rows:
        # a series of its own, not comparable with the earlier entries.
        "kind": "live-rows",
        "reference_seconds": ref_seconds,
        "instrumented_disabled_seconds": solve_seconds,
        "overhead_ratio": solve_seconds / ref_seconds if ref_seconds > 0 else None,
        "budget": {"relative": RELATIVE_BUDGET, "absolute_slack": ABSOLUTE_SLACK},
        "repeats": REPEATS,
        "timing": "min over repeats",
    }
    append_run(out, "obs-overhead", payload)
