"""The two sweep kernels against the hand-written loops they replaced.

Every solver path now runs :func:`repro.core.sweep.poisson_sweep` or
:func:`repro.core.sweep.value_iteration`.  The parent's loops are kept
verbatim in :mod:`tests.core._sweep_reference`; here each path is
checked against its old loop *bitwise*: values, iteration counts,
recorded decisions (against the old dense recorder) and every field of
the numerical certificate.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import reachability as core
from repro.core.ctmdp import CTMDP
from repro.core.until import timed_until
from repro.ctmc.model import CTMC
from repro.ctmc.reachability import PreparedCTMCReachability
from repro.ctmc.uniformization import uniformized_jump_matrix
from repro.ctmc.until import timed_until_with_certificate
from repro.mdp.model import DTMC, DTMDP
from repro.mdp.value_iteration import bounded_reachability, unbounded_reachability
from repro.models import ftwc_direct, zoo
from tests.core import _sweep_reference as reference
from tests.core.test_reachability_properties import models_with_goals

OBJECTIVES = ["max", "min"]

#: Unbounded value iteration on the FTWC converges slowly without
#: precomputation; the iteration cap keeps the test short and exercises
#: both exits of the loop (convergence and exhaustion).
UNBOUNDED = {"tol": 1e-9, "max_iterations": 3000}


def _ftwc(n):
    model = ftwc_direct.build_ctmdp(n)
    return model.ctmdp, model.goal_mask


CTMDPS = {
    "ftwc1": lambda: _ftwc(1),
    "ftwc2": lambda: _ftwc(2),
    "ftwc3": lambda: _ftwc(3),
    "race": zoo.two_phase_race_ctmdp,
    "erlang": zoo.erlang_vs_exponential_race,
}

CTMCS = {
    "ftwc1": lambda: ftwc_direct.build_ctmc(1)[::2],
    "ftwc2": lambda: ftwc_direct.build_ctmc(2, gamma=100.0)[::2],
    "queue": zoo.queue_with_breakdowns,
    "tandem": zoo.tandem_queue,
    "cycle": lambda: (zoo.cyclic_ctmc(5), np.arange(5) == 3),
}


@pytest.fixture(scope="module", params=sorted(CTMDPS))
def ctmdp_case(request):
    return CTMDPS[request.param]()


@pytest.fixture(scope="module", params=sorted(CTMCS))
def ctmc_case(request):
    return CTMCS[request.param]()


def _safe(num_states: int) -> np.ndarray:
    """A non-trivial safe set: every third state is unsafe."""
    return np.arange(num_states) % 3 != 1


def _time_bounds(ctmdp) -> list[float]:
    """Two bounds of about 8 and 60 expected jumps."""
    rate = ctmdp.uniform_rate()
    return [8.0 / rate, 60.0 / rate]


def assert_same_result(new, old):
    """Bitwise equality of two ReachabilityResults (dense old decisions)."""
    assert np.array_equal(new.values, old.values)
    assert new.iterations == old.iterations
    assert new.certificate == old.certificate
    assert new.states_eliminated == old.states_eliminated
    assert new.uniform_rate == old.uniform_rate
    if old.decisions is None:
        assert new.decisions is None
    else:
        assert np.array_equal(new.decisions.dense(), old.decisions)


def check_ctmdp_paths(ctmdp, goal, safe, t, objective):
    """Every CTMDP path of the kernel against its old loop."""
    for record in (False, True):
        for precompute in (False, True):
            new = core.timed_reachability(
                ctmdp, goal, t, objective=objective,
                record_scheduler=record, precompute=precompute,
            )
            old = reference.timed_reachability(
                ctmdp, goal, t, objective=objective, record_scheduler=record,
                scheduler_format="dense", precompute=precompute,
            )
            assert_same_result(new, old)
            new = timed_until(
                ctmdp, safe, goal, t, objective=objective,
                record_scheduler=record, precompute=precompute,
            )
            old = reference.timed_until(
                ctmdp, safe, goal, t, objective=objective, record_scheduler=record,
                scheduler_format="dense", precompute=precompute,
            )
            assert_same_result(new, old)

    recorded = core.timed_reachability(
        ctmdp, goal, t, objective=objective, record_scheduler=True
    )
    # Arbitrary rows with -1 and out-of-range choices exercise the clamp.
    wild = np.random.default_rng(0).integers(-1, 8, size=(5, ctmdp.num_states))
    for decisions in (recorded.decisions, recorded.decisions.dense(), wild):
        # Shorter, equal and longer horizons than the recorded one.
        for replay_t in (t / 3.0, t, 2.0 * t):
            for replay_safe in (None, safe):
                new = core.replay_step_scheduler(
                    ctmdp, goal, replay_t, decisions, safe=replay_safe
                )
                old = reference.replay_step_scheduler(
                    ctmdp, goal, replay_t, decisions, safe=replay_safe
                )
                assert_same_result(new, old)

    for precompute in (False, True):
        assert np.array_equal(
            core.unbounded_reachability(
                ctmdp, goal, objective, **UNBOUNDED, precompute=precompute
            ),
            reference.unbounded_reachability(
                ctmdp, goal, objective, **UNBOUNDED, precompute=precompute
            ),
        )


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_ctmdp_paths_match_the_parent_loops(ctmdp_case, objective):
    ctmdp, goal = ctmdp_case
    for t in _time_bounds(ctmdp):
        check_ctmdp_paths(ctmdp, goal, _safe(ctmdp.num_states), t, objective)


@given(
    data=models_with_goals(),
    t=st.floats(0.1, 5.0),
    unsafe=st.integers(0, 5),
    objective=st.sampled_from(OBJECTIVES),
)
@settings(max_examples=40, deadline=None)
def test_random_ctmdp_paths_match_the_parent_loops(data, t, unsafe, objective):
    ctmdp, goal = data
    safe = np.arange(ctmdp.num_states) != unsafe
    check_ctmdp_paths(ctmdp, goal, safe, t, objective)


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("record", [False, True])
def test_all_states_decided(objective, record):
    """Precompute with nothing left to sweep: the constant-decision path."""
    ctmdp, _ = zoo.two_phase_race_ctmdp()
    goal = np.ones(ctmdp.num_states, dtype=bool)
    new = core.timed_reachability(
        ctmdp, goal, 3.0, objective=objective, record_scheduler=record, precompute=True
    )
    old = reference.timed_reachability(
        ctmdp, goal, 3.0, objective=objective, record_scheduler=record,
        scheduler_format="dense", precompute=True,
    )
    assert new.states_eliminated == ctmdp.num_states
    assert_same_result(new, old)


def test_goal_tail_enters_the_precompute_residual():
    """At this bound the accumulated Poisson tail of the folded goal
    states exceeds one by an ulp; the certificate must charge it."""
    ctmdp, goal = zoo.two_phase_race_ctmdp()
    new = core.timed_reachability(ctmdp, goal, 2.75, precompute=True)
    old = reference.timed_reachability(ctmdp, goal, 2.75, precompute=True)
    assert new.certificate.sweep_residual > 0.0
    assert_same_result(new, old)


def test_ctmc_paths_match_the_parent_loops(ctmc_case):
    ctmc, goal = ctmc_case
    rate = float(ctmc.exit_rates().max())
    safe = _safe(ctmc.num_states)
    for t in (8.0 / rate, 60.0 / rate):
        new = PreparedCTMCReachability(ctmc, goal)
        old = reference.PreparedCTMCReachability(ctmc, goal)
        assert np.array_equal(new.solve(t), old.solve(t))
        assert new.last_certificate == old.last_certificate

        new_values, new_certificate = timed_until_with_certificate(ctmc, safe, goal, t)
        old_values, old_certificate = reference.ctmc_timed_until_with_certificate(
            ctmc, safe, goal, t
        )
        assert np.array_equal(new_values, old_values)
        assert new_certificate == old_certificate


def _embedded_dtmdp(ctmdp) -> DTMDP:
    labels = [f"r{row}" for row in range(ctmdp.num_transitions)]
    return DTMDP(ctmdp.num_states, ctmdp.sources, labels, ctmdp.probability_matrix())


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_dtmdp_paths_match_the_parent_loops(ctmdp_case, objective):
    ctmdp, goal = ctmdp_case
    mdp = _embedded_dtmdp(ctmdp)
    for steps in (0, 7, 60):
        assert np.array_equal(
            bounded_reachability(mdp, goal, steps, objective),
            reference.mdp_bounded_reachability(mdp, goal, steps, objective),
        )
    for precompute in (False, True):
        assert np.array_equal(
            unbounded_reachability(mdp, goal, objective, **UNBOUNDED, precompute=precompute),
            reference.mdp_unbounded_reachability(
                mdp, goal, objective, **UNBOUNDED, precompute=precompute
            ),
        )


def test_dtmc_path_matches_the_parent_loop(ctmc_case):
    ctmc, goal = ctmc_case
    chain = DTMC(sp.csr_matrix(uniformized_jump_matrix(ctmc)[0]))
    indices = [int(state) for state in np.flatnonzero(goal)]
    for steps in (0, 7, 60):
        assert np.array_equal(
            chain.bounded_reachability(indices, steps),
            reference.dtmc_bounded_reachability(chain, indices, steps),
        )


# ----------------------------------------------------------------------
# Edge cases of the live-row restriction: the kernel sweeps only the
# rows of states that are neither goal nor blocked, over the columns
# those rows read.  Each case is checked bitwise against the parent's
# full-matrix loops through every timed path (plain, until, precompute,
# replay; max and min; with and without a recorded scheduler).
# ----------------------------------------------------------------------
def _with_goal(ctmdp, goal_states):
    goal = np.zeros(ctmdp.num_states, dtype=bool)
    goal[goal_states] = True
    return goal


def _sidelined_columns_ctmdp():
    """Live rows reading a blocked column with transitions (1), a blocked
    column without (4), a live state without transitions (2) and the
    goal (3).  Every transition has exit rate 3."""
    ctmdp = CTMDP.from_transitions(
        6,
        [
            (0, "a", {1: 1.0, 2: 1.0, 3: 1.0}),
            (0, "b", {4: 2.0, 0: 1.0}),
            (1, "c", {0: 3.0}),
            (3, "d", {3: 3.0}),
            (5, "e", {5: 1.0, 0: 2.0}),
            (5, "f", {1: 3.0}),
        ],
    )
    goal = _with_goal(ctmdp, [3])
    safe = _with_goal(ctmdp, [0, 2, 5])
    return ctmdp, goal, safe


def _edge_cases():
    race, race_goal = zoo.two_phase_race_ctmdp()
    ftwc, ftwc_goal = _ftwc(2)
    everything = np.ones(race.num_states, dtype=bool)
    return {
        # Every state but one is goal.
        "all-but-one-goal": (ftwc, ~_with_goal(ftwc, [ftwc.initial]), _safe(ftwc.num_states)),
        # Every state is goal: no live row on any path.
        "all-goal": (race, everything, everything),
        # Every state is goal or blocked: the until sweep has no live row.
        "goal-or-blocked": (ftwc, ftwc_goal, ftwc_goal.copy()),
        "sidelined-columns": _sidelined_columns_ctmdp(),
    }


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("case", sorted(_edge_cases()))
def test_live_row_edge_cases_match_the_parent_loops(case, objective):
    ctmdp, goal, safe = _edge_cases()[case]
    for t in _time_bounds(ctmdp):
        check_ctmdp_paths(ctmdp, goal, safe, t, objective)


def test_sidelined_columns_leave_the_live_rows():
    ctmdp, goal, safe = _sidelined_columns_ctmdp()
    live = core.PreparedTimedReachability(ctmdp, goal, safe=safe).live
    assert live.states.tolist() == [0, 2, 5]
    assert live.prob.shape == (4, 6)  # rows of states 0 and 5; columns 0 2 5 | 1 3 4
    assert live.zero_pos is None
    assert live.goal_pos.tolist() == [4]


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_ftwc16_until_matches_the_parent_loops(objective):
    ctmdp, goal = _ftwc(16)
    check_ctmdp_paths(ctmdp, goal, _safe(ctmdp.num_states), 8.0 / ctmdp.uniform_rate(), objective)


def _ctmc_edge_cases():
    """Chain, goal mask and uniformization rate (``None``: the chain's own)."""
    cycle = zoo.cyclic_ctmc(5)
    queue, queue_goal = zoo.queue_with_breakdowns()
    # State 2 is absorbing: a live state whose uniformized row is a pure
    # self-loop; state 4 has no incoming transition.
    absorbing = CTMC.from_transitions(
        5, [(0, 1, 2.0), (0, 2, 1.0), (1, 3, 4.0), (3, 0, 1.0), (4, 3, 3.0)]
    )
    return {
        "all-but-one-goal": (cycle, np.arange(5) != 0, None),
        # No live row; with every row absorbed only an explicit rate remains.
        "all-goal": (cycle, np.ones(5, dtype=bool), 1.0),
        "absorbing-live": (absorbing, np.arange(5) == 3, None),
        "queue": (queue, queue_goal, None),
    }


@pytest.mark.parametrize("case", sorted(_ctmc_edge_cases()))
def test_ctmc_live_row_edge_cases_match_the_parent_loops(case):
    ctmc, goal, rate = _ctmc_edge_cases()[case]
    uniform = rate or float(ctmc.exit_rates().max())
    for t in (8.0 / uniform, 60.0 / uniform):
        new = PreparedCTMCReachability(ctmc, goal, rate=rate)
        old = reference.PreparedCTMCReachability(ctmc, goal, rate=rate)
        assert np.array_equal(new.solve(t), old.solve(t))
        assert new.last_certificate == old.last_certificate
        if rate is not None:
            continue  # the until front end uniformizes at the chain's own rate
        # Blocked states among the live ones: absorbing, swept, zero.
        safe = _safe(ctmc.num_states)
        new_values, new_certificate = timed_until_with_certificate(ctmc, safe, goal, t)
        old_values, old_certificate = reference.ctmc_timed_until_with_certificate(
            ctmc, safe, goal, t
        )
        assert np.array_equal(new_values, old_values)
        assert new_certificate == old_certificate
