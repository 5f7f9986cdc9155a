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
from repro.core.until import timed_until
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
