"""Every solver front end parses goal sets through one range-checked helper.

Out-of-range indices -- negative ones included, which numpy would
silently wrap around to the last states -- and boolean masks of the
wrong shape raise :class:`~repro.errors.ModelError` on all four model
kinds.
"""

import numpy as np
import pytest

from repro.core.ctmdp import CTMDP
from repro.core.reachability import timed_reachability
from repro.core.until import timed_until
from repro.ctmc.model import CTMC
from repro.ctmc.reachability import timed_reachability as ctmc_reachability
from repro.errors import ModelError
from repro.mdp.model import DTMC, DTMDP
from repro.mdp.value_iteration import bounded_reachability, unbounded_reachability

N = 4


def _ctmdp() -> CTMDP:
    return CTMDP.from_transitions(N, [(s, "a", {(s + 1) % N: 2.0}) for s in range(N)])


def _ctmc() -> CTMC:
    return CTMC.from_transitions(N, [(s, (s + 1) % N, 2.0) for s in range(N)])


def _dtmdp() -> DTMDP:
    """The coin MDP: gamble into {goal, trap} or walk slowly to the goal."""
    return DTMDP.from_transitions(
        N,
        [
            (0, "gamble", {2: 0.5, 3: 0.5}),
            (0, "walk", {1: 1.0}),
            (1, "walk", {2: 1.0}),
            (2, "stay", {2: 1.0}),
            (3, "stay", {3: 1.0}),
        ],
    )


def _dtmc() -> DTMC:
    return DTMC(np.roll(np.eye(N), 1, axis=1))


FRONT_ENDS = {
    "ctmdp-reachability": lambda goal: timed_reachability(_ctmdp(), goal, 1.0),
    "ctmdp-until-goal": lambda goal: timed_until(_ctmdp(), [0, 1], goal, 1.0),
    "ctmdp-until-safe": lambda safe: timed_until(_ctmdp(), safe, [2], 1.0),
    "ctmc-reachability": lambda goal: ctmc_reachability(_ctmc(), goal, 1.0),
    "dtmdp-bounded": lambda goal: bounded_reachability(_dtmdp(), goal, 3),
    "dtmdp-unbounded": lambda goal: unbounded_reachability(_dtmdp(), goal),
    "dtmc-bounded": lambda goal: _dtmc().bounded_reachability(goal, 2),
}


@pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
@pytest.mark.parametrize("state", [-1, N])
def test_out_of_range_state_is_rejected(front_end, state):
    with pytest.raises(ModelError, match="out of range"):
        FRONT_ENDS[front_end]([state])


@pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
def test_mask_of_wrong_shape_is_rejected(front_end):
    with pytest.raises(ModelError, match="must have shape"):
        FRONT_ENDS[front_end](np.zeros(N + 1, dtype=bool))


def test_negative_index_no_longer_answers_for_the_last_state():
    """``[-1]`` used to answer the query for state ``N - 1``."""
    with pytest.raises(ModelError):
        bounded_reachability(_dtmdp(), [-1], 3)
    np.testing.assert_array_equal(
        bounded_reachability(_dtmdp(), [N - 1], 3), [0.5, 0.0, 0.0, 1.0]
    )


def test_dtmc_negative_step_bound_is_rejected():
    with pytest.raises(ModelError, match="non-negative"):
        _dtmc().bounded_reachability([1], -1)
