"""Value iteration for discrete-time MDPs.

Step-bounded and unbounded reachability.  The step-bounded variant is
the discrete skeleton of Algorithm 1: the continuous-time algorithm is
this recursion with each step weighted by a Poisson probability.  Both
run the shared unweighted kernel :func:`repro.core.sweep.value_iteration`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.segments import SegmentIndex, validate_objective
from repro.core.sweep import state_mask, value_iteration
from repro.errors import ModelError
from repro.mdp.model import DTMDP

__all__ = ["bounded_reachability", "unbounded_reachability"]


def bounded_reachability(
    mdp: DTMDP, goal: Iterable[int] | np.ndarray, steps: int, objective: str = "max"
) -> np.ndarray:
    """Optimal probability to reach ``goal`` within ``steps`` steps.

    States without actions are absorbing with value zero (unless they
    are goal states, which always carry value one).
    """
    validate_objective(objective)
    if steps < 0:
        raise ModelError("step bound must be non-negative")
    return value_iteration(
        mdp.probabilities,
        state_mask(mdp.num_states, goal),
        steps,
        segments=SegmentIndex.from_choice_ptr(mdp.choice_ptr),
        objective=objective,
    )


def unbounded_reachability(
    mdp: DTMDP,
    goal: Iterable[int] | np.ndarray,
    objective: str = "max",
    tol: float = 1e-12,
    max_iterations: int = 1_000_000,
    precompute: bool = False,
) -> np.ndarray:
    """Optimal probability to ever reach ``goal`` (value iteration).

    With ``precompute=True`` the qualitative zero and one sets of the
    objective are clamped before iterating (sound for the unbounded
    objective: membership decides the value exactly), which removes the
    slowest-converging states from the iteration.
    """
    validate_objective(objective)
    mask = state_mask(mdp.num_states, goal)

    zero = one = None
    if precompute:
        from repro.graph.qualitative import unbounded_clamps

        zero, one = unbounded_clamps(mdp, mask, objective)

    return value_iteration(
        mdp.probabilities,
        mask,
        max_iterations,
        segments=SegmentIndex.from_choice_ptr(mdp.choice_ptr),
        objective=objective,
        tol=tol,
        zero=zero,
        one=one,
    )
