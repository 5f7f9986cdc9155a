"""The two backward-sweep kernels behind the reachability solvers.

Algorithm 1 is one recursion over the Poisson-truncated step horizon
``k = right``:

    q_i(s) = opt over choices R of s of
               psi(i) * Pr_R(s, B) + sum_{s'} Pr_R(s, s') * q_{i+1}(s')

with goal states pinned and ``q_{k+1} = 0``.  :func:`poisson_sweep`
is that recursion, written once.  What differs between its callers is
passed in:

* the *selector* that turns the per-row values into the next value
  vector -- :class:`Optimise` (the per-state optimum over each state's
  contiguous block of rows, optionally handing the argbest to a
  :class:`DecisionRecorder`), :class:`Replay` (the recorded choice per
  state), or ``None`` for a chain with one row per state (CTMC);
* an optional *blocked* mask pinned to zero (until);
* how the goal states enter.  All of them carry the same value, the
  running Poisson tail ``g <- psi(i) + g``.  On the full matrix they
  are pinned to ``g`` after each step; on the reduced matrix of the
  qualitative precomputation (``swept``) they are not swept at all
  and ``g`` folds into the row weight as ``(psi(i) + g) * Pr_R(s, B)``.

:func:`value_iteration` is the unweighted recursion (step-bounded or
until convergence) behind the DTMDP, DTMC and CTMDP-unbounded solvers.
The two stay separate: their initial vectors, stopping rules and
weights differ, so one merged loop would branch on its caller.

:func:`state_mask` is the single goal/safe-set parser of every solver
front end.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.core.segments import SegmentIndex, segment_argbest, segment_reduce
from repro.errors import ModelError
from repro.numerics.foxglynn import FoxGlynn
from repro.obs import NumericalCertificate, certificate_from_foxglynn, sweep_span
from repro.policy.store import CompressedDecisions, PolicyWriter

__all__ = [
    "DecisionRecorder",
    "Optimise",
    "Replay",
    "finish_sweep",
    "poisson_sweep",
    "state_mask",
    "value_iteration",
]

#: A selector maps the per-row values of one step to the next value vector.
Selector = Callable[[np.ndarray], np.ndarray]


def state_mask(
    num_states: int, states: Iterable[int] | np.ndarray, what: str = "goal"
) -> np.ndarray:
    """Boolean mask over ``num_states`` states from indices or a mask.

    A boolean array must have shape ``(num_states,)`` and is returned
    as is; every index must lie in ``0 .. num_states - 1`` (a negative
    index is rejected, not wrapped around).  ``what`` names the set in
    the :class:`~repro.errors.ModelError` raised otherwise.
    """
    if isinstance(states, np.ndarray) and states.dtype == bool:
        if states.shape != (num_states,):
            raise ModelError(
                f"{what} mask must have shape ({num_states},), got {states.shape}"
            )
        return states
    mask = np.zeros(num_states, dtype=bool)
    for state in states:
        if not 0 <= state < num_states:
            raise ModelError(f"{what} state {state} out of range 0..{num_states - 1}")
        mask[state] = True
    return mask


class DecisionRecorder:
    """Decision sink streaming each step's choices into a compressed store.

    ``template`` holds the decisions of the states the sweep does not
    optimise (``-1``: no choice); each step overwrites the entries at
    ``states`` with that step's choices and appends the row.  The sweep
    runs backwards, so the writer flags the reversed row orientation
    instead of buffering the table.
    """

    def __init__(self, template: np.ndarray, states: np.ndarray) -> None:
        self.row = template.copy()
        self.states = states
        self.writer = PolicyWriter(num_states=len(template), reverse_rows=True)

    def __call__(self, choices: np.ndarray) -> None:
        self.row[self.states] = choices
        self.writer.append(self.row)

    def finish(self) -> CompressedDecisions:
        """Seal the stream and return the compressed store."""
        return self.writer.finish()


class Optimise:
    """Selector: the best row per state, ``max`` or ``min``.

    With a ``sink`` it also hands over, per step, the first row
    attaining the optimum (see :func:`~repro.core.segments.segment_argbest`)
    as int32 local choice indices of the nonempty states.
    """

    def __init__(
        self,
        segments: SegmentIndex,
        objective: str,
        sink: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        self.segments = segments
        self.objective = objective
        self.sink = sink

    def __call__(self, values: np.ndarray) -> np.ndarray:
        segments = self.segments
        best = segment_reduce(values, segments, self.objective)
        new_q = np.zeros(segments.nonempty.size)
        new_q[segments.nonempty] = best
        if self.sink is not None:
            self.sink(
                segment_argbest(values, best, segments, self.objective).astype(np.int32)
            )
        return new_q


class Replay:
    """Selector: the recorded row per state, one decision row per step.

    ``rows`` yields the decision rows in the sweep's backward order.
    ``-1`` (no recorded choice) and out-of-range entries are clamped to
    the state's first or last row.
    """

    def __init__(self, segments: SegmentIndex, rows: Iterator[np.ndarray]) -> None:
        self.segments = segments
        self.rows = rows
        self.states = np.flatnonzero(segments.nonempty)
        self.last = segments.counts - 1

    def __call__(self, values: np.ndarray) -> np.ndarray:
        segments = self.segments
        choice = np.clip(next(self.rows)[self.states], 0, self.last)
        new_q = np.zeros(segments.nonempty.size)
        new_q[segments.nonempty] = values[segments.starts + choice]
        return new_q


def poisson_sweep(
    prob: Any,
    prob_to_goal: np.ndarray,
    fg: FoxGlynn,
    epsilon: float,
    goal_idx: np.ndarray,
    *,
    algorithm: str,
    span: str,
    select: Selector | None = None,
    blocked: np.ndarray | None = None,
    swept: np.ndarray | None = None,
    **span_attributes: Any,
) -> tuple[np.ndarray, NumericalCertificate]:
    """Run the Poisson-weighted backward recursion; values and certificate.

    Parameters
    ----------
    prob, prob_to_goal:
        The row matrix over the swept states and, per row, its
        probability to enter the goal set in one jump.
    fg, epsilon:
        The Fox-Glynn weights of this time bound and the epsilon they
        were computed for (certificate accounting).
    goal_idx:
        Goal states, indices into the full state space.
    algorithm, span:
        Certificate algorithm name and sweep span name; further keyword
        arguments become span attributes.
    select:
        The per-step selector (see the module docstring); ``None``
        takes the row values as they are (one row per state).
    blocked:
        States pinned to zero at every step, or ``None``.
    swept:
        Boolean mask over the full state space of the states ``prob``
        covers, or ``None`` when it covers all of them.  With a mask the
        goal states lie outside it and fold into the row weight; the
        other states outside it finish at zero.

    Returns
    -------
    (values, certificate):
        Per-state values over the full state space (goal states 1,
        blocked states 0, clipped to ``[0, 1]``) and the certificate
        from :func:`finish_sweep`.
    """
    psi = fg.probabilities()
    left = fg.left
    fold = swept is not None
    with sweep_span(span, iterations=fg.right, **span_attributes) as steps:
        record_steps = steps.enabled
        q = np.zeros(prob.shape[1])
        g = 0.0  # the goal states' value: the Poisson tail psi(i) + ... + psi(right)
        for i in range(fg.right, 0, -1):
            step_started = perf_counter() if record_steps else 0.0
            psi_i = psi[i - left] if i >= left else 0.0
            transition_values = (psi_i + g if fold else psi_i) * prob_to_goal + prob @ q
            new_q = transition_values if select is None else select(transition_values)
            g = psi_i + g
            if not fold:
                new_q[goal_idx] = g
            if blocked is not None:
                new_q[blocked] = 0.0  # entering a non-safe state loses the game
            q = new_q
            if record_steps:
                steps.record(perf_counter() - step_started)
    return finish_sweep(
        q, g, fg, epsilon, goal_idx, algorithm=algorithm, blocked=blocked, swept=swept
    )


def finish_sweep(
    q: np.ndarray,
    goal_tail: float,
    fg: FoxGlynn,
    epsilon: float,
    goal_idx: np.ndarray,
    *,
    algorithm: str,
    blocked: np.ndarray | None = None,
    swept: np.ndarray | None = None,
) -> tuple[np.ndarray, NumericalCertificate]:
    """Final values of a sweep and its certificate.

    Goal states become 1 and blocked states 0; the largest excursion
    outside ``[0, 1]`` before clipping is the certificate's sweep
    residual.  Under ``swept`` (see :func:`poisson_sweep`) the swept
    values are scattered into the full state space, the goal tail
    ``goal_tail`` counts towards the residual, and every state outside
    ``swept`` counts as eliminated.
    """
    if swept is None:
        values = q.copy()
        states_eliminated = 0
    else:
        values = np.zeros(swept.size)
        values[swept] = q
        states_eliminated = int(swept.size - np.count_nonzero(swept))
    values[goal_idx] = 1.0
    if blocked is not None:
        values[blocked] = 0.0
    residual = max(0.0, float(values.max()) - 1.0, -float(values.min()))
    if swept is not None:
        residual = max(residual, goal_tail - 1.0)
    np.clip(values, 0.0, 1.0, out=values)
    certificate = certificate_from_foxglynn(
        fg,
        epsilon,
        algorithm,
        sweep_residual=residual,
        states_eliminated=states_eliminated,
    )
    return values, certificate


def value_iteration(
    prob: Any,
    goal: np.ndarray,
    iterations: int,
    *,
    segments: SegmentIndex | None = None,
    objective: str = "max",
    tol: float | None = None,
    zero: np.ndarray | None = None,
    one: np.ndarray | None = None,
) -> np.ndarray:
    """Unweighted reachability value iteration from the goal indicator.

    Runs ``iterations`` steps of ``q <- opt(prob @ q)`` with the goal
    states (and ``one``) pinned to 1 and ``zero`` pinned to 0; with
    ``tol`` it returns as soon as a step moves no value by ``tol`` or
    more.  ``segments`` groups the rows of ``prob`` per state for the
    ``objective`` optimum; without it ``prob`` has one row per state.
    """
    kind = "bounded" if tol is None else "unbounded"
    horizon = {"iterations": iterations} if tol is None else {}
    with sweep_span(
        "vi.sweep", objective=objective, states=goal.size, kind=kind, **horizon
    ) as steps:
        record_steps = steps.enabled
        q = goal.astype(np.float64)
        if one is not None:
            q[one] = 1.0
        for _ in range(iterations):
            step_started = perf_counter() if record_steps else 0.0
            values = prob @ q
            if segments is None:
                new_q = values
            else:
                new_q = np.zeros(goal.size)
                new_q[segments.nonempty] = segment_reduce(values, segments, objective)
            new_q[goal] = 1.0
            if one is not None:
                new_q[one] = 1.0
            if zero is not None:
                new_q[zero] = 0.0
            if record_steps:
                steps.record(perf_counter() - step_started)
            if tol is not None and np.max(np.abs(new_q - q)) < tol:
                return new_q
            q = new_q
    return q
