"""The two backward-sweep kernels behind the reachability solvers.

Algorithm 1 is one recursion over the Poisson-truncated step horizon
``k = right``:

    q_i(s) = opt over choices R of s of
               psi(i) * Pr_R(s, B) + sum_{s'} Pr_R(s, s') * q_{i+1}(s')

with goal states pinned and ``q_{k+1} = 0``.  :func:`poisson_sweep`
is that recursion, written once.  It runs over a :class:`LiveRows`:
the rows of the *live* states only -- the states whose value the call
reports -- over the compact set of columns those rows read.  The goal
states carry the running Poisson tail ``g <- psi(i) + g`` and blocked
until-states carry zero at every step, so their rows are never
evaluated: the goal columns are pinned to ``g`` after each step and
the blocked columns, which no live row writes, stay zero.  Each live
row sums the same nonzeros in the same order against the same column
values as on the full matrix, so the restriction is bitwise exact.
(Recording a scheduler reports a choice for every state, goal states
included, so that call sweeps every row: the identity restriction,
with the blocked states pinned to zero.)

What differs between the callers is passed in:

* the *selector* that turns the per-row values into the live states'
  next values -- :class:`Optimise` (the per-state optimum over each
  state's contiguous block of rows, optionally handing the argbest to
  a :class:`DecisionRecorder`), :class:`Replay` (the recorded choice
  per state), or ``None`` for a chain with one row per state (CTMC);
* the :class:`LiveRows` themselves, which also say how the goal
  states enter: pinned to ``g`` as above, or -- on the reduced matrix
  of the qualitative precomputation -- not read at all, ``g`` folding
  into the row weight as ``(psi(i) + g) * Pr_R(s, B)``.

:func:`value_iteration` is the unweighted recursion (step-bounded or
until convergence) behind the DTMDP, DTMC and CTMDP-unbounded solvers.
The two stay separate: their initial vectors, stopping rules and
weights differ, so one merged loop would branch on its caller.

:func:`state_mask` is the single goal/safe-set parser of every solver
front end.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from repro.core.segments import SegmentIndex, segment_argbest, segment_reduce
from repro.errors import ModelError
from repro.numerics.foxglynn import FoxGlynn
from repro.obs import NumericalCertificate, certificate_from_foxglynn, sweep_span
from repro.policy.store import CompressedDecisions, PolicyWriter

__all__ = [
    "DecisionRecorder",
    "LiveRows",
    "Optimise",
    "Replay",
    "finish_sweep",
    "poisson_sweep",
    "state_mask",
    "state_rows",
    "value_iteration",
]

#: A selector maps the per-row values of one step to the live states' next values.
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


def state_rows(
    choice_ptr: np.ndarray, states: np.ndarray
) -> tuple[np.ndarray, SegmentIndex]:
    """The rows of ``states`` (a mask) in order, and their segment index.

    ``choice_ptr`` delimits each state's contiguous block of rows; the
    segment index addresses the selected rows as one compact block.
    """
    counts = np.diff(np.asarray(choice_ptr))
    rows = np.flatnonzero(np.repeat(states, counts))
    return rows, SegmentIndex.from_choice_ptr(
        np.concatenate(([0], np.cumsum(counts[states])))
    )


@dataclass(frozen=True)
class LiveRows:
    """The rows a Poisson sweep evaluates, over the columns they read.

    ``prob`` holds the rows of the live states, each with its nonzeros
    in their original order, over a compact column set K: the live
    states first (position ``j`` of K is ``states[j]``), then the other
    columns those rows read, in increasing state order.

    Attributes
    ----------
    prob, prob_to_goal:
        The live rows over K and, per row, its probability to enter
        the goal set in one jump.
    segments:
        Each live state's contiguous block of rows.
    states:
        Full-space index of each live state.
    goal_pos:
        Positions in K pinned to the goal tail after every step.
    zero_pos:
        Positions in K pinned to zero after every step, or ``None``.
    goal_idx:
        Goal states, indices into the full state space.
    num_states:
        Size of the full state space.
    fold_goal:
        True when K holds no goal column and the goal tail folds into
        the row weight instead (the qualitative precomputation); the
        states outside ``states`` then count as eliminated.
    """

    prob: Any
    prob_to_goal: np.ndarray
    segments: SegmentIndex
    states: np.ndarray
    goal_pos: np.ndarray
    zero_pos: np.ndarray | None
    goal_idx: np.ndarray
    num_states: int
    fold_goal: bool = False

    @classmethod
    def build(
        cls,
        prob: Any,
        prob_to_goal: np.ndarray,
        choice_ptr: np.ndarray,
        live: np.ndarray,
        goal: np.ndarray,
        blocked: np.ndarray | None = None,
    ) -> "LiveRows":
        """The rows of the ``live`` states of a full-space sweep.

        ``prob`` is the CSR row matrix over all states (rows grouped by
        ``choice_ptr``), ``live``, ``goal`` and ``blocked`` are masks
        over the states.  Goal columns are pinned to the goal tail, and
        live blocked states to zero; a blocked column no live row writes
        stays zero without a pin.  With every state live the matrix is
        used as it is.
        """
        states = np.flatnonzero(live)
        if states.size == live.size:
            rows_prob, rows_to_goal, columns = prob, prob_to_goal, states
            segments = SegmentIndex.from_choice_ptr(choice_ptr)
        else:
            rows, segments = state_rows(choice_ptr, live)
            sub = prob[rows]
            read = np.zeros(live.size, dtype=bool)
            read[sub.indices] = True
            columns = np.concatenate((states, np.flatnonzero(read & ~live)))
            position = np.empty(live.size, dtype=sub.indices.dtype)
            position[columns] = np.arange(columns.size, dtype=sub.indices.dtype)
            rows_prob = sp.csr_matrix(
                (sub.data, position[sub.indices], sub.indptr),
                shape=(rows.size, columns.size),
            )
            rows_to_goal = prob_to_goal[rows]
        zero_pos = None
        if blocked is not None and blocked[states].any():
            zero_pos = np.flatnonzero(blocked[states])
        return cls(
            prob=rows_prob,
            prob_to_goal=rows_to_goal,
            segments=segments,
            states=states,
            goal_pos=np.flatnonzero(goal[columns]),
            zero_pos=zero_pos,
            goal_idx=np.flatnonzero(goal),
            num_states=live.size,
        )


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

    ``rows`` yields the decision rows (over the full state space) in
    the sweep's backward order; ``states`` is the full-space index of
    each state of ``segments``.  ``-1`` (no recorded choice) and
    out-of-range entries are clamped to the state's first or last row.
    """

    def __init__(
        self, segments: SegmentIndex, rows: Iterator[np.ndarray], states: np.ndarray
    ) -> None:
        self.segments = segments
        self.rows = rows
        self.states = states[segments.nonempty]
        self.last = segments.counts - 1

    def __call__(self, values: np.ndarray) -> np.ndarray:
        segments = self.segments
        choice = np.clip(next(self.rows)[self.states], 0, self.last)
        new_q = np.zeros(segments.nonempty.size)
        new_q[segments.nonempty] = values[segments.starts + choice]
        return new_q


def poisson_sweep(
    rows: LiveRows,
    fg: FoxGlynn,
    epsilon: float,
    *,
    algorithm: str,
    span: str,
    select: Selector | None = None,
    **span_attributes: Any,
) -> tuple[np.ndarray, NumericalCertificate]:
    """Run the Poisson-weighted backward recursion; values and certificate.

    Parameters
    ----------
    rows:
        The live rows to sweep and how the goal states enter (see
        :class:`LiveRows`).
    fg, epsilon:
        The Fox-Glynn weights of this time bound and the epsilon they
        were computed for (certificate accounting).
    algorithm, span:
        Certificate algorithm name and sweep span name; further keyword
        arguments become span attributes, next to the ``rows_swept``
        and ``nnz_swept`` of ``rows``.
    select:
        The per-step selector (see the module docstring); ``None``
        takes the row values as they are (one row per live state).

    Returns
    -------
    (values, certificate):
        Per-state values over the full state space (goal states 1,
        blocked states 0, clipped to ``[0, 1]``) and the certificate
        from :func:`finish_sweep`.
    """
    psi = fg.probabilities()
    left = fg.left
    prob, prob_to_goal = rows.prob, rows.prob_to_goal
    live = rows.states.size
    goal_pos, zero_pos, fold = rows.goal_pos, rows.zero_pos, rows.fold_goal
    with sweep_span(
        span,
        iterations=fg.right,
        rows_swept=prob.shape[0],
        nnz_swept=prob.nnz,
        **span_attributes,
    ) as steps:
        record_steps = steps.enabled
        q = np.zeros(prob.shape[1])
        g = 0.0  # the goal states' value: the Poisson tail psi(i) + ... + psi(right)
        for i in range(fg.right, 0, -1):
            step_started = perf_counter() if record_steps else 0.0
            psi_i = psi[i - left] if i >= left else 0.0
            transition_values = (psi_i + g if fold else psi_i) * prob_to_goal + prob @ q
            q[:live] = (
                transition_values if select is None else select(transition_values)
            )
            g = psi_i + g
            q[goal_pos] = g
            if zero_pos is not None:
                q[zero_pos] = 0.0  # entering a non-safe state loses the game
            if record_steps:
                steps.record(perf_counter() - step_started)
    return finish_sweep(q, g, fg, epsilon, rows, algorithm=algorithm)


def finish_sweep(
    q: np.ndarray,
    goal_tail: float,
    fg: FoxGlynn,
    epsilon: float,
    rows: LiveRows,
    *,
    algorithm: str,
) -> tuple[np.ndarray, NumericalCertificate]:
    """Final values of a sweep over ``rows`` and its certificate.

    The live states' values are scattered into the full state space,
    goal states become 1 and the states outside ``rows.states`` 0 (live
    blocked states already are, from their pin); the largest excursion
    outside ``[0, 1]`` before clipping is the certificate's sweep
    residual.  When the goal tail ``goal_tail`` was folded into the row
    weight (``rows.fold_goal``) it counts towards the residual, and
    every state outside ``rows.states`` counts as eliminated.
    """
    values = np.zeros(rows.num_states)
    values[rows.states] = q[: rows.states.size]
    values[rows.goal_idx] = 1.0
    residual = max(0.0, float(values.max()) - 1.0, -float(values.min()))
    states_eliminated = 0
    if rows.fold_goal:
        residual = max(residual, goal_tail - 1.0)
        states_eliminated = int(rows.num_states - rows.states.size)
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
