"""The parent's hand-written backward sweeps, kept verbatim as test oracles.

Before :mod:`repro.core.sweep` existed, Algorithm 1 and its relatives
were written out as nine separate loops: the plain and the clamped
(``precompute=True``) CTMDP sweeps, the until sweep, the scheduler
replay, CTMDP unbounded value iteration, the CTMC sweep, DTMDP step-
bounded and unbounded value iteration, and DTMC step-bounded
reachability.  They are copied here unchanged (only renamed where two
of them shared a name, and the DTMC method turned into a function),
together with the historical ``scheduler_format="dense"`` recorder, so
the equivalence tests can check the two kernels bitwise against them:
values, decisions, iteration counts and certificates.  The CTMC until
front end, unchanged itself, is copied too so that it runs on the
reference CTMC loop.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from repro.core.ctmdp import CTMDP
from repro.core.reachability import ReachabilityResult
from repro.core.segments import (
    SegmentIndex,
    segment_argbest,
    segment_reduce,
    validate_objective,
)
from repro.ctmc.model import CTMC
from repro.ctmc.uniformization import uniformized_jump_matrix
from repro.errors import ModelError, NonUniformError
from repro.mdp.model import DTMC, DTMDP
from repro.numerics.foxglynn import fox_glynn
from repro.obs import NumericalCertificate, certificate_from_foxglynn, sweep_span
from repro.policy.store import CompressedDecisions, PolicyWriter

# ----------------------------------------------------------------------
# repro.core.reachability
# ----------------------------------------------------------------------
#: Decision-recording formats accepted by ``scheduler_format=``:
#: ``"compressed"`` streams rows into a :class:`CompressedDecisions`
#: store as the sweep runs (the default -- peak memory no longer scales
#: as ``iterations x states``); ``"dense"`` keeps the historical int32
#: matrix and exists for the bitwise equivalence tests.
SCHEDULER_FORMATS = ("compressed", "dense")


def _validate_scheduler_format(scheduler_format: str) -> None:
    if scheduler_format not in SCHEDULER_FORMATS:
        raise ModelError(
            f"scheduler_format must be one of {', '.join(SCHEDULER_FORMATS)}, "
            f"got {scheduler_format!r}"
        )



def _goal_mask(ctmdp: CTMDP, goal: Iterable[int] | np.ndarray) -> np.ndarray:
    if isinstance(goal, np.ndarray) and goal.dtype == bool:
        if goal.shape != (ctmdp.num_states,):
            raise ModelError(f"goal mask must have shape ({ctmdp.num_states},)")
        return goal
    mask = np.zeros(ctmdp.num_states, dtype=bool)
    for state in goal:  # type: ignore[union-attr]
        if not 0 <= state < ctmdp.num_states:
            raise ModelError(f"goal state {state} out of range")
        mask[state] = True
    return mask


class PreparedTimedReachability:
    """Reusable setup for repeated timed-reachability solves on one model.

    The expensive, time-bound-independent part of Algorithm 1 -- the
    row-stochastic ``T x S`` probability matrix, the per-transition
    goal-hitting probabilities and the segment bookkeeping for the
    per-state optimisation -- is computed once in the constructor; each
    :meth:`solve` call then only performs the Fox-Glynn computation for
    its own ``(t, epsilon)`` and the backward iteration.  A whole time
    sweep over one ``(model, goal)`` pair therefore shares a single
    setup, which is what the batched query engine exploits.

    :func:`timed_reachability` delegates to this class, so prepared and
    one-shot solves are bitwise-identical.

    With ``precompute=True`` every :meth:`solve` first runs the
    qualitative graph analysis (:mod:`repro.graph.qualitative`): states
    with a known answer -- the zero set of the requested objective, and
    the goal states whose value follows a scalar recursion -- are
    removed from the numeric sweep, which then runs on the reduced
    sub-matrix of undecided states only.  Answers agree with the
    unclamped sweep within the solver's certified error bound but are
    *not* bitwise identical (the reduced mat-vec accumulates round-off
    in a different order), hence the opt-in default.
    """

    def __init__(
        self,
        ctmdp: CTMDP,
        goal: Iterable[int] | np.ndarray,
        precompute: bool = False,
    ) -> None:
        self.ctmdp = ctmdp
        self.mask = _goal_mask(ctmdp, goal)
        self.num_states = ctmdp.num_states
        self.precompute = bool(precompute)
        self._zero_cache: dict[str, tuple[np.ndarray, np.ndarray | None]] = {}
        self._ready = False
        if not self.mask.any():
            return
        rate = ctmdp.uniform_rate()  # raises NonUniformError when violated
        if rate <= 0.0:
            raise NonUniformError("uniform rate must be strictly positive for analysis")
        self.rate = rate
        self.prob = ctmdp.probability_matrix()  # T x S, row-stochastic
        self.goal_vec = self.mask.astype(np.float64)
        self.prob_to_goal = self.prob @ self.goal_vec  # Pr_R(s, B) per row

        # Segment bookkeeping for the per-state optimisation: transitions
        # are sorted by source, so each state's rows are contiguous.
        # States without transitions keep value 0 (they cannot reach B).
        self.segments = SegmentIndex.from_choice_ptr(ctmdp.choice_ptr)
        self.goal_idx = np.flatnonzero(self.mask)
        self._ready = True

    def _trivial_result(self, t: float, epsilon: float, objective: str) -> ReachabilityResult:
        """The ``t = 0`` / empty-goal answer: the goal indicator itself.

        Uniformity is irrelevant here (no time passes, or there is
        nothing to reach), so the model's rate is *not* recomputed --
        querying a trivially-zero property on a non-uniform model must
        not raise.  The prepared rate is reported when available.
        """
        return ReachabilityResult(
            values=self.mask.astype(np.float64),
            iterations=0,
            uniform_rate=self.rate if self._ready else 0.0,
            time_bound=t,
            objective=objective,
            poisson=fox_glynn(0.0, min(epsilon, 0.5)),
            certificate=NumericalCertificate.trivial("ctmdp.reachability", epsilon),
        )

    def _zero_info(self, objective: str) -> tuple[np.ndarray, np.ndarray | None]:
        """The known-zero states of ``objective`` (cached per objective).

        For ``max`` these are the Prob0A states (no path to the goal at
        all); for ``min`` the Prob0E states, together with the witness
        choice (per state, the local index of a transition whose whole
        support stays inside the zero region) that a recorded scheduler
        must carry so that replaying it reproduces the zero.
        """
        cached = self._zero_cache.get(objective)
        if cached is not None:
            return cached
        from repro.graph.qualitative import prob0_exists, prob0_forall
        from repro.graph.structure import TransitionGraph

        graph = TransitionGraph.from_ctmdp(self.ctmdp)
        if objective == "max":
            info: tuple[np.ndarray, np.ndarray | None] = (
                prob0_forall(graph, self.mask),
                None,
            )
        else:
            zero, witness = prob0_exists(graph, self.mask, with_witness=True)
            info = (zero, witness)
        self._zero_cache[objective] = info
        return info

    def solve(
        self,
        t: float,
        epsilon: float = 1e-6,
        objective: str = "max",
        record_scheduler: bool = False,
        scheduler_format: str = "compressed",
    ) -> ReachabilityResult:
        """Solve one time bound against the prepared model/goal pair.

        With ``record_scheduler`` the optimal step scheduler is recorded
        as the sweep runs; ``scheduler_format`` picks the representation
        (see :data:`SCHEDULER_FORMATS`).  The compressed default streams
        each decision row into a run-length/delta store, so the dense
        ``iterations x states`` matrix is never materialised.
        """
        validate_objective(objective)
        _validate_scheduler_format(scheduler_format)
        if t < 0.0:
            raise ModelError("time bound must be non-negative")
        num_states = self.num_states

        if t == 0.0 or not self._ready:
            return self._trivial_result(t, epsilon, objective)

        if self.precompute:
            zero, witness = self._zero_info(objective)
            return _clamped_sweep(
                prob=self.prob,
                prob_to_goal=self.prob_to_goal,
                choice_ptr=np.asarray(self.ctmdp.choice_ptr),
                num_states=num_states,
                mask=self.mask,
                zero=zero,
                witness=witness,
                rate=self.rate,
                t=t,
                epsilon=epsilon,
                objective=objective,
                record_scheduler=record_scheduler,
                scheduler_format=scheduler_format,
                span_name="reachability.sweep",
                algorithm="ctmdp.reachability",
            )

        fg = fox_glynn(self.rate * t, epsilon)
        psi = fg.probabilities()
        k = fg.right

        prob = self.prob
        prob_to_goal = self.prob_to_goal
        segments = self.segments
        nonempty = segments.nonempty
        goal_idx = self.goal_idx

        dense_decisions: np.ndarray | None = None
        writer: PolicyWriter | None = None
        decision_row: np.ndarray | None = None
        if record_scheduler:
            if scheduler_format == "dense":
                dense_decisions = np.full((k, num_states), -1, dtype=np.int32)
            else:
                # The sweep runs backwards (row k-1 is produced first), so
                # the writer stores rows in arrival order and flags the
                # orientation instead of buffering the whole table.
                writer = PolicyWriter(num_states=num_states, reverse_rows=True)
                decision_row = np.full(num_states, -1, dtype=np.int32)

        with sweep_span(
            "reachability.sweep",
            t=t,
            objective=objective,
            states=num_states,
            transitions=self.ctmdp.num_transitions,
            iterations=k,
            lam=self.rate * t,
        ) as steps:
            record_steps = steps.enabled
            q = np.zeros(num_states)
            for i in range(k, 0, -1):
                step_started = perf_counter() if record_steps else 0.0
                psi_i = psi[i - fg.left] if i >= fg.left else 0.0
                transition_values = psi_i * prob_to_goal + prob @ q
                best = segment_reduce(transition_values, segments, objective)
                new_q = np.zeros(num_states)
                new_q[nonempty] = best
                new_q[goal_idx] = psi_i + q[goal_idx]
                if record_scheduler:
                    # First transition attaining the optimum within each
                    # segment, with the tie tolerance on the side that
                    # matches the objective (cf. segment_argbest).
                    argbest = segment_argbest(
                        transition_values, best, segments, objective
                    ).astype(np.int32)
                    if dense_decisions is not None:
                        dense_decisions[i - 1, nonempty] = argbest
                    else:
                        assert writer is not None and decision_row is not None
                        decision_row[nonempty] = argbest
                        writer.append(decision_row)
                q = new_q
                if record_steps:
                    steps.record(perf_counter() - step_started)

        decisions: np.ndarray | CompressedDecisions | None = dense_decisions
        if writer is not None:
            decisions = writer.finish()

        values = q.copy()
        values[goal_idx] = 1.0
        residual = max(0.0, float(values.max()) - 1.0, -float(values.min()))
        np.clip(values, 0.0, 1.0, out=values)

        return ReachabilityResult(
            values=values,
            iterations=k,
            uniform_rate=self.rate,
            time_bound=t,
            objective=objective,
            poisson=fg,
            decisions=decisions,
            certificate=certificate_from_foxglynn(
                fg, epsilon, "ctmdp.reachability", sweep_residual=residual
            ),
        )


def _clamped_sweep(
    *,
    prob,
    prob_to_goal: np.ndarray,
    choice_ptr: np.ndarray,
    num_states: int,
    mask: np.ndarray,
    zero: np.ndarray,
    witness: np.ndarray | None,
    rate: float,
    t: float,
    epsilon: float,
    objective: str,
    record_scheduler: bool,
    scheduler_format: str,
    span_name: str,
    algorithm: str,
) -> ReachabilityResult:
    """Backward sweep restricted to the qualitatively undecided states.

    Shared by timed reachability and timed until under
    ``precompute=True``.  Three state classes leave the numeric sweep:

    * ``zero`` states (the Prob0 set of the requested objective,
      including blocked until-states) are clamped to 0 -- sound for the
      *timed* objective because membership means the timed probability
      is exactly 0 for every horizon;
    * goal states follow the scalar recursion ``g_i = psi_i + g_{i+1}``
      shared by all of them, so their matrix rows and columns fold into
      ``(psi_i + g_{i+1}) * prob_to_goal``;
    * only the remaining *active* states are iterated, over the reduced
      ``active-rows x active-states`` sub-matrix.

    Recorded schedulers stay replayable: clamped min-states carry their
    zero-witness choice (a transition whose support stays inside the
    zero region), so the induced-chain validation reproduces the zero.
    """
    fg = fox_glynn(rate * t, epsilon)
    psi = fg.probabilities()
    k = fg.right

    active = ~mask & ~zero
    active_idx = np.flatnonzero(active)
    goal_idx = np.flatnonzero(mask)
    states_eliminated = num_states - len(active_idx)

    # Decision template for the eliminated states: min-zero states get
    # their witness transition, everything else the -1 "no choice"
    # marker (any choice of a max-zero state yields 0, goal states are
    # pinned by every replay).
    template = np.full(num_states, -1, dtype=np.int32)
    if witness is not None:
        chosen = witness >= 0
        template[chosen] = witness[chosen].astype(np.int32)

    dense_decisions: np.ndarray | None = None
    writer: PolicyWriter | None = None
    if record_scheduler:
        if scheduler_format == "dense":
            dense_decisions = np.full((k, num_states), -1, dtype=np.int32)
        else:
            writer = PolicyWriter(num_states=num_states, reverse_rows=True)

    def _finish(
        q_active: np.ndarray, g_total: float
    ) -> ReachabilityResult:
        decisions: np.ndarray | CompressedDecisions | None = dense_decisions
        if writer is not None:
            decisions = writer.finish()
        values = np.zeros(num_states)
        values[active_idx] = q_active
        values[goal_idx] = 1.0
        residual = max(
            0.0,
            float(values.max()) - 1.0,
            -float(values.min()),
            g_total - 1.0,
        )
        np.clip(values, 0.0, 1.0, out=values)
        return ReachabilityResult(
            values=values,
            iterations=k,
            uniform_rate=rate,
            time_bound=t,
            objective=objective,
            poisson=fg,
            decisions=decisions,
            certificate=certificate_from_foxglynn(
                fg,
                epsilon,
                algorithm,
                sweep_residual=residual,
                states_eliminated=states_eliminated,
            ),
            states_eliminated=states_eliminated,
        )

    if len(active_idx) == 0:
        # Every state is decided; only the constant decisions remain.
        if dense_decisions is not None:
            dense_decisions[:] = template
        elif writer is not None:
            for _ in range(k):
                writer.append(template)
        return _finish(np.empty(0), float(np.sum(psi)))

    counts_all = np.diff(choice_ptr)
    row_sources = np.repeat(np.arange(num_states), counts_all)
    active_rows = np.flatnonzero(active[row_sources])
    segments = SegmentIndex.from_choice_ptr(
        np.concatenate(([0], np.cumsum(counts_all[active_idx])))
    )
    sub = prob[active_rows]
    prob_aa = sub[:, active_idx].tocsr()
    prob_to_goal_active = prob_to_goal[active_rows]
    record_states = active_idx[segments.nonempty]

    with sweep_span(
        span_name,
        t=t,
        objective=objective,
        states=num_states,
        active=len(active_idx),
        iterations=k,
        lam=rate * t,
        precompute=True,
    ) as steps:
        record_steps = steps.enabled
        q = np.zeros(len(active_idx))
        g = 0.0  # the shared goal-state value g_{i+1}
        for i in range(k, 0, -1):
            step_started = perf_counter() if record_steps else 0.0
            psi_i = psi[i - fg.left] if i >= fg.left else 0.0
            transition_values = (psi_i + g) * prob_to_goal_active + prob_aa @ q
            best = segment_reduce(transition_values, segments, objective)
            new_q = np.zeros(len(active_idx))
            new_q[segments.nonempty] = best
            if record_scheduler:
                argbest = segment_argbest(
                    transition_values, best, segments, objective
                ).astype(np.int32)
                decision_row = template.copy()
                decision_row[record_states] = argbest
                if dense_decisions is not None:
                    dense_decisions[i - 1] = decision_row
                else:
                    assert writer is not None
                    writer.append(decision_row)
            q = new_q
            g = psi_i + g
            if record_steps:
                steps.record(perf_counter() - step_started)

    return _finish(q, g)


def timed_reachability(
    ctmdp: CTMDP,
    goal: Iterable[int] | np.ndarray,
    t: float,
    epsilon: float = 1e-6,
    objective: str = "max",
    record_scheduler: bool = False,
    scheduler_format: str = "compressed",
    precompute: bool = False,
) -> ReachabilityResult:
    """Run Algorithm 1 on a uniform CTMDP.

    Parameters
    ----------
    ctmdp:
        The model; must be uniform (:class:`~repro.errors.NonUniformError`
        otherwise -- the greedy recursion is unsound on non-uniform
        models).  Trivially-answerable queries (empty goal set) are
        exempt: uniformity is irrelevant to their answer.
    goal:
        Goal set ``B`` as indices or boolean mask over states.
    t:
        Time bound (hours in the FTWC study).
    epsilon:
        Poisson truncation error; the paper's experiments use ``1e-6``.
    objective:
        ``"max"`` for worst-case (sup over schedulers), ``"min"`` for
        best-case (inf).
    record_scheduler:
        If true, record the optimising transition per state and step.
    scheduler_format:
        ``"compressed"`` (default) streams the decisions into a
        :class:`~repro.policy.store.CompressedDecisions` store during
        the sweep; ``"dense"`` keeps the historical
        ``iterations x num_states`` int32 matrix (large for the long
        FTWC horizons -- it exists for the equivalence tests).
    precompute:
        If true, clamp the qualitative zero set and fold the goal states
        into a scalar recursion before iterating; the sweep then covers
        only the undecided states.  Values agree with the unclamped
        sweep within the certified error bound (not bitwise), and the
        result reports ``states_eliminated``.

    Returns
    -------
    ReachabilityResult
    """
    return PreparedTimedReachability(ctmdp, goal, precompute=precompute).solve(
        t,
        epsilon=epsilon,
        objective=objective,
        record_scheduler=record_scheduler,
        scheduler_format=scheduler_format,
    )


def _replay_rows(
    decisions: np.ndarray | CompressedDecisions, right: int
) -> Iterable[np.ndarray]:
    """Decision rows for backward indices ``i = right .. 1``.

    Backward step ``i`` reads logical row ``min(i - 1, steps - 1)``:
    steps beyond the recorded horizon reuse the last row.  For a
    :class:`CompressedDecisions` store this walks
    :meth:`~CompressedDecisions.iter_rows_reversed` -- each delta is
    decoded exactly once and the dense table is never materialised
    (for the backward-written stores of ``record_scheduler=True`` the
    reversed logical order *is* the physical order).
    """
    steps = len(decisions)
    if isinstance(decisions, CompressedDecisions):
        source = decisions.iter_rows_reversed()
        row = next(source)
        for _ in range(steps - right):
            row = next(source)  # recorded horizon longer: top rows unused
        for _ in range(max(0, right - steps)):
            yield row  # beyond the horizon: hold the last recorded row
        yield row
        for row in source:
            yield row
    else:
        for i in range(right, 0, -1):
            yield decisions[min(i - 1, steps - 1)]


def replay_step_scheduler(
    ctmdp: CTMDP,
    goal: Iterable[int] | np.ndarray,
    t: float,
    decisions: np.ndarray | CompressedDecisions,
    epsilon: float = 1e-6,
    safe: Iterable[int] | np.ndarray | None = None,
) -> ReachabilityResult:
    """Exact per-state value of a recorded step scheduler, certified.

    Replays the Poisson-weighted backward recursion of Algorithm 1 with
    the optimisation replaced by the *fixed* choices of ``decisions``
    (what a ``record_scheduler=True`` solve produces: row ``i - 1``
    holds the per-state transition index used at backward step ``i``).
    Steps beyond the recorded horizon reuse the last row and ``-1``
    entries (states without a recorded choice) fall back to the first
    transition, matching :class:`~repro.core.scheduler.StepScheduler`.
    With ``safe`` the replay computes the until value ``safe U^{<=t}
    goal`` under the fixed scheduler (states outside ``safe + goal``
    are blocked at zero), mirroring :func:`repro.core.until.timed_until`.

    Compressed stores are replayed *streaming* -- rows are decoded in
    the sweep's own backward order, so replay memory matches extraction
    memory.  The result carries ``objective="replay"`` (no optimisation
    happened) and a :class:`~repro.obs.NumericalCertificate` with
    algorithm ``"ctmdp.replay"``; induced-chain validation
    (:mod:`repro.policy.validate`) consumes both.
    """
    if t < 0.0:
        raise ModelError("time bound must be non-negative")
    prepared = PreparedTimedReachability(ctmdp, goal)
    blocked: np.ndarray | None = None
    if safe is not None:
        blocked = ~(_goal_mask(ctmdp, safe) | prepared.mask)
    if t == 0.0 or not prepared._ready:
        return ReachabilityResult(
            values=prepared.mask.astype(np.float64),
            iterations=0,
            uniform_rate=prepared.rate if prepared._ready else 0.0,
            time_bound=t,
            objective="replay",
            poisson=fox_glynn(0.0, min(epsilon, 0.5)),
            certificate=NumericalCertificate.trivial("ctmdp.replay", epsilon),
        )
    if not isinstance(decisions, CompressedDecisions):
        decisions = np.asarray(decisions)
        if decisions.ndim != 2 or decisions.shape[1] != ctmdp.num_states:
            raise ModelError(
                f"decisions must have shape (steps, {ctmdp.num_states}), "
                f"got {decisions.shape}"
            )
    elif decisions.num_states != ctmdp.num_states:
        raise ModelError(
            f"decisions cover {decisions.num_states} states, "
            f"model has {ctmdp.num_states}"
        )
    if len(decisions) == 0:
        raise ModelError("decisions must record at least one step")

    fg = fox_glynn(prepared.rate * t, epsilon)
    psi = fg.probabilities()
    segments = prepared.segments
    nonempty_states = np.flatnonzero(segments.nonempty)
    goal_idx = prepared.goal_idx
    prob = prepared.prob
    prob_to_goal = prepared.prob_to_goal

    q = np.zeros(ctmdp.num_states)
    rows_iter = iter(_replay_rows(decisions, fg.right))
    for i in range(fg.right, 0, -1):
        psi_i = psi[i - fg.left] if i >= fg.left else 0.0
        transition_values = psi_i * prob_to_goal + prob @ q
        decision_row = next(rows_iter)
        choice = np.clip(decision_row[nonempty_states], 0, segments.counts - 1)
        rows = segments.starts + choice
        new_q = np.zeros(ctmdp.num_states)
        new_q[segments.nonempty] = transition_values[rows]
        new_q[goal_idx] = psi_i + q[goal_idx]
        if blocked is not None:
            new_q[blocked] = 0.0
        q = new_q

    values = q.copy()
    values[goal_idx] = 1.0
    if blocked is not None:
        values[blocked] = 0.0
    residual = max(0.0, float(values.max()) - 1.0, -float(values.min()))
    np.clip(values, 0.0, 1.0, out=values)
    return ReachabilityResult(
        values=values,
        iterations=fg.right,
        uniform_rate=prepared.rate,
        time_bound=t,
        objective="replay",
        poisson=fg,
        certificate=certificate_from_foxglynn(
            fg, epsilon, "ctmdp.replay", sweep_residual=residual
        ),
    )


def unbounded_reachability(
    ctmdp: CTMDP,
    goal: Iterable[int] | np.ndarray,
    objective: str = "max",
    tol: float = 1e-12,
    max_iterations: int = 1_000_000,
    precompute: bool = False,
) -> np.ndarray:
    """(Time-)unbounded reachability probabilities via value iteration.

    The continuous-time dynamics are irrelevant for the event "``B`` is
    ever reached", so this is plain value iteration on the embedded
    DTMDP.  Used for sanity checks (timed probabilities must converge to
    these values as ``t`` grows) and as a general-purpose utility.

    With ``precompute=True`` both qualitative sets of the objective are
    clamped before iterating -- unlike the timed solvers, the *one* set
    is sound here (``Pmax = 1`` / ``Pmin = 1`` membership is exactly the
    unbounded value), which removes the slowest-converging states from
    the iteration entirely.
    """
    validate_objective(objective)
    mask = _goal_mask(ctmdp, goal)
    if not mask.any():
        return np.zeros(ctmdp.num_states)

    zero: np.ndarray | None = None
    one: np.ndarray | None = None
    if precompute:
        from repro.graph.qualitative import (
            prob0_exists,
            prob0_forall,
            prob1_exists,
            prob1_forall,
        )
        from repro.graph.structure import TransitionGraph

        graph = TransitionGraph.from_ctmdp(ctmdp)
        if objective == "max":
            zero = prob0_forall(graph, mask)
            one = prob1_exists(graph, mask)
        else:
            zero = np.asarray(prob0_exists(graph, mask))
            one = prob1_forall(graph, mask)

    prob = ctmdp.probability_matrix()
    segments = SegmentIndex.from_choice_ptr(ctmdp.choice_ptr)

    with sweep_span(
        "vi.sweep", objective=objective, states=ctmdp.num_states, kind="unbounded"
    ) as steps:
        record_steps = steps.enabled
        q = mask.astype(np.float64)
        if one is not None:
            q[one] = 1.0
        for _ in range(max_iterations):
            step_started = perf_counter() if record_steps else 0.0
            transition_values = prob @ q
            new_q = np.zeros(ctmdp.num_states)
            new_q[segments.nonempty] = segment_reduce(transition_values, segments, objective)
            new_q[mask] = 1.0
            if one is not None:
                new_q[one] = 1.0
            if zero is not None:
                new_q[zero] = 0.0
            if record_steps:
                steps.record(perf_counter() - step_started)
            if np.max(np.abs(new_q - q)) < tol:
                return new_q
            q = new_q
    return q


# ----------------------------------------------------------------------
# repro.core.until
# ----------------------------------------------------------------------
def timed_until(
    ctmdp: CTMDP,
    safe: Iterable[int] | np.ndarray,
    goal: Iterable[int] | np.ndarray,
    t: float,
    epsilon: float = 1e-6,
    objective: str = "max",
    record_scheduler: bool = False,
    scheduler_format: str = "compressed",
    precompute: bool = False,
) -> ReachabilityResult:
    """Optimal probability of ``safe U^{<=t} goal`` per state.

    Parameters
    ----------
    ctmdp:
        A uniform CTMDP.
    safe:
        The states that may be traversed (``A``); goal states need not
        be included.
    goal:
        The goal set (``B``).
    t:
        Time bound.
    epsilon:
        Poisson truncation error.
    objective:
        ``"max"`` or ``"min"`` over schedulers.
    record_scheduler:
        If true, record the optimising transition per state and step
        (the same shape Algorithm 1's reachability extraction produces;
        decisions at blocked states are recorded but irrelevant -- their
        value is pinned to zero whatever is chosen).
    scheduler_format:
        ``"compressed"`` (default) or ``"dense"``; see
        :func:`repro.core.reachability.timed_reachability`.
    precompute:
        If true, clamp the qualitative zero set of the until objective
        (blocked states included) and fold the goal states into a
        scalar recursion before iterating; see
        :func:`repro.core.reachability.timed_reachability`.

    Returns
    -------
    ReachabilityResult
        Per-state probabilities; goal states carry one, blocked states
        (neither safe nor goal) carry zero.
    """
    validate_objective(objective)
    _validate_scheduler_format(scheduler_format)
    if t < 0.0:
        raise ModelError("time bound must be non-negative")
    goal_mask = _goal_mask(ctmdp, goal)
    safe_mask = _goal_mask(ctmdp, safe)
    blocked = ~(safe_mask | goal_mask)

    if t == 0.0 or not goal_mask.any():
        # Trivially answerable: no time passes or nothing to reach.  The
        # answer does not depend on uniformity, so the rate is only
        # reported when the model actually is uniform -- querying a
        # degenerate property on a non-uniform model must not raise.
        values = goal_mask.astype(np.float64)
        dummy = fox_glynn(0.0, min(epsilon, 0.5))
        has_rate = bool(ctmdp.num_transitions) and ctmdp.is_uniform()
        return ReachabilityResult(
            values=values,
            iterations=0,
            uniform_rate=ctmdp.uniform_rate() if has_rate else 0.0,
            time_bound=t,
            objective=objective,
            poisson=dummy,
            certificate=NumericalCertificate.trivial("ctmdp.until", epsilon),
        )

    rate = ctmdp.uniform_rate()
    if rate <= 0.0:
        raise NonUniformError("uniform rate must be strictly positive for analysis")

    if precompute:
        from repro.graph.qualitative import prob0_exists, prob0_forall
        from repro.graph.structure import TransitionGraph

        graph = TransitionGraph.from_ctmdp(ctmdp)
        witness: np.ndarray | None = None
        if objective == "max":
            zero = prob0_forall(graph, goal_mask, safe=safe_mask)
        else:
            zero, witness = prob0_exists(
                graph, goal_mask, safe=safe_mask, with_witness=True
            )
        # Blocked states are in either zero set by construction, so the
        # clamped sweep needs no separate blocked pinning.
        prob_pre = ctmdp.probability_matrix()
        return _clamped_sweep(
            prob=prob_pre,
            prob_to_goal=prob_pre @ goal_mask.astype(np.float64),
            choice_ptr=np.asarray(ctmdp.choice_ptr),
            num_states=ctmdp.num_states,
            mask=goal_mask,
            zero=zero,
            witness=witness,
            rate=rate,
            t=t,
            epsilon=epsilon,
            objective=objective,
            record_scheduler=record_scheduler,
            scheduler_format=scheduler_format,
            span_name="until.sweep",
            algorithm="ctmdp.until",
        )

    fg = fox_glynn(rate * t, epsilon)
    psi = fg.probabilities()

    prob = ctmdp.probability_matrix()
    prob_to_goal = prob @ goal_mask.astype(np.float64)
    segments = SegmentIndex.from_choice_ptr(ctmdp.choice_ptr)

    goal_idx = np.flatnonzero(goal_mask)

    dense_decisions: np.ndarray | None = None
    writer: PolicyWriter | None = None
    decision_row: np.ndarray | None = None
    if record_scheduler:
        if scheduler_format == "dense":
            dense_decisions = np.full((fg.right, ctmdp.num_states), -1, dtype=np.int32)
        else:
            writer = PolicyWriter(num_states=ctmdp.num_states, reverse_rows=True)
            decision_row = np.full(ctmdp.num_states, -1, dtype=np.int32)

    with sweep_span(
        "until.sweep",
        t=t,
        objective=objective,
        states=ctmdp.num_states,
        iterations=fg.right,
        lam=rate * t,
    ) as steps:
        record_steps = steps.enabled
        q = np.zeros(ctmdp.num_states)
        for i in range(fg.right, 0, -1):
            step_started = perf_counter() if record_steps else 0.0
            psi_i = psi[i - fg.left] if i >= fg.left else 0.0
            transition_values = psi_i * prob_to_goal + prob @ q
            best = segment_reduce(transition_values, segments, objective)
            new_q = np.zeros(ctmdp.num_states)
            new_q[segments.nonempty] = best
            new_q[goal_idx] = psi_i + q[goal_idx]
            new_q[blocked] = 0.0  # entering a non-safe state loses the game
            if record_scheduler:
                argbest = segment_argbest(
                    transition_values, best, segments, objective
                ).astype(np.int32)
                if dense_decisions is not None:
                    dense_decisions[i - 1, segments.nonempty] = argbest
                else:
                    assert writer is not None and decision_row is not None
                    decision_row[segments.nonempty] = argbest
                    writer.append(decision_row)
            q = new_q
            if record_steps:
                steps.record(perf_counter() - step_started)

    decisions: np.ndarray | CompressedDecisions | None = dense_decisions
    if writer is not None:
        decisions = writer.finish()

    values = q.copy()
    values[goal_idx] = 1.0
    values[blocked] = 0.0
    residual = max(0.0, float(values.max()) - 1.0, -float(values.min()))
    np.clip(values, 0.0, 1.0, out=values)
    return ReachabilityResult(
        values=values,
        iterations=fg.right,
        uniform_rate=rate,
        time_bound=t,
        objective=objective,
        poisson=fg,
        decisions=decisions,
        certificate=certificate_from_foxglynn(
            fg, epsilon, "ctmdp.until", sweep_residual=residual
        ),
    )


# ----------------------------------------------------------------------
# repro.ctmc.reachability
# ----------------------------------------------------------------------
def ctmc_goal_mask(num_states: int, goal: Iterable[int]) -> np.ndarray:
    """Boolean mask over states from an iterable of goal-state indices."""
    mask = np.zeros(num_states, dtype=bool)
    for state in goal:
        if not 0 <= state < num_states:
            raise ModelError(f"goal state {state} out of range 0..{num_states - 1}")
        mask[state] = True
    return mask


class PreparedCTMCReachability:
    """Reusable setup for repeated CTMC timed-reachability solves.

    Making the goal absorbing and uniformizing the modified chain do not
    depend on the time bound; this class performs them once so a whole
    time sweep shares the setup.  :func:`timed_reachability` delegates
    here, keeping prepared and one-shot solves bitwise-identical.

    Each :meth:`solve` additionally issues a numerical-health
    certificate, readable as :attr:`last_certificate` (the return type
    stays a bare probability vector for backwards compatibility; the
    query engine picks the certificate up from here).
    """

    def __init__(
        self,
        ctmc: CTMC,
        goal: Iterable[int] | np.ndarray,
        rate: float | None = None,
    ) -> None:
        n = ctmc.num_states
        if isinstance(goal, np.ndarray) and goal.dtype == bool:
            mask = goal
        else:
            mask = ctmc_goal_mask(n, goal)
        if mask.shape != (n,):
            raise ModelError(f"goal mask must have shape ({n},)")
        self.ctmc = ctmc
        self.mask = mask
        self.num_states = n
        self._ready = False
        self.last_certificate: NumericalCertificate | None = None
        if not mask.any():
            return

        # Make goal states absorbing: zero their rows before uniformizing.
        rates = ctmc.rates.tolil(copy=True)
        for state in np.where(mask)[0]:
            rates.rows[state] = []
            rates.data[state] = []
        absorbed = CTMC(rates=sp.csr_matrix(rates), initial=ctmc.initial)

        self.p, self.e = uniformized_jump_matrix(absorbed, rate)
        goal_vec = mask.astype(np.float64)
        self.p_goal = self.p @ goal_vec
        self._ready = True

    def solve(self, t: float, epsilon: float = 1e-10) -> np.ndarray:
        """Reachability probabilities for one time bound, per state."""
        if t < 0.0:
            raise ModelError("time bound must be non-negative")
        if t == 0.0 or not self._ready:
            self.last_certificate = NumericalCertificate.trivial(
                "ctmc.reachability", epsilon
            )
            return self.mask.astype(np.float64)

        mask = self.mask
        p = self.p
        fg = fox_glynn(self.e * t, epsilon)
        psi = fg.probabilities()

        # q accumulates, backwards over i = right..1, the probability to be
        # absorbed in B within the remaining jumps (cf. Algorithm 1 without
        # the max over transitions).
        q = np.zeros(self.num_states)
        p_goal = self.p_goal
        for i in range(fg.right, 0, -1):
            psi_i = psi[i - fg.left] if i >= fg.left else 0.0
            q_next = q
            q = psi_i * p_goal + p @ q_next
            # Goal states accumulate the remaining Poisson mass and are never
            # left (their rows in p are pure self-loops, but the explicit
            # update keeps the recursion exact also at i = right).
            q[mask] = psi_i + q_next[mask]
        q[mask] = 1.0
        residual = max(0.0, float(q.max()) - 1.0, -float(q.min()))
        self.last_certificate = certificate_from_foxglynn(
            fg, epsilon, "ctmc.reachability", sweep_residual=residual
        )
        return np.clip(q, 0.0, 1.0)


# ----------------------------------------------------------------------
# repro.ctmc.until
# ----------------------------------------------------------------------
def ctmc_timed_until_with_certificate(
    ctmc: CTMC,
    safe: Iterable[int] | np.ndarray,
    goal: Iterable[int] | np.ndarray,
    t: float,
    epsilon: float = 1e-10,
) -> tuple[np.ndarray, NumericalCertificate | None]:
    """Like :func:`timed_until`, also returning the solve's certificate."""
    n = ctmc.num_states
    goal_arr = goal if isinstance(goal, np.ndarray) and goal.dtype == bool else ctmc_goal_mask(n, goal)
    safe_arr = safe if isinstance(safe, np.ndarray) and safe.dtype == bool else ctmc_goal_mask(n, safe)
    if goal_arr.shape != (n,) or safe_arr.shape != (n,):
        raise ModelError("safe/goal masks must cover the state space")
    blocked = ~(safe_arr | goal_arr)

    # Make blocked states absorbing, then run plain timed reachability.
    rates = ctmc.rates.tolil(copy=True)
    for state in np.flatnonzero(blocked):
        rates.rows[state] = []
        rates.data[state] = []
    pruned = CTMC(rates=sp.csr_matrix(rates), initial=ctmc.initial)
    solver = PreparedCTMCReachability(pruned, goal_arr)
    values = solver.solve(t, epsilon=epsilon)
    values[blocked] = 0.0
    return values, solver.last_certificate


# ----------------------------------------------------------------------
# repro.mdp.value_iteration
# ----------------------------------------------------------------------
def _mdp_mask(mdp: DTMDP, goal: Iterable[int] | np.ndarray) -> np.ndarray:
    if isinstance(goal, np.ndarray) and goal.dtype == bool:
        if goal.shape != (mdp.num_states,):
            raise ModelError("goal mask shape mismatch")
        return goal
    mask = np.zeros(mdp.num_states, dtype=bool)
    for g in goal:  # type: ignore[union-attr]
        mask[g] = True
    return mask


def mdp_bounded_reachability(
    mdp: DTMDP, goal: Iterable[int] | np.ndarray, steps: int, objective: str = "max"
) -> np.ndarray:
    """Optimal probability to reach ``goal`` within ``steps`` steps.

    States without actions are absorbing with value zero (unless they
    are goal states, which always carry value one).
    """
    validate_objective(objective)
    if steps < 0:
        raise ModelError("step bound must be non-negative")
    mask = _mdp_mask(mdp, goal)
    segments = SegmentIndex.from_choice_ptr(mdp.choice_ptr)

    with sweep_span(
        "vi.sweep", objective=objective, states=mdp.num_states,
        iterations=steps, kind="bounded",
    ) as recorder:
        record_steps = recorder.enabled
        q = mask.astype(np.float64)
        for _ in range(steps):
            step_started = perf_counter() if record_steps else 0.0
            values = mdp.probabilities @ q
            new_q = np.zeros(mdp.num_states)
            new_q[segments.nonempty] = segment_reduce(values, segments, objective)
            new_q[mask] = 1.0
            q = new_q
            if record_steps:
                recorder.record(perf_counter() - step_started)
    return q


def mdp_unbounded_reachability(
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
    mask = _mdp_mask(mdp, goal)
    segments = SegmentIndex.from_choice_ptr(mdp.choice_ptr)

    zero: np.ndarray | None = None
    one: np.ndarray | None = None
    if precompute:
        from repro.graph.qualitative import (
            prob0_exists,
            prob0_forall,
            prob1_exists,
            prob1_forall,
        )
        from repro.graph.structure import TransitionGraph

        graph = TransitionGraph.from_dtmdp(mdp)
        if objective == "max":
            zero = prob0_forall(graph, mask)
            one = prob1_exists(graph, mask)
        else:
            zero = np.asarray(prob0_exists(graph, mask))
            one = prob1_forall(graph, mask)

    with sweep_span(
        "vi.sweep", objective=objective, states=mdp.num_states, kind="unbounded"
    ) as recorder:
        record_steps = recorder.enabled
        q = mask.astype(np.float64)
        if one is not None:
            q[one] = 1.0
        for _ in range(max_iterations):
            step_started = perf_counter() if record_steps else 0.0
            values = mdp.probabilities @ q
            new_q = np.zeros(mdp.num_states)
            new_q[segments.nonempty] = segment_reduce(values, segments, objective)
            new_q[mask] = 1.0
            if one is not None:
                new_q[one] = 1.0
            if zero is not None:
                new_q[zero] = 0.0
            if record_steps:
                recorder.record(perf_counter() - step_started)
            if np.max(np.abs(new_q - q)) < tol:
                return new_q
            q = new_q
    return q


# ----------------------------------------------------------------------
# repro.mdp.model.DTMC.bounded_reachability
# ----------------------------------------------------------------------
def dtmc_bounded_reachability(chain: DTMC, goal: Iterable[int], steps: int) -> np.ndarray:
    """Probability, per state, to visit ``goal`` within ``steps`` steps."""
    mask = np.zeros(chain.num_states, dtype=bool)
    for g in goal:
        mask[g] = True
    q = mask.astype(np.float64)
    for _ in range(steps):
        q = chain.probabilities @ q
        q[mask] = 1.0
    return q
