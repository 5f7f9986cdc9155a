"""Timed reachability in uniform CTMDPs (Algorithm 1 of the paper).

Computes, for every state ``s`` of a uniform CTMDP with rate ``E``, the
maximal (or minimal) probability

    sup_D Pr_D(s, diamond^{<= t} B)

to reach the goal set ``B`` within ``t`` time units, ranging over all
randomized time-abstract history-dependent schedulers.  This is the
algorithm of Baier, Haverkort, Hermanns and Katoen (TCS 345(1), 2005),
in the mild variation of the paper that ranges over all emanating
*transitions* of a state rather than all actions (several transitions
may share an action label after the uIMC transformation).

The recursion runs backwards over the Poisson-truncated step horizon
``k = k(epsilon, E, t)`` (the Fox-Glynn right truncation point):

    q_{k+1}(s) = 0
    q_i(s)     = max over (s, a, R) of
                   psi(i) * Pr_R(s, B) + sum_{s'} Pr_R(s, s') * q_{i+1}(s')
                                                      for s not in B,
    q_i(s)     = psi(i) + q_{i+1}(s)                  for s in B,

and finally ``q(s) = q_1(s)`` for ``s`` outside ``B`` and ``1`` inside.
The greedy per-step maximisation is optimal precisely because the model
is uniform -- the number of jumps within ``t`` is Poisson distributed
independently of the scheduler -- which is the reason the whole
"uniformity by construction" trajectory exists.

Implementation notes (cf. Section 4.2): the rate matrix is stored as a
``T x S`` sparse matrix with one row per transition; one backward step
is a sparse matrix-vector product followed by a segmented optimum over
each state's contiguous block of transition rows.  Only the rows of
the states outside ``B`` (and, for until, outside the blocked set) are
evaluated: the goal states' values are the Poisson tail whatever their
rows say.  The loop itself is the shared kernel
:func:`repro.core.sweep.poisson_sweep`; this module prepares its inputs
(plain, until, precomputed and replay) and packages its output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.core.ctmdp import CTMDP
from repro.core.segments import SegmentIndex, validate_objective
from repro.core.sweep import (
    DecisionRecorder,
    LiveRows,
    Optimise,
    Replay,
    finish_sweep,
    poisson_sweep,
    state_mask,
    state_rows,
    value_iteration,
)
from repro.errors import ModelError, NonUniformError
from repro.numerics.foxglynn import FoxGlynn, fox_glynn
from repro.obs import NumericalCertificate

# The compressed decision store depends on numpy only (never on the core
# solvers), so importing it here cannot cycle; the rest of repro.policy
# *does* import this module and stays behind lazy attributes.
from repro.policy.store import CompressedDecisions

__all__ = [
    "ReachabilityResult",
    "PreparedTimedReachability",
    "timed_reachability",
    "unbounded_reachability",
    "replay_step_scheduler",
]


@dataclass
class ReachabilityResult:
    """Outcome of a timed-reachability analysis.

    Attributes
    ----------
    values:
        Per-state probabilities; goal states carry probability one.
    iterations:
        Number of backward steps ``k`` (the paper's "# Iterations").
    uniform_rate:
        The uniform rate ``E`` of the analysed model, or ``0.0`` for a
        trivially answerable query (``t = 0`` or an empty goal set) on
        a model that is not uniform.
    time_bound:
        The analysed time bound ``t``.
    objective:
        ``"max"`` or ``"min"``.
    poisson:
        The Fox-Glynn data used for the Poisson weights.
    decisions:
        Optional step-indexed optimal scheduler: ``decisions[i - 1][s]``
        is the index (within ``transitions_of(s)``) chosen at step ``i``,
        or ``-1`` where no choice exists.  Only recorded on request, as
        a :class:`~repro.policy.store.CompressedDecisions` store
        (row-indexable like a dense array; ``.dense()`` materialises it).
    certificate:
        The numerical-health certificate of this solve: truncation
        accounting, sweep residual and the certified a-posteriori error
        bound (see :mod:`repro.obs.certificate`).
    states_eliminated:
        Number of states the qualitative precomputation removed from
        the numeric sweep (known-zero states clamped, goal states folded
        into a scalar recursion).  Zero without ``precompute=True``.
    """

    values: np.ndarray
    iterations: int
    uniform_rate: float
    time_bound: float
    objective: str
    poisson: FoxGlynn
    decisions: CompressedDecisions | None = None
    certificate: NumericalCertificate | None = None
    states_eliminated: int = 0

    def value(self, state: int) -> float:
        """Probability from ``state``."""
        return float(self.values[state])


def _names(until: bool) -> tuple[str, str]:
    """Certificate algorithm and sweep span of a reachability/until solve."""
    if until:
        return "ctmdp.until", "until.sweep"
    return "ctmdp.reachability", "reachability.sweep"


def _trivial_result(
    ctmdp: CTMDP,
    mask: np.ndarray,
    t: float,
    epsilon: float,
    objective: str,
    algorithm: str,
) -> ReachabilityResult | None:
    """The answer to a trivially answerable query, else ``None``.

    With ``t = 0`` or an empty goal set the answer is the goal
    indicator whatever the dynamics, so uniformity is irrelevant: every
    front end asks here *before* preparing (which requires a uniform
    model), and the rate is reported only when the model is uniform.
    """
    if t < 0.0:
        raise ModelError("time bound must be non-negative")
    if t != 0.0 and mask.any():
        return None
    uniform = ctmdp.num_transitions > 0 and ctmdp.is_uniform()
    return ReachabilityResult(
        values=mask.astype(np.float64),
        iterations=0,
        uniform_rate=ctmdp.uniform_rate() if uniform else 0.0,
        time_bound=t,
        objective=objective,
        poisson=fox_glynn(0.0, min(epsilon, 0.5)),
        certificate=NumericalCertificate.trivial(algorithm, epsilon),
    )


class PreparedTimedReachability:
    """Reusable setup for repeated timed-reachability solves on one model.

    The expensive, time-bound-independent part of Algorithm 1 -- the
    row-stochastic ``T x S`` probability matrix, the per-transition
    goal-hitting probabilities, the segment bookkeeping for the
    per-state optimisation and the restriction of all three to the
    rows the sweep keeps (:class:`~repro.core.sweep.LiveRows`) -- is
    computed once in the constructor; each :meth:`solve` call then only
    performs the Fox-Glynn computation for its own ``(t, epsilon)`` and
    the backward iteration.  A whole time
    sweep over one ``(model, goal)`` pair therefore shares a single
    setup, which is what the batched query engine exploits.

    :func:`timed_reachability` delegates to this class, so prepared and
    one-shot solves are bitwise-identical.  With ``safe`` it answers the
    until query ``safe U^{<=t} goal`` instead (see
    :func:`repro.core.until.timed_until`): states neither safe nor goal
    are blocked at zero.

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
        safe: Iterable[int] | np.ndarray | None = None,
    ) -> None:
        self.ctmdp = ctmdp
        self.num_states = ctmdp.num_states
        self.mask = state_mask(self.num_states, goal)
        self.safe = None if safe is None else state_mask(self.num_states, safe, "safe")
        self.blocked: np.ndarray | None = None
        if self.safe is not None:
            blocked = ~(self.safe | self.mask)
            self.blocked = blocked if blocked.any() else None
        self.algorithm, self._span = _names(until=safe is not None)
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
        # Only the unpinned states' rows feed a value the sweep keeps.
        pinned = self.mask if self.blocked is None else self.mask | self.blocked
        self.live = self._live_rows(~pinned)
        self._ready = True

    def _live_rows(self, live: np.ndarray) -> LiveRows:
        return LiveRows.build(
            self.prob,
            self.prob_to_goal,
            self.ctmdp.choice_ptr,
            live,
            self.mask,
            self.blocked,
        )

    def _zero_info(self, objective: str) -> tuple[np.ndarray, np.ndarray | None]:
        """The known-zero states of ``objective`` (cached per objective).

        For ``max`` these are the Prob0A states (no path to the goal at
        all); for ``min`` the Prob0E states, together with the witness
        choice (per state, the local index of a transition whose whole
        support stays inside the zero region) that a recorded scheduler
        must carry so that replaying it reproduces the zero.  Blocked
        until-states lie in either set by construction.
        """
        cached = self._zero_cache.get(objective)
        if cached is not None:
            return cached
        from repro.graph.qualitative import prob0_exists, prob0_forall
        from repro.graph.structure import TransitionGraph

        graph = TransitionGraph.from_ctmdp(self.ctmdp)
        if objective == "max":
            info: tuple[np.ndarray, np.ndarray | None] = (
                prob0_forall(graph, self.mask, safe=self.safe),
                None,
            )
        else:
            zero, witness = prob0_exists(
                graph, self.mask, safe=self.safe, with_witness=True
            )
            info = (zero, witness)
        self._zero_cache[objective] = info
        return info

    def solve(
        self,
        t: float,
        epsilon: float = 1e-6,
        objective: str = "max",
        record_scheduler: bool = False,
    ) -> ReachabilityResult:
        """Solve one time bound against the prepared model/goal pair.

        With ``record_scheduler`` the optimal step scheduler is recorded
        as the sweep runs, streamed row by row into a run-length/delta
        store, so the dense ``iterations x states`` matrix is never
        materialised.
        """
        validate_objective(objective)
        trivial = _trivial_result(
            self.ctmdp, self.mask, t, epsilon, objective, self.algorithm
        )
        if trivial is not None:
            return trivial

        fg = fox_glynn(self.rate * t, epsilon)
        if self.precompute:
            values, certificate, decisions = self._sweep_undecided(
                fg, epsilon, t, objective, record_scheduler
            )
        else:
            rows, recorder = self.live, None
            if record_scheduler:
                # The recorder writes a choice for every nonempty state,
                # goal states included: sweep every row.
                rows = self._live_rows(np.ones(self.num_states, dtype=bool))
                recorder = DecisionRecorder(
                    np.full(self.num_states, -1, dtype=np.int32),
                    rows.states[rows.segments.nonempty],
                )
            values, certificate = poisson_sweep(
                rows,
                fg,
                epsilon,
                algorithm=self.algorithm,
                span=self._span,
                select=Optimise(rows.segments, objective, recorder),
                t=t,
                objective=objective,
                states=self.num_states,
                transitions=self.ctmdp.num_transitions,
                lam=self.rate * t,
            )
            decisions = None if recorder is None else recorder.finish()

        return ReachabilityResult(
            values=values,
            iterations=fg.right,
            uniform_rate=self.rate,
            time_bound=t,
            objective=objective,
            poisson=fg,
            decisions=decisions,
            certificate=certificate,
            states_eliminated=certificate.states_eliminated,
        )

    def _sweep_undecided(
        self,
        fg: FoxGlynn,
        epsilon: float,
        t: float,
        objective: str,
        record_scheduler: bool,
    ) -> tuple[np.ndarray, NumericalCertificate, CompressedDecisions | None]:
        """The ``precompute=True`` sweep over the undecided states only.

        Three state classes leave the numeric sweep:

        * ``zero`` states (the Prob0 set of the requested objective,
          including blocked until-states) are clamped to 0 -- sound for
          the *timed* objective because membership means the timed
          probability is exactly 0 for every horizon;
        * goal states follow the scalar recursion ``g_i = psi_i +
          g_{i+1}`` shared by all of them, so their matrix rows and
          columns fold into ``(psi_i + g_{i+1}) * prob_to_goal``;
        * only the remaining *active* states are iterated, over the
          reduced ``active-rows x active-states`` sub-matrix.

        Recorded schedulers stay replayable: clamped min-states carry
        their zero-witness choice (a transition whose support stays
        inside the zero region), so the induced-chain validation
        reproduces the zero.
        """
        num_states = self.num_states
        zero, witness = self._zero_info(objective)
        active = ~self.mask & ~zero
        active_idx = np.flatnonzero(active)

        # Decision template for the eliminated states: min-zero states get
        # their witness transition, everything else the -1 "no choice"
        # marker (any choice of a max-zero state yields 0, goal states are
        # pinned by every replay).
        template = np.full(num_states, -1, dtype=np.int32)
        if witness is not None:
            chosen = witness >= 0
            template[chosen] = witness[chosen].astype(np.int32)

        active_rows, segments = state_rows(self.ctmdp.choice_ptr, active)
        rows = LiveRows(
            prob=self.prob[active_rows][:, active_idx].tocsr(),
            prob_to_goal=self.prob_to_goal[active_rows],
            segments=segments,
            states=active_idx,
            goal_pos=np.empty(0, dtype=np.intp),
            zero_pos=None,
            goal_idx=self.goal_idx,
            num_states=num_states,
            fold_goal=True,
        )
        recorder = None
        if record_scheduler:
            recorder = DecisionRecorder(template, active_idx[segments.nonempty])

        if len(active_idx) == 0:
            # Every state is decided; only the constant decisions remain.
            if recorder is not None:
                for _ in range(fg.right):
                    recorder(active_idx)  # nothing to choose: the template row
            values, certificate = finish_sweep(
                np.empty(0),
                float(np.sum(fg.probabilities())),
                fg,
                epsilon,
                rows,
                algorithm=self.algorithm,
            )
        else:
            values, certificate = poisson_sweep(
                rows,
                fg,
                epsilon,
                algorithm=self.algorithm,
                span=self._span,
                select=Optimise(segments, objective, recorder),
                t=t,
                objective=objective,
                states=num_states,
                active=len(active_idx),
                lam=self.rate * t,
                precompute=True,
            )
        return values, certificate, None if recorder is None else recorder.finish()


def _solve(
    ctmdp: CTMDP,
    goal: Iterable[int] | np.ndarray,
    safe: Iterable[int] | np.ndarray | None,
    t: float,
    epsilon: float,
    objective: str,
    record_scheduler: bool,
    precompute: bool,
) -> ReachabilityResult:
    """The one-shot front end of timed reachability and timed until."""
    validate_objective(objective)
    mask = state_mask(ctmdp.num_states, goal)
    if safe is not None:
        safe = state_mask(ctmdp.num_states, safe, "safe")
    algorithm = _names(until=safe is not None)[0]
    trivial = _trivial_result(ctmdp, mask, t, epsilon, objective, algorithm)
    if trivial is not None:
        return trivial
    prepared = PreparedTimedReachability(ctmdp, mask, precompute=precompute, safe=safe)
    return prepared.solve(
        t, epsilon=epsilon, objective=objective, record_scheduler=record_scheduler
    )


def timed_reachability(
    ctmdp: CTMDP,
    goal: Iterable[int] | np.ndarray,
    t: float,
    epsilon: float = 1e-6,
    objective: str = "max",
    record_scheduler: bool = False,
    precompute: bool = False,
) -> ReachabilityResult:
    """Run Algorithm 1 on a uniform CTMDP.

    Parameters
    ----------
    ctmdp:
        The model; must be uniform (:class:`~repro.errors.NonUniformError`
        otherwise -- the greedy recursion is unsound on non-uniform
        models).  Trivially-answerable queries (``t = 0``, empty goal
        set) are exempt: uniformity is irrelevant to their answer.
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
        If true, record the optimising transition per state and step,
        streamed into a :class:`~repro.policy.store.CompressedDecisions`
        store during the sweep.
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
    return _solve(
        ctmdp, goal, None, t, epsilon, objective, record_scheduler, precompute
    )


def _replay_rows(
    decisions: np.ndarray | CompressedDecisions, right: int
) -> Iterator[np.ndarray]:
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

    This is the analytic counterpart of simulating the scheduler: if
    ``decisions`` came from an optimal solve with the same ``epsilon``,
    the replayed values reproduce the optimal values within the two
    certified bounds.  Compressed stores are replayed *streaming* --
    rows are decoded in the sweep's own backward order, so replay
    memory matches extraction memory.  The result carries
    ``objective="replay"`` (no optimisation happened) and a
    :class:`~repro.obs.NumericalCertificate` with algorithm
    ``"ctmdp.replay"``; induced-chain validation
    (:mod:`repro.policy.validate`) consumes both.
    """
    mask = state_mask(ctmdp.num_states, goal)
    if safe is not None:
        safe = state_mask(ctmdp.num_states, safe, "safe")
    trivial = _trivial_result(ctmdp, mask, t, epsilon, "replay", "ctmdp.replay")
    if trivial is not None:
        return trivial
    prepared = PreparedTimedReachability(ctmdp, mask, safe=safe)
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
    rows = prepared.live
    values, certificate = poisson_sweep(
        rows,
        fg,
        epsilon,
        algorithm="ctmdp.replay",
        span="replay.sweep",
        select=Replay(rows.segments, _replay_rows(decisions, fg.right), rows.states),
        t=t,
        states=ctmdp.num_states,
        lam=prepared.rate * t,
    )
    return ReachabilityResult(
        values=values,
        iterations=fg.right,
        uniform_rate=prepared.rate,
        time_bound=t,
        objective="replay",
        poisson=fg,
        certificate=certificate,
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
    mask = state_mask(ctmdp.num_states, goal)
    if not mask.any():
        return np.zeros(ctmdp.num_states)

    zero = one = None
    if precompute:
        from repro.graph.qualitative import unbounded_clamps

        zero, one = unbounded_clamps(ctmdp, mask, objective)

    return value_iteration(
        ctmdp.probability_matrix(),
        mask,
        max_iterations,
        segments=SegmentIndex.from_choice_ptr(ctmdp.choice_ptr),
        objective=objective,
        tol=tol,
        zero=zero,
        one=one,
    )
