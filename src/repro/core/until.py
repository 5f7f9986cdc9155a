"""Time-bounded *until* for uniform CTMDPs.

The timed-reachability algorithm of [2] (Algorithm 1 of the paper)
extends directly from plain reachability ``diamond^{<=t} B`` to the CSL
until operator

    A  U^{<=t}  B   --  "reach B within t, staying inside A until then"

by treating states outside ``A + B`` as *blocked*: a path entering such
a state has violated the property, so its continuation value is pinned
to zero and never recovers.  With ``A = S`` this degenerates to
reachability, which is how the implementation is cross-checked.  The
solve is :class:`~repro.core.reachability.PreparedTimedReachability`
given the ``safe`` set, i.e. the shared sweep kernel with the blocked
states pinned.

This covers the paper's motivating property class ("timed safety and
liveness"): e.g. "the probability to hit a safety-critical configuration
within the mission time, without an operator intervention first, is at
most p".
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.ctmdp import CTMDP
from repro.core.reachability import ReachabilityResult, _solve

__all__ = ["timed_until"]


def timed_until(
    ctmdp: CTMDP,
    safe: Iterable[int] | np.ndarray,
    goal: Iterable[int] | np.ndarray,
    t: float,
    epsilon: float = 1e-6,
    objective: str = "max",
    record_scheduler: bool = False,
    precompute: bool = False,
) -> ReachabilityResult:
    """Optimal probability of ``safe U^{<=t} goal`` per state.

    Parameters
    ----------
    ctmdp:
        A uniform CTMDP (trivially answerable queries -- ``t = 0``,
        empty goal set -- are exempt, as for
        :func:`repro.core.reachability.timed_reachability`).
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
    return _solve(
        ctmdp, goal, safe, t, epsilon, objective, record_scheduler, precompute
    )
