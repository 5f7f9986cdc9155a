"""Time-bounded until for CTMCs.

The standard CSL reduction: for ``A U^{<=t} B``, states outside
``A + B`` are made absorbing (a path entering one has already violated
the formula and must not accumulate goal probability later), goal states
are made absorbing as usual, and a transient analysis of the modified
chain evaluated on ``B`` gives the answer.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import scipy.sparse as sp

from repro.core.sweep import state_mask
from repro.ctmc.model import CTMC
from repro.ctmc.reachability import PreparedCTMCReachability
from repro.obs import NumericalCertificate

__all__ = ["timed_until", "timed_until_with_certificate"]


def timed_until_with_certificate(
    ctmc: CTMC,
    safe: Iterable[int] | np.ndarray,
    goal: Iterable[int] | np.ndarray,
    t: float,
    epsilon: float = 1e-10,
) -> tuple[np.ndarray, NumericalCertificate | None]:
    """Like :func:`timed_until`, also returning the solve's certificate."""
    n = ctmc.num_states
    goal_arr = state_mask(n, goal)
    safe_arr = state_mask(n, safe, "safe")
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


def timed_until(
    ctmc: CTMC,
    safe: Iterable[int] | np.ndarray,
    goal: Iterable[int] | np.ndarray,
    t: float,
    epsilon: float = 1e-10,
) -> np.ndarray:
    """Probability of ``safe U^{<=t} goal`` per state of a CTMC."""
    return timed_until_with_certificate(ctmc, safe, goal, t, epsilon=epsilon)[0]
