"""The station-first composition order against the station-last oracle.

:func:`repro.models.ftwc.build_system_imc` brings in one component kind
at a time, synchronising it with the repair station and hiding its
alphabet at once.  ``tests/models/_ftwc_compositional_reference.py``
keeps the original order (all blocks interleaved, then the station).
Both must give the same CTMDP up to a renumbering of states, and so
the same timed-reachability values within the solvers' certificates.
"""

import numpy as np
import pytest

from repro.core.reachability import PreparedTimedReachability
from repro.graph.structure import graph_of
from repro.imc.transform import imc_to_ctmdp
from repro.models.ftwc import build_compositional, build_system_imc
from repro.models.ftwc_direct import build_ctmdp
from tests.models import _ftwc_compositional_reference as reference

TIMES = (10.0, 100.0, 1000.0)
EPSILON = 1e-8


def analysed(system):
    """The CTMDP and goal mask of a closed system, as build_compositional does."""
    result = imc_to_ctmdp(system.imc, require_uniform=True)
    flags = system.premium_flags
    goal = result.goal_mask_from_predicate(lambda s: not flags[s], via="markov")
    return result.ctmdp, goal


def reachable_premium_counts(system):
    """(premium, non-premium) among the quotient states reachable from the start."""
    reachable = graph_of(system.imc).reachable_from()
    flags = np.asarray(system.premium_flags)[reachable]
    return int(flags.sum()), int((~flags).sum())


def assert_values_agree(left, right):
    """Pmax and Pmin at every t in TIMES, within the summed certificate bounds."""
    (ctmdp_l, goal_l), (ctmdp_r, goal_r) = left, right
    prepared_l = PreparedTimedReachability(ctmdp_l, goal_l)
    prepared_r = PreparedTimedReachability(ctmdp_r, goal_r)
    for t in TIMES:
        for objective in ("max", "min"):
            a = prepared_l.solve(t, EPSILON, objective)
            b = prepared_r.solve(t, EPSILON, objective)
            bound = a.certificate.error_bound + b.certificate.error_bound
            gap = abs(a.value(ctmdp_l.initial) - b.value(ctmdp_r.initial))
            assert gap <= bound, (t, objective, gap, bound)


def assert_orders_agree(n):
    station_first = build_system_imc(n)
    station_last = reference.build_system_imc(n)
    assert reachable_premium_counts(station_first) == reachable_premium_counts(
        station_last
    )
    new, old = analysed(station_first), analysed(station_last)
    assert new[0].num_states == old[0].num_states
    assert new[0].num_transitions == old[0].num_transitions
    assert int(new[1].sum()) == int(old[1].sum())
    assert_values_agree(new, old)


@pytest.mark.parametrize("n", (1, 2))
def test_station_first_matches_station_last(n):
    assert_orders_agree(n)


@pytest.mark.slow
def test_station_first_matches_station_last_n3():
    assert_orders_agree(3)


@pytest.fixture(scope="module")
def compositional4():
    return build_compositional(4)


def test_ctmdp_sizes(compositional4):
    """The CTMDP sizes quoted for the compositional route."""
    assert build_compositional(3).ctmdp.num_states == 814
    assert compositional4.ctmdp.num_states == 1334


def test_agrees_with_direct_generator_n4(compositional4):
    """N=4 was out of reach of the station-last order (~20 s)."""
    direct = build_ctmdp(4)
    assert_values_agree(
        (compositional4.ctmdp, compositional4.goal_mask), (direct.ctmdp, direct.goal_mask)
    )
