"""Benchmark: the compositional route (Section 5 "Technicalities").

The paper builds the FTWC compositionally with CADP up to N=14 (with a
5e6-state intermediate space) and reports that composition plus
minimisation dominates the cost.  This benchmark exercises our pure-
Python version of that trajectory -- elapse constraints, parallel
composition, hiding, stochastic branching bisimulation minimisation,
strictly-alternating transformation -- for the sizes Python handles
comfortably, and verifies the headline agreement with the direct
generator.
"""

import pytest

from repro.core.reachability import timed_reachability
from repro.models.ftwc import build_compositional, build_system_imc
from repro.models.ftwc_direct import build_ctmdp


@pytest.mark.parametrize("n", (1, 2))
def test_compositional_build(benchmark, n):
    system = benchmark.pedantic(
        build_compositional, args=(n,), rounds=1, iterations=1
    )
    assert system.ctmdp.is_uniform(tol=1e-6)
    benchmark.extra_info["ctmdp_states"] = system.ctmdp.num_states
    benchmark.extra_info["ctmdp_transitions"] = system.ctmdp.num_transitions

    direct = build_ctmdp(n)
    value_comp = timed_reachability(
        system.ctmdp, system.goal_mask, 100.0, epsilon=1e-8
    ).value(system.ctmdp.initial)
    value_direct = timed_reachability(
        direct.ctmdp, direct.goal_mask, 100.0, epsilon=1e-8
    ).value(direct.ctmdp.initial)
    assert value_comp == pytest.approx(value_direct, rel=1e-6)
    benchmark.extra_info["p_100h"] = value_comp


def test_minimisation_ablation(benchmark):
    """Without intermediate minimisation the intermediate state spaces
    are larger and so is the final quotient, by states reachable only
    through Markov transitions that urgency preempts (the reachable
    parts have equal size, see tests/models/test_ftwc.py); the CTMDPs
    and the analysis results agree exactly."""

    def build_fat():
        return build_compositional(1, minimize_intermediate=False)

    fat = benchmark.pedantic(build_fat, rounds=1, iterations=1)
    slim = build_compositional(1, minimize_intermediate=True)
    assert fat.ctmdp.num_states >= slim.ctmdp.num_states
    value_fat = timed_reachability(fat.ctmdp, fat.goal_mask, 100.0, epsilon=1e-8).value(
        fat.ctmdp.initial
    )
    value_slim = timed_reachability(
        slim.ctmdp, slim.goal_mask, 100.0, epsilon=1e-8
    ).value(slim.ctmdp.initial)
    assert value_fat == pytest.approx(value_slim, rel=1e-6)
    benchmark.extra_info["states_without_intermediate_min"] = fat.ctmdp.num_states
    benchmark.extra_info["states_with_intermediate_min"] = slim.ctmdp.num_states
