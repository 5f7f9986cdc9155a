"""Tests for the compositional FTWC construction (Section 5)."""

import numpy as np
import pytest

from repro.bisim.compare import are_branching_bisimilar
from repro.core.reachability import timed_reachability
from repro.graph.structure import graph_of
from repro.models.ftwc import (
    build_compositional,
    build_system_imc,
    component_block,
    component_lts,
    premium_from_obs,
    repair_station,
)
from repro.models.ftwc_direct import FTWCParameters, build_ctmdp, uniform_rate


class TestComponents:
    def test_component_lts_is_uniform_lts(self):
        block = component_lts("wsL")
        assert block.imc.is_lts()
        assert block.imc.is_uniform()
        assert block.imc.uniform_rate() == 0.0

    def test_component_observation_marks_up_state(self):
        block = component_lts("swR")
        up = block.imc.state_names.index("swR:up")
        assert block.observations[up] == (0, 0, 0, 1, 0)
        for state in range(block.imc.num_states):
            if state != up:
                assert sum(block.observations[state]) == 0

    def test_repair_station_uniform_at_mu_max(self):
        station = repair_station(FTWCParameters(n=2))
        assert station.imc.is_uniform()
        assert station.imc.uniform_rate() == pytest.approx(2.0)

    def test_repair_station_grabs_every_kind(self):
        station = repair_station(FTWCParameters(n=1))
        grabs = {a for _s, a, _t in station.imc.interactive if a.startswith("g_")}
        assert grabs == {"g_wsL", "g_wsR", "g_swL", "g_swR", "g_bb"}

    def test_component_block_uniform_at_fail_rate(self):
        block = component_block("wsL", 0.002)
        assert block.imc.is_uniform()
        assert block.imc.uniform_rate() == pytest.approx(0.002)


class TestPremiumFromObs:
    def test_matches_direct_predicate(self):
        from repro.models.ftwc_direct import Config, premium

        n = 3
        for failed_left in range(n + 1):
            for failed_right in range(n + 1):
                for flags in range(8):
                    config = Config(
                        failed_left,
                        failed_right,
                        bool(flags & 1),
                        bool(flags & 2),
                        bool(flags & 4),
                    )
                    obs = (
                        n - failed_left,
                        n - failed_right,
                        0 if config.sw_left_down else 1,
                        0 if config.sw_right_down else 1,
                        0 if config.bb_down else 1,
                    )
                    assert premium_from_obs(obs, n) == premium(config, n)


class TestFullSystem:
    def test_system_uniform_rate_matches_formula(self):
        system = build_system_imc(1)
        expected = uniform_rate(FTWCParameters(n=1))
        assert system.imc.is_uniform(closed=True)
        assert system.imc.uniform_rate(closed=True) == pytest.approx(expected)

    def test_agrees_with_direct_generator_n1(self):
        comp = build_compositional(1)
        direct = build_ctmdp(1)
        for t in (10.0, 100.0, 1000.0):
            value_comp = timed_reachability(
                comp.ctmdp, comp.goal_mask, t, epsilon=1e-8
            ).value(comp.ctmdp.initial)
            value_direct = timed_reachability(
                direct.ctmdp, direct.goal_mask, t, epsilon=1e-8
            ).value(direct.ctmdp.initial)
            assert value_comp == pytest.approx(value_direct, rel=1e-6, abs=1e-12)

    def test_min_agrees_with_direct_generator_n1(self):
        comp = build_compositional(1)
        direct = build_ctmdp(1)
        t = 200.0
        value_comp = timed_reachability(
            comp.ctmdp, comp.goal_mask, t, epsilon=1e-8, objective="min"
        ).value(comp.ctmdp.initial)
        value_direct = timed_reachability(
            direct.ctmdp, direct.goal_mask, t, epsilon=1e-8, objective="min"
        ).value(direct.ctmdp.initial)
        assert value_comp == pytest.approx(value_direct, rel=1e-6, abs=1e-12)

    @pytest.mark.slow
    def test_agrees_with_direct_generator_n2(self):
        comp = build_compositional(2)
        direct = build_ctmdp(2)
        t = 100.0
        value_comp = timed_reachability(
            comp.ctmdp, comp.goal_mask, t, epsilon=1e-8
        ).value(comp.ctmdp.initial)
        value_direct = timed_reachability(
            direct.ctmdp, direct.goal_mask, t, epsilon=1e-8
        ).value(direct.ctmdp.initial)
        assert value_comp == pytest.approx(value_direct, rel=1e-6, abs=1e-12)

    def test_without_intermediate_minimisation_same_values(self):
        fat = build_compositional(1, minimize_intermediate=False)
        slim = build_compositional(1, minimize_intermediate=True)
        t = 100.0
        value_fat = timed_reachability(fat.ctmdp, fat.goal_mask, t, epsilon=1e-8).value(
            fat.ctmdp.initial
        )
        value_slim = timed_reachability(
            slim.ctmdp, slim.goal_mask, t, epsilon=1e-8
        ).value(slim.ctmdp.initial)
        assert value_fat == pytest.approx(value_slim, rel=1e-6, abs=1e-12)

    def test_ablation_quotients_differ_only_in_preempted_states(self):
        """Without intermediate minimisation the final quotient is larger
        (145 vs 94 states at N=1), yet it is not a finer bisimulation:
        under maximal progress both quotients reach the same 83 states,
        and their initial states are branching bisimilar.  The extra
        states are reachable only through Markov transitions that
        urgency preempts."""
        fat = build_system_imc(1, minimize_intermediate=False)
        slim = build_system_imc(1, minimize_intermediate=True)
        assert (fat.imc.num_states, slim.imc.num_states) == (145, 94)
        reachable = [int(graph_of(s.imc).reachable_from().sum()) for s in (fat, slim)]
        assert reachable == [83, 83]
        assert are_branching_bisimilar(
            fat.imc, slim.imc, fat.premium_flags, slim.premium_flags
        )

    def test_transform_statistics_populated(self):
        comp = build_compositional(1)
        stats = comp.transform.statistics
        assert stats.interactive_states == comp.ctmdp.num_states
        assert stats.markov_states > 0
        assert stats.transform_seconds > 0.0
