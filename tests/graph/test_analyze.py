"""The one-call analysis pipeline behind ``repro analyze``."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.graph import analyze_model
from repro.io.tra import read_ctmdp_tra
from repro.models import ftwc_direct
from repro.obs import MetricStore

FIXTURES = Path(__file__).parents[1] / "fixtures"


class TestFTWC:
    def test_structural_summary(self):
        model = ftwc_direct.build_ctmdp(2)
        analysis = analyze_model(model.ctmdp, goal=model.goal_mask)
        assert analysis.kind == "ctmdp"
        assert analysis.num_states == 275
        assert analysis.num_reachable == 275
        assert int(analysis.deadlocks.sum()) == 0
        # The FTWC is one big communicating class: a single bottom SCC
        # that is also the unique (closed) MEC.
        assert analysis.scc.num_components == 1
        assert analysis.bottom_sccs == [0]
        assert len(analysis.mecs) == 1
        assert analysis.mecs[0].closed
        assert analysis.mecs[0].num_states == 275
        assert analysis.trap_mecs() == []
        assert analysis.qualitative is not None
        assert analysis.qualitative.counts()["prob1_forall"] == 275

    def test_as_dict_is_json_ready(self):
        model = ftwc_direct.build_ctmdp(1)
        analysis = analyze_model(model.ctmdp, goal=model.goal_mask)
        document = json.loads(json.dumps(analysis.as_dict()))
        assert document["kind"] == "ctmdp"
        assert document["states"] == analysis.num_states
        assert document["scc"]["count"] == 1
        assert document["mec"]["closed"] == 1
        assert document["qualitative"]["prob0_forall"] == 0
        assert document["trap_mecs"] == []

    def test_render_text_sections(self):
        model = ftwc_direct.build_ctmdp(1)
        text = analyze_model(model.ctmdp, goal=model.goal_mask).render_text()
        for fragment in ("model kind", "SCCs", "MECs", "qualitative", "trap MECs"):
            assert fragment in text

    def test_metrics_recorded(self):
        model = ftwc_direct.build_ctmdp(1)
        metrics = MetricStore()
        analyze_model(model.ctmdp, goal=model.goal_mask, metrics=metrics)
        assert metrics.counter("graph_analyses") == 1


class TestDefectFixture:
    def test_trap_mec_fixture(self):
        ctmdp = read_ctmdp_tra(FIXTURES / "defect_trap_mec.tra")
        goal = np.zeros(ctmdp.num_states, dtype=bool)
        goal[1] = True
        analysis = analyze_model(ctmdp, goal=goal)
        assert analysis.scc.num_components == 3
        assert len(analysis.closed_mecs()) == 2
        traps = analysis.trap_mecs()
        assert len(traps) == 1
        assert traps[0].states.tolist() == [2, 3]
        counts = analysis.qualitative.counts()
        assert counts == {
            "prob0_forall": 2,
            "prob0_exists": 2,
            "prob1_exists": 1,
            "prob1_forall": 1,
        }

    def test_goal_index_out_of_range_rejected(self):
        """A goal given as indices is range-checked: ``-1`` does not wrap
        around to the last state, ``num_states`` is no bare IndexError."""
        ctmdp = read_ctmdp_tra(FIXTURES / "defect_trap_mec.tra")
        for index in (-1, ctmdp.num_states):
            with pytest.raises(ValueError, match="out of range"):
                analyze_model(ctmdp, goal=[index])

    def test_without_goal_no_qualitative_block(self):
        ctmdp = read_ctmdp_tra(FIXTURES / "defect_trap_mec.tra")
        analysis = analyze_model(ctmdp)
        assert analysis.qualitative is None
        assert "qualitative" not in analysis.as_dict()
        assert analysis.trap_mecs() == []
