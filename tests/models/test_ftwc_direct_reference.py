"""The integer-encoded FTWC generator against the dataclass reference.

The two generators number states differently (code order vs discovery
order); ``configs`` gives the permutation.  Under it every state must
carry the same labels in the same order, bitwise-equal rates per
target, the same goal flag and the same name.
"""

from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp

from repro.models import ftwc_direct
from repro.models.ftwc_direct import FTWCParameters
from tests.models import _ftwc_reference as reference

SIZES = (1, 2, 3, 4, 8)


def _thresholds(n):
    return sorted({n, max(1, 3 * n // 4), 1})


@lru_cache(maxsize=None)
def _reference_ctmdp(n, params=None, threshold=None):
    return reference.build_ctmdp(n, params, quality_threshold=threshold)


def _permutation(configs, reference_configs):
    """``perm[s]``: the reference state of the new model's state ``s``."""
    index = {config: state for state, config in enumerate(reference_configs)}
    assert len(index) == len(reference_configs) == len(configs)
    return np.array([index[config] for config in configs], dtype=np.int64)


def _relabelled(matrix, perm):
    """``matrix`` with column ``c`` renamed ``perm[c]``, indices sorted."""
    renamed = sp.csr_matrix(
        (matrix.data, perm[matrix.indices], matrix.indptr), shape=matrix.shape
    )
    renamed.sort_indices()
    return renamed


def _assert_same_rows(new, ref):
    assert np.array_equal(new.indptr, ref.indptr)
    assert np.array_equal(new.indices, ref.indices)
    assert np.array_equal(new.data.view(np.uint64), ref.data.view(np.uint64))


def assert_ctmdps_equivalent(model, ref):
    perm = _permutation(model.configs, ref.configs)
    new, old = model.ctmdp, ref.ctmdp
    assert new.initial == 0 and perm[0] == old.initial
    counts = np.diff(new.choice_ptr)
    assert np.array_equal(counts, np.diff(old.choice_ptr)[perm])
    # Reference row of each new row: same state, same position.
    ref_rows = np.concatenate(
        [np.arange(old.choice_ptr[p], old.choice_ptr[p + 1]) for p in perm]
    )
    assert new.labels == [old.labels[row] for row in ref_rows]
    _assert_same_rows(_relabelled(new.rate_matrix, perm), old.rate_matrix[ref_rows])
    assert np.array_equal(model.goal_mask, ref.goal_mask[perm])
    assert new.state_names == [old.state_names[p] for p in perm]


class TestCTMDP:
    @pytest.mark.parametrize("n", SIZES)
    def test_matches_reference(self, n):
        assert_ctmdps_equivalent(ftwc_direct.build_ctmdp(n), _reference_ctmdp(n))

    @pytest.mark.parametrize(
        "n, threshold", [(n, t) for n in SIZES for t in _thresholds(n)]
    )
    def test_quality_thresholds(self, n, threshold):
        assert_ctmdps_equivalent(
            ftwc_direct.build_ctmdp(n, quality_threshold=threshold),
            _reference_ctmdp(n, threshold=threshold),
        )

    @pytest.mark.parametrize("n", (2, 4))
    def test_switch_repair_sets_the_uniform_rate(self, n):
        params = FTWCParameters(n=n, sw_repair=3.0)
        assert params.mu_max == 3.0
        model = ftwc_direct.build_ctmdp(n, params)
        assert_ctmdps_equivalent(model, _reference_ctmdp(n, params))
        assert model.ctmdp.uniform_rate() == pytest.approx(ftwc_direct.uniform_rate(params))


class TestCTMC:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("gamma", (10.0, 100.0))
    def test_matches_reference(self, n, gamma):
        chain, configs, goal = ftwc_direct.build_ctmc(n, gamma=gamma)
        ref_chain, ref_configs, ref_goal = reference.build_ctmc(n, gamma=gamma)
        perm = _permutation(configs, ref_configs)
        assert chain.initial == 0 and perm[0] == ref_chain.initial
        _assert_same_rows(_relabelled(chain.rates, perm), ref_chain.rates[perm])
        assert np.array_equal(goal, ref_goal[perm])


class TestConfigurations:
    def test_lazy_sequence_decodes_every_state(self):
        model = ftwc_direct.build_ctmdp(3)
        configs = model.configs
        assert len(configs) == model.ctmdp.num_states
        assert configs[0] == ftwc_direct.Config(0, 0, False, False, False)
        assert configs[-1] == list(configs)[-1]
        assert list(configs[2:5]) == [configs[2], configs[3], configs[4]]
        assert [c.describe() for c in configs] == model.ctmdp.state_names

    def test_states_in_code_order_keep_the_initial_state_first(self):
        model = ftwc_direct.build_ctmdp(4)
        assert np.all(np.diff(model.configs.codes) > 0)
        assert model.ctmdp.initial == 0
        assert model.ctmdp.rate_matrix.has_sorted_indices
