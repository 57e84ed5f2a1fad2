"""Analytic cost model: selection, merged selection, join transfer sizes,
and the repartition-vs-broadcast crossover rule."""

import math

import pytest
from hypothesis import given, strategies as st

from sparqlsim import (
    TransferLedger, cost_brjoin, cost_pjoin, cost_selection,
    crossover_prefers_pjoin, trace_cost,
)
from sparqlsim.cost import (
    CostParams, DEFAULT_PARAMS, brjoin_broadcast_size, merged_scan_beneficial,
    pjoin_shuffle_size,
)
from sparqlsim.executor import ExecutionTrace, TraceEntry
from sparqlsim.terms import var

X, Y = var("x"), var("y")
ON = frozenset({X})
RANDOM = frozenset()        # the key of a randomly placed input


def test_cost_params_validation():
    params = CostParams(theta_acc=2.0, theta_comm=0.5)
    assert params.theta_acc == 2.0
    for weights in ((-1.0, 1.0), (math.nan, 1.0), (1.0, math.inf),
                    (-math.inf, 1.0), (math.nan, math.inf)):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            CostParams(*weights)
    assert DEFAULT_PARAMS.theta_acc == 1.0 == DEFAULT_PARAMS.theta_comm


def test_cost_selection_is_one_store_scan():
    est = cost_selection(1000, CostParams(theta_acc=2.0, theta_comm=9.0))
    assert est.access == 2000.0 and est.transfer == 0.0 and est.total == 2000.0


def test_cost_merged_selection_formula():
    # one pass over the store plus one pass over S per pattern: priced as a
    # selection over a store of size(D) + n * size(S) tuples
    entry = TraceEntry("merged-selection", (), TransferLedger(),
                       dataset_size=100_000, pattern_count=5, subset_size=1_000)
    params = CostParams(theta_acc=2.0, theta_comm=9.0)
    est = trace_cost(ExecutionTrace([entry]), 4, params)
    assert est == cost_selection(100_000 + 5 * 1_000, params)
    assert est.access == 2.0 * 105_000 and est.transfer == 0.0


def test_merged_scan_beneficial_rule():
    assert merged_scan_beneficial(100_000, 5, 1_000)
    assert not merged_scan_beneficial(100, 2, 100)      # S == D: no gain
    assert not merged_scan_beneficial(100, 1, 10)       # single pattern
    assert not merged_scan_beneficial(10, 2, 10)


@given(st.integers(0, 10**6), st.integers(1, 12), st.integers(0, 10**6))
def test_merged_scan_beneficial_matches_direct_comparison(d, n, s):
    s = min(s, d)       # the union subset cannot exceed the store
    direct = cost_selection(d + n * s).total < n * cost_selection(d).total
    assert merged_scan_beneficial(d, n, s) == (direct and n >= 2)


def test_pjoin_shuffle_size_counts_only_misaligned_inputs():
    inputs = [(100, frozenset({X})), (50, RANDOM), (25, frozenset({X, Y}))]
    assert pjoin_shuffle_size(inputs, ON) == 50 + 25
    est = cost_pjoin(inputs, ON)
    assert est.transfer == 75.0 and est.access == 0.0


def test_brjoin_broadcast_size_spares_only_the_target():
    inputs = [(100, RANDOM), (50, frozenset({X})), (10, RANDOM)]
    assert brjoin_broadcast_size(inputs, target_index=0, m=4) == 3 * (50 + 10)
    assert brjoin_broadcast_size(inputs, target_index=1, m=4) == 3 * (100 + 10)
    est = cost_brjoin(inputs, target_index=1, m=4,
                      params=CostParams(theta_comm=2.0))
    assert est.transfer == 660.0


def test_crossover_rule_examples():
    # repartition moves small+large = 40; broadcasting the small side moves
    # (m-1)*small = 10*(m-1): the tip-over sits at m = ratio + 2 = 5
    assert crossover_prefers_pjoin(10, 30, 5)        # tie -> repartition
    assert crossover_prefers_pjoin(10, 30, 6)        # broadcast got pricier
    assert not crossover_prefers_pjoin(10, 30, 4)    # broadcast is cheaper
    # equal sizes: tip-over at m = 3
    assert crossover_prefers_pjoin(10, 10, 3)
    assert not crossover_prefers_pjoin(10, 10, 2)
    # an empty side broadcasts for free
    assert not crossover_prefers_pjoin(0, 50, 2)
    assert not crossover_prefers_pjoin(0, 50, 64)
    # argument order does not matter
    assert crossover_prefers_pjoin(30, 10, 5) == crossover_prefers_pjoin(10, 30, 5)
    with pytest.raises(ValueError):
        crossover_prefers_pjoin(-1, 5, 4)


@given(st.integers(0, 10**5), st.integers(0, 10**5), st.integers(2, 64))
def test_crossover_matches_direct_cost_comparison(a, b, m):
    inputs = [(a, RANDOM), (b, RANDOM)]
    shuffle_cost = cost_pjoin(inputs, ON).transfer
    broadcast_cost = min(cost_brjoin(inputs, 0, m).transfer,
                         cost_brjoin(inputs, 1, m).transfer)
    prefers = crossover_prefers_pjoin(a, b, m)
    if shuffle_cost < broadcast_cost:
        assert prefers
    elif broadcast_cost < shuffle_cost:
        assert not prefers
    else:
        assert prefers == (min(a, b) > 0)   # ties keep the repartition plan
