import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from budgetagents.reward import RewardConfig, compute_reward

DEFAULTS = RewardConfig()


def test_success_under_budget_earns_bonus():
    value = compute_reward(success=True, actual_cost=400.0, budget=500.0)
    assert value == pytest.approx(1.1, abs=1e-12)


def test_failure_under_budget_gets_no_bonus():
    value = compute_reward(success=False, actual_cost=400.0, budget=500.0)
    assert value == -1.0


def test_success_over_budget_penalized():
    value = compute_reward(success=True, actual_cost=600.0, budget=500.0)
    assert value == -1.0


def test_success_at_exact_budget():
    value = compute_reward(success=True, actual_cost=500.0, budget=500.0)
    assert value == 1.0


def test_nonpositive_budget_rejected():
    for budget, shown in ((0.0, "0.0"), (-5.0, "-5.0"), (-1.0, "-1.0"), (math.nan, "nan"), (math.inf, "inf")):
        with pytest.raises(ValueError, match=rf"^budget must be a finite number > 0, got {shown}$"):
            compute_reward(success=True, actual_cost=1.0, budget=budget)


def test_config_validation():
    with pytest.raises(ValueError):
        RewardConfig(c_overflow=0.0)
    with pytest.raises(ValueError):
        RewardConfig(bonus_slope=-0.1)
    with pytest.raises(ValueError):
        RewardConfig(w_perf=float("inf"))


@given(
    costs=st.tuples(
        st.floats(min_value=0.0, max_value=499.0),
        st.floats(min_value=0.0, max_value=499.0),
    )
)
def test_reward_strictly_decreasing_in_cost_on_success(costs):
    lo, hi = sorted(costs)
    if lo == hi:
        return
    budget = 500.0
    r_lo = compute_reward(success=True, actual_cost=lo, budget=budget)
    r_hi = compute_reward(success=True, actual_cost=hi, budget=budget)
    assert r_lo > r_hi


@given(cost=st.floats(min_value=0.0, max_value=1000.0), budget=st.floats(min_value=1.0, max_value=1000.0))
def test_failure_never_earns_cost_bonus(cost, budget):
    value = compute_reward(success=False, actual_cost=cost, budget=budget)
    if cost <= budget:
        assert value == -DEFAULTS.w_perf * DEFAULTS.c_fail
    else:
        assert value == -DEFAULTS.w_perf * DEFAULTS.c_fail - DEFAULTS.w_cost * DEFAULTS.c_overflow


def test_discontinuity_at_budget_crossing():
    budget = 500.0
    eps = 1e-9
    # Failed runs drop by exactly w_cost * c_overflow.
    below = compute_reward(success=False, actual_cost=budget, budget=budget)
    above = compute_reward(success=False, actual_cost=budget + eps, budget=budget)
    assert below - above == pytest.approx(DEFAULTS.w_cost * DEFAULTS.c_overflow)
    # Successful runs additionally lose the (vanishing) bonus.
    below = compute_reward(success=True, actual_cost=budget, budget=budget)
    above = compute_reward(success=True, actual_cost=budget + eps, budget=budget)
    assert below - above == pytest.approx(DEFAULTS.w_cost * DEFAULTS.c_overflow, abs=1e-8)


def test_custom_constants():
    config = RewardConfig(w_perf=2.0, w_cost=0.5, c_succ=3.0, c_fail=1.5, c_overflow=4.0, bonus_slope=1.0)
    assert compute_reward(True, 250.0, 500.0, config) == pytest.approx(2 * 3 + 0.5 * 0.5)
    assert compute_reward(False, 600.0, 500.0, config) == pytest.approx(2 * -1.5 + 0.5 * -4.0)


@pytest.mark.parametrize("cost", [-1.0, float("nan"), float("inf")])
def test_negative_or_nonfinite_cost_rejected(cost):
    with pytest.raises(ValueError, match="actual_cost must be finite and >= 0"):
        compute_reward(success=True, actual_cost=cost, budget=500.0)
