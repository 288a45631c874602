import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from budgetagents.provision import ProvisionProblem, _affordable, _max_units, compute_weights, solve

from oracle import brute_force_solve

TWO_TIER = (1235.0, 250.0)


# -- decision weights ---------------------------------------------------------


def test_weights_single_tier():
    problem = ProvisionProblem(budget=100.0, tier_costs=(50.0,))
    assert compute_weights(problem) == (1,)


def test_weights_two_tier_hand_derived():
    problem = ProvisionProblem(budget=2000.0, tier_costs=TWO_TIER)
    assert compute_weights(problem) == (9, 1)


def test_weights_three_tier_hand_derived():
    problem = ProvisionProblem(budget=1000.0, tier_costs=(500.0, 200.0, 100.0))
    assert compute_weights(problem) == (66, 11, 1)


@given(
    budget=st.floats(min_value=100.0, max_value=1e4),
    costs=st.lists(st.floats(min_value=10.0, max_value=2000.0), min_size=1, max_size=5),
)
def test_weights_recursion_holds_exactly(budget, costs):
    problem = ProvisionProblem(budget=budget, tier_costs=tuple(costs))
    weights = compute_weights(problem)
    num_tiers = len(costs)
    assert weights[-1] == 1
    for i in range(num_tiers - 1):
        expected = 1 + sum(
            weights[j] * int(Fraction(budget) / Fraction(float(costs[j])))
            for j in range(i + 1, num_tiers)
        )
        assert weights[i] == expected


# Every positive finite float, subnormals included.
POSITIVE = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)


def _near_multiple(cost, k, ulps):
    """k * cost, moved by `ulps` steps to the next float up or down."""
    value = k * cost
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.inf if ulps > 0 else 0.0)
    return value


@given(budget=POSITIVE, cost=POSITIVE)
def test_affordable_is_the_exact_floor(budget, cost):
    assert _affordable(budget, cost) == int(Fraction(budget) / Fraction(cost))


@given(cost=POSITIVE, k=st.integers(0, 2**20), ulps=st.integers(-1, 1))
def test_affordable_is_exact_next_to_a_multiple_of_the_cost(cost, k, ulps):
    budget = _near_multiple(cost, k, ulps)
    assume(0.0 < budget < math.inf)
    assert _affordable(budget, cost) == int(Fraction(budget) / Fraction(cost))


@given(budget=POSITIVE, cost=POSITIVE)
def test_float_floor_division_is_exact_below_2_50(budget, cost):
    # Why _max_units may start from `//`; its loops correct the start anyway.
    exact = int(Fraction(budget) / Fraction(cost))
    assume(exact < 2**50)
    assert int(budget // cost) == exact


@pytest.mark.parametrize(
    "budget, cost",
    [(270089915.7977356, 3.723291857558031e-08), (1e300, 1e-300)],
    ids=["rounded_near_2_52", "past_the_float_range"],
)
def test_affordable_is_exact_where_float_floor_division_is_not(budget, cost):
    # `//` gives 7254062429983062.0 (one too many) and inf for these.
    assert budget // cost != int(Fraction(budget) / Fraction(cost))
    assert _affordable(budget, cost) == int(Fraction(budget) / Fraction(cost))


@given(
    cost=st.floats(min_value=1e-3, max_value=1e4),
    k=st.integers(0, 60),
    ulps=st.integers(-1, 1),
    spent=st.floats(min_value=0.0, max_value=1e4),
    cap=st.integers(1, 50),
)
def test_max_units_is_the_largest_count_the_float_sum_affords(cost, k, ulps, spent, cap):
    budget = spent + _near_multiple(cost, k, ulps)
    n = _max_units(spent, cost, cap, budget)
    assert 0 <= n <= cap
    assert n == 0 or spent + n * cost <= budget
    assert n == cap or spent + (n + 1) * cost > budget


@given(
    budget=st.floats(min_value=100.0, max_value=1e4),
    costs=st.lists(st.floats(min_value=10.0, max_value=2000.0), min_size=2, max_size=5),
)
def test_weights_strictly_decreasing_when_tiers_affordable(budget, costs):
    if any(budget < c for c in costs):
        return  # strict decrease only guaranteed when every tier fits at least once
    problem = ProvisionProblem(budget=budget, tier_costs=tuple(costs))
    weights = compute_weights(problem)
    assert all(a > b for a, b in zip(weights, weights[1:]))


# -- solve / brute force ------------------------------------------------------


def test_solve_two_tier_budget_2000():
    problem = ProvisionProblem(budget=2000.0, tier_costs=TWO_TIER, instance_cap=5, min_agents=2)
    solution = solve(problem)
    assert solution.feasible
    assert solution.counts == (1, 3)
    assert solution.total_cost == pytest.approx(1985.0)
    assert solution.total_weight == 12


def test_solve_two_tier_budget_500():
    solution = solve(ProvisionProblem(budget=500.0, tier_costs=TWO_TIER))
    assert solution.counts == (0, 2)
    assert solution.total_cost == pytest.approx(500.0)
    assert solution.total_weight == 2


def test_solve_infeasible():
    solution = solve(ProvisionProblem(budget=300.0, tier_costs=TWO_TIER))
    assert not solution.feasible
    assert solution.reason is not None and "2" in solution.reason


def test_brute_force_matches_on_spec_cases():
    problems = [ProvisionProblem(budget=b, tier_costs=TWO_TIER) for b in (2000.0, 500.0, 300.0)]
    problems += [
        # 5 * 0.4 == 2.0 in float, but the exact floor of 2.0 / 0.4 is 4: the
        # weights of (1, 0, 0) and (0, 5, 0) tie at 50.
        ProvisionProblem(budget=2.0, tier_costs=(2.0, 0.4, 0.2), min_agents=0),
        # Float sums depend on order, so a cheapest-first fill dead-ends here.
        ProvisionProblem(
            budget=2.0,
            tier_costs=(
                2.0, 1.2000000000000002, 0.7000000000000001,
                0.44999999999999996, 0.15000000000000002, 0.1,
            ),
            instance_cap=2,
            min_agents=5,
        ),
    ]
    for problem in problems:
        assert brute_force_solve(problem) == solve(problem)
    assert solve(problems[3]).counts == (1, 0, 0)
    assert solve(problems[4]).counts == (0, 1, 0, 0, 2, 2)


def test_brute_force_single_tier_cap():
    problem = ProvisionProblem(budget=500.0, tier_costs=(50.0,), instance_cap=5, min_agents=2)
    assert brute_force_solve(problem).counts == (5,)


def test_brute_force_exactly_two_affordable():
    problem = ProvisionProblem(budget=210.0, tier_costs=(500.0, 100.0), min_agents=2)
    solution = brute_force_solve(problem)
    assert solution.counts == (0, 2)
    assert solution == solve(problem)


def test_brute_force_guards():
    with pytest.raises(ValueError, match="too large"):
        brute_force_solve(ProvisionProblem(budget=100.0, tier_costs=(10.0,) * 7))
    with pytest.raises(ValueError, match="too large"):
        brute_force_solve(
            ProvisionProblem(budget=10_000.0, tier_costs=(10.0,), instance_cap=100)
        )


def test_min_agents_forces_away_from_greedy():
    # Greedy would take one strong instance and stop under the pool minimum.
    problem = ProvisionProblem(budget=1300.0, tier_costs=TWO_TIER, min_agents=2)
    solution = solve(problem)
    assert solution.counts == (0, 5)
    assert solution == brute_force_solve(problem)


def _random_problem(rng, costs_kind="float"):
    num_tiers = int(rng.integers(1, 6))
    if costs_kind == "integer":
        costs = tuple(float(rng.integers(10, 2001)) for _ in range(num_tiers))
    elif costs_kind == "decimal":
        # Sub-unit multiples of 0.05, whose float products and sums round.
        costs = tuple(float(rng.integers(1, 41)) * 0.05 for _ in range(num_tiers))
    else:
        costs = tuple(float(rng.uniform(10.0, 2000.0)) for _ in range(num_tiers))
    costs = tuple(sorted(costs, reverse=True))  # tier 1 is priciest, the usual shape
    if costs_kind == "decimal":
        budget = float(rng.integers(1, 41)) * 0.1
    else:
        budget = float(rng.uniform(100.0, 1e4))
    return ProvisionProblem(
        budget=budget,
        tier_costs=costs,
        instance_cap=int(rng.integers(1, 6)),
        min_agents=int(rng.integers(0, 4)),
    )


def test_solver_matches_oracle_on_float_instances():
    rng = np.random.default_rng(2024)
    for costs_kind in ("float", "decimal"):
        for _ in range(200):
            problem = _random_problem(rng, costs_kind)
            assert solve(problem) == brute_force_solve(problem)


def test_budget_adherence_and_cap():
    rng = np.random.default_rng(7)
    for _ in range(200):
        problem = _random_problem(rng)
        solution = solve(problem)
        if not solution.feasible:
            continue
        assert solution.total_cost <= problem.budget
        assert sum(solution.counts) >= problem.min_agents
        assert all(0 <= n <= problem.instance_cap for n in solution.counts)


def test_lexicographic_greedy_equivalence_when_caps_loose():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(400):
        problem = _random_problem(rng)
        greedy = []
        spent = 0.0
        for cost in problem.tier_costs:
            n = 0
            while n < problem.instance_cap and spent + cost <= problem.budget:
                spent += cost
                n += 1
            greedy.append(n)
        caps_binding = any(n == problem.instance_cap for n in greedy)
        if caps_binding or sum(greedy) < problem.min_agents:
            continue
        checked += 1
        assert solve(problem).counts == tuple(greedy)
    assert checked > 50


# -- provisioning properties --------------------------------------------------

COSTS = st.lists(st.floats(min_value=10.0, max_value=2000.0) | st.integers(10, 2000).map(float), min_size=1, max_size=5)
BUDGET = st.floats(min_value=10.0, max_value=1e4) | st.integers(10, 10_000).map(float)


@given(costs=COSTS, budgets=st.tuples(BUDGET, BUDGET), cap=st.integers(1, 6), min_agents=st.integers(0, 4))
def test_larger_budget_never_gives_a_smaller_pool(costs, budgets, cap, min_agents):
    low, high = (solve(ProvisionProblem(b, tuple(costs), cap, min_agents)) for b in sorted(budgets))
    if low.feasible:
        assert high.feasible
        assert high.counts >= low.counts  # lexicographically, tier 1 first


@given(costs=COSTS, budget=BUDGET, cap=st.integers(1, 6), min_agents=st.integers(0, 4))
def test_doubling_budget_and_costs_gives_the_same_pool(costs, budget, cap, min_agents):
    # Doubling a float is exact here, so every feasibility sum doubles exactly too.
    base = solve(ProvisionProblem(budget, tuple(costs), cap, min_agents))
    doubled = solve(ProvisionProblem(2 * budget, tuple(2 * c for c in costs), cap, min_agents))
    assert (doubled.counts, doubled.feasible, doubled.total_weight) == (base.counts, base.feasible, base.total_weight)
    assert doubled.total_cost == 2 * base.total_cost
