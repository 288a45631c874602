"""Exhaustive test oracle for budgetagents.provision.solve.

Enumerates every feasible count vector of a small instance and keeps the
lexicographically largest, so tests can check `solve` against it.
"""

from __future__ import annotations

from budgetagents.provision import (
    ProvisionProblem,
    ProvisionSolution,
    _infeasible,
    _max_units,
    _solution,
)

BRUTE_FORCE_MAX_TIERS = 6
BRUTE_FORCE_MAX_COUNT = 20


def brute_force_solve(problem: ProvisionProblem) -> ProvisionSolution:
    """Exhaustive enumeration of all feasible count vectors, keeping the
    lexicographically largest; same contract and float feasibility as solve.
    Test oracle for small instances only."""
    costs = problem.tier_costs
    num_tiers = len(costs)
    if num_tiers > BRUTE_FORCE_MAX_TIERS:
        raise ValueError(f"instance too large: {num_tiers} tiers > {BRUTE_FORCE_MAX_TIERS}")
    per_tier_max = [
        _max_units(0.0, c, problem.instance_cap, problem.budget) for c in costs
    ]
    if any(m > BRUTE_FORCE_MAX_COUNT for m in per_tier_max):
        raise ValueError(
            f"instance too large: per-tier count bound {max(per_tier_max)} > {BRUTE_FORCE_MAX_COUNT}"
        )

    feasible: list[tuple[tuple[int, ...], float]] = []

    def enumerate_counts(tier: int, spent: float, agents: int, counts: list[int]) -> None:
        if tier == num_tiers:
            if agents >= problem.min_agents:
                feasible.append((tuple(counts), spent))
            return
        for n in range(per_tier_max[tier] + 1):
            total = spent + n * costs[tier]
            if total > problem.budget:
                break
            enumerate_counts(tier + 1, total, agents + n, counts + [n])

    enumerate_counts(0, 0.0, 0, [])
    if not feasible:
        return _infeasible(problem)
    return _solution(problem, *max(feasible))
