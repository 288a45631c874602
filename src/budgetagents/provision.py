"""Budget-feasible LLM pool selection.

Chooses how many instances of each tier to provision. The answer is the
lexicographically largest count vector (tier 1 first) with at most
`instance_cap` instances per tier, at least `min_agents` in total, and a cost
within the budget. Cost is the float sum `spent + n * cost` accumulated in
tier order, and every path judges feasibility by that same expression.

The paper states this as an integer program over dominance weights: one unit
of tier i is worth more than any budget-affordable bundle of weaker tiers, so
stronger tiers are filled first and weaker tiers only with the residual
budget. Under exact arithmetic those weights make the lexicographic vector
the unique weight optimum. Feasibility here is judged in float, where rounding
can break that dominance (two vectors can tie in weight); the answer is still
the lexicographic vector. `compute_weights` only reports the weights. `solve`
finds the vector by a depth-first search that stops at its first feasible
leaf; an exhaustive enumerator with the same contract is the test oracle, in
`tests/oracle.py`.

Weights are plain Python ints (they grow multiplicatively and overflow 64-bit
quickly).
"""

from __future__ import annotations

from dataclasses import dataclass

from .reward import budget_label
from .schema import INT, NUMBER, non_negative, positive, spec, validate


@dataclass(frozen=True)
class ProvisionProblem:
    """Instance pool selection problem: budget, per-tier unit costs (tier 1
    first), a per-tier instance cap, and the minimum pool size."""

    budget: float = spec(positive(NUMBER))
    tier_costs: tuple[float, ...] = spec((
        lambda v: isinstance(v, (tuple, list)) and len(v) > 0 and all(NUMBER[0](c) and c > 0 for c in v),
        "a non-empty list of finite numbers > 0",
    ))
    instance_cap: int = spec(positive(INT), default=5)
    min_agents: int = spec(non_negative(INT), default=2)

    def __post_init__(self) -> None:
        validate(self)
        object.__setattr__(self, "tier_costs", tuple(float(c) for c in self.tier_costs))


@dataclass(frozen=True)
class ProvisionSolution:
    counts: tuple[int, ...]
    total_weight: int
    total_cost: float
    feasible: bool
    reason: str | None = None


def _affordable(budget: float, cost: float) -> int:
    # floor(budget / cost), exact for the stored float values: float `//` can
    # be one off from a quotient near 2**52 up, and is inf past the float range.
    (b, d), (c, e) = budget.as_integer_ratio(), cost.as_integer_ratio()
    return (b * e) // (d * c)


def compute_weights(problem: ProvisionProblem) -> tuple[int, ...]:
    """Per-tier dominance weights, built bottom-up: weight 1 for the weakest
    tier, then 1 plus the weight of every affordable lower-tier unit for each
    tier above it. Each tier outweighs every budget-affordable bundle of
    strictly lower tiers, so the weights strictly decrease whenever each
    lower tier is affordable at least once."""
    costs = problem.tier_costs
    num_tiers = len(costs)
    weights = [0] * num_tiers
    weights[num_tiers - 1] = 1
    for i in range(num_tiers - 2, -1, -1):
        total = 1
        for j in range(i + 1, num_tiers):
            total += weights[j] * _affordable(problem.budget, costs[j])
        weights[i] = total
    return tuple(weights)


def _max_units(spent: float, cost: float, cap: int, budget: float) -> int:
    """Largest n <= cap with spent + n*cost <= budget, judged by the same
    float expression every solver path uses for feasibility."""
    n = int(min(max((budget - spent) // cost, 0.0), cap))  # a start the loops correct
    while n > 0 and spent + n * cost > budget:
        n -= 1
    while n < cap and spent + (n + 1) * cost <= budget:
        n += 1
    return n


def _max_affordable_agents(problem: ProvisionProblem) -> int:
    # Fill cheapest tiers first within caps; optimal for maximizing the count.
    spent = 0.0
    agents = 0
    for cost in sorted(problem.tier_costs):
        take = _max_units(spent, cost, problem.instance_cap, problem.budget)
        agents += take
        spent += take * cost
    return agents


def _infeasible(problem: ProvisionProblem) -> ProvisionSolution:
    most = _max_affordable_agents(problem)
    return ProvisionSolution(
        counts=tuple([0] * len(problem.tier_costs)),
        total_weight=0,
        total_cost=0.0,
        feasible=False,
        reason=(
            f"budget {budget_label(problem.budget)} affords at most {most} agent(s); "
            f"at least {problem.min_agents} required"
        ),
    )


def _solution(problem: ProvisionProblem, counts: tuple[int, ...], cost: float) -> ProvisionSolution:
    weights = compute_weights(problem)
    return ProvisionSolution(
        counts=counts,
        total_weight=sum(n * w for n, w in zip(counts, weights)),
        total_cost=cost,
        feasible=True,
    )


def solve(problem: ProvisionProblem) -> ProvisionSolution:
    """The lexicographically largest feasible count vector (see the module
    docstring), with its decision weight.

    Depth-first over tiers strongest first, trying larger counts first, so the
    first feasible leaf is the answer. A node is pruned when even maxing every
    remaining tier cannot reach the minimum pool size. Spend only grows along
    a path, so no count deeper down exceeds what the prune allows here: the
    prune is sound under float arithmetic.
    """
    costs = problem.tier_costs
    num_tiers = len(costs)
    budget = problem.budget
    cap = problem.instance_cap

    def dfs(
        tier: int, spent: float, agents: int, counts: list[int]
    ) -> tuple[tuple[int, ...], float] | None:
        if tier == num_tiers:
            return (tuple(counts), spent) if agents >= problem.min_agents else None
        reachable = agents + sum(
            _max_units(spent, costs[j], cap, budget) for j in range(tier, num_tiers)
        )
        if reachable < problem.min_agents:
            return None
        for n in range(_max_units(spent, costs[tier], cap, budget), -1, -1):
            found = dfs(tier + 1, spent + n * costs[tier], agents + n, counts + [n])
            if found is not None:
                return found
        return None

    found = dfs(0, 0.0, 0, [])
    return _infeasible(problem) if found is None else _solution(problem, *found)
