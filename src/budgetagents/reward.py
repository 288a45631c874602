"""Composite final reward for one executed workflow.

Combines a binary task-success reward with a cost-efficiency reward: a flat
penalty for blowing the budget, and a savings bonus (linear in the fraction of
budget left over) that is granted only when the task succeeded.

`TrainerConfig`, the policy trainer's settings, lives here too: this module
loads no numpy, so every command checks a config's trainer section in full.
`BUDGET` lives here for the same reason: it is the one rule for a budget
wherever one enters, a config or flag, a dataset row, `execute`, this reward
and the policy's pick; `budget_label` is how one is named.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .schema import INT, NUMBER, non_negative, positive, spec, validate

BUDGET = positive(NUMBER)


def check_budget(budget) -> None:
    """Raise "budget must be a finite number > 0, got <value>" unless it is one."""
    if not BUDGET[0](budget):
        raise ValueError(f"budget must be {BUDGET[1]}, got {budget!r}")


def budget_label(budget: float) -> str:
    """How every message and file name gives a budget: `:g` where that reads
    back as the same number, so distinct budgets never share one."""
    short = f"{budget:g}"
    return short if float(short) == budget else repr(budget)


@dataclass(frozen=True)
class RewardConfig:
    w_perf: float = spec(non_negative(NUMBER), default=1.0)
    w_cost: float = spec(non_negative(NUMBER), default=1.0)
    c_succ: float = spec(positive(NUMBER), default=1.0)
    c_fail: float = spec(positive(NUMBER), default=1.0)
    c_overflow: float = spec(positive(NUMBER), default=2.0)
    bonus_slope: float = spec(non_negative(NUMBER), default=0.5)

    def __post_init__(self) -> None:
        validate(self)


@dataclass(frozen=True)
class TrainerConfig:
    """The policy trainer's settings: the config file's 'trainer' section,
    checked against these specs when the config loads and again by the
    constructor. `seed` has no spec: it is the config's top-level 'seed'."""

    learning_rate: float = spec(positive(NUMBER), default=0.0003)
    entropy_coeff: float = spec(non_negative(NUMBER), default=0.001)
    batch_size: int = spec(positive(INT), default=20000)
    epochs: int = spec(positive(INT), default=10)
    seed: int = 42

    def __post_init__(self) -> None:
        validate(self)


def compute_reward(success: bool, actual_cost: float, budget: float, config: RewardConfig = RewardConfig()) -> float:
    """Weighted sum of the success reward and the cost-efficiency reward, for
    one run's outcome: a dataset row's `success`, `actual_cost` and `budget`.

    The overflow penalty replaces the savings bonus (never both), and a failed
    run earns no bonus even when under budget.
    """
    if not math.isfinite(actual_cost) or actual_cost < 0:
        raise ValueError(f"actual_cost must be finite and >= 0, got {actual_cost}")
    check_budget(budget)
    r_perf = config.c_succ if success else -config.c_fail
    if actual_cost > budget:
        r_cost = -config.c_overflow
    elif success:
        r_cost = config.bonus_slope * (1.0 - actual_cost / budget)
    else:
        r_cost = 0.0
    return config.w_perf * r_perf + config.w_cost * r_cost
