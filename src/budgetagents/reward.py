"""Composite final reward for one executed workflow.

Combines a binary task-success reward with a cost-efficiency reward: a flat
penalty for blowing the budget, and a savings bonus (linear in the fraction of
budget left over) that is granted only when the task succeeded.

`TrainerConfig`, the policy trainer's settings, lives here too: this module
loads no numpy, so every command checks a config's trainer section in full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .schema import INT, NUMBER, nullable, spec


@dataclass(frozen=True)
class RewardConfig:
    w_perf: float = spec(NUMBER, default=1.0)
    w_cost: float = spec(NUMBER, default=1.0)
    c_succ: float = spec(NUMBER, default=1.0)
    c_fail: float = spec(NUMBER, default=1.0)
    c_overflow: float = spec(NUMBER, default=2.0)
    bonus_slope: float = spec(NUMBER, default=0.5)

    def __post_init__(self) -> None:
        fields = (self.w_perf, self.w_cost, self.c_succ, self.c_fail, self.c_overflow, self.bonus_slope)
        if not all(math.isfinite(v) for v in fields):
            raise ValueError("reward constants must be finite")
        if self.w_perf < 0 or self.w_cost < 0 or self.bonus_slope < 0:
            raise ValueError("weights and bonus slope must be >= 0")
        if self.c_succ <= 0 or self.c_fail <= 0 or self.c_overflow <= 0:
            raise ValueError("reward constants must be > 0")


@dataclass(frozen=True)
class TrainerConfig:
    """The policy trainer's settings: the config file's 'trainer' section,
    whose ranges are checked here when the config loads. `seed` has no spec:
    it is the config's top-level 'seed'."""

    learning_rate: float = spec(NUMBER, default=0.0003)
    entropy_coeff: float = spec(NUMBER, default=0.001)
    batch_size: int = spec(INT, default=20000)
    epochs: int = spec(INT, default=10)
    seed: int = 42
    budget_ref: float | None = spec(nullable(NUMBER), default=None)  # default: max budget seen in the dataset

    def __post_init__(self) -> None:
        # Written so that NaN fails each comparison.
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be a finite number > 0, got {self.learning_rate}")
        if not 0 <= self.entropy_coeff < math.inf:
            raise ValueError(f"entropy_coeff must be a finite number >= 0, got {self.entropy_coeff}")
        if self.budget_ref is not None and not 0 < self.budget_ref < math.inf:
            raise ValueError(f"budget_ref must be a finite number > 0, got {self.budget_ref}")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be > 0")
        if self.epochs <= 0:
            raise ValueError("epochs must be > 0")


def compute_reward(success: bool, actual_cost: float, budget: float, config: RewardConfig = RewardConfig()) -> float:
    """Weighted sum of the success reward and the cost-efficiency reward, for
    one run's outcome: a dataset row's `success`, `actual_cost` and `budget`.

    The overflow penalty replaces the savings bonus (never both), and a failed
    run earns no bonus even when under budget.
    """
    if not math.isfinite(actual_cost) or actual_cost < 0:
        raise ValueError(f"actual_cost must be finite and >= 0, got {actual_cost}")
    if budget <= 0:
        raise ValueError(f"budget must be > 0, got {budget}")
    r_perf = config.c_succ if success else -config.c_fail
    if actual_cost > budget:
        r_cost = -config.c_overflow
    elif success:
        r_cost = config.bonus_slope * (1.0 - actual_cost / budget)
    else:
        r_cost = 0.0
    return config.w_perf * r_perf + config.w_cost * r_cost
