"""Synthetic datasets, oracles and a recording backend shared by tests."""

from __future__ import annotations

import numpy as np

from budgetagents.backend import CallRequest, CallResponse, ScriptedBackend
from budgetagents.dataset import Experience
from budgetagents.policy import loss


def seeded_ticket_texts(count, seed):
    """count ticket-like task texts over a ten-word vocabulary."""
    rng = np.random.default_rng(seed)
    words = ["ledger", "invoice", "refund", "vendor", "audit", "route", "pallet", "margin", "order", "depot"]
    return [
        f"Ticket {i}. Context: {' '.join(rng.choice(words, size=rng.integers(3, 30)).tolist())}. "
        f"What is {rng.integers(1, 99)} plus {rng.integers(1, 99)}?"
        for i in range(count)
    ]


class RecordingBackend(ScriptedBackend):
    """A scripted backend that keeps every request it answers, for tests that
    read prompts."""

    def __init__(self, rules, default_prompt_tokens=500):
        super().__init__(rules, default_prompt_tokens)
        self.calls: list[CallRequest] = []

    def invoke(self, request: CallRequest) -> CallResponse:
        self.calls.append(request)
        return super().invoke(request)


def dominant_topology_dataset(
    n_tasks: int = 200,
    dominant: int = 2,
    budget: float = 500.0,
    dominant_cost: float = 300.0,
    other_cost: float = 450.0,
) -> tuple[Experience, ...]:
    """Every task succeeds only under one topology; all four rows per task."""
    experiences = []
    for i in range(n_tasks):
        text = f"task number {i}: compute the value of expression {i * 7} plus {i % 13}"
        for topo in range(4):
            success = topo == dominant
            experiences.append(
                Experience(
                    task_id=f"t{i}",
                    task_text=text,
                    budget=budget,
                    topology=topo,
                    success=success,
                    actual_cost=dominant_cost if success else other_cost,
                )
            )
    return tuple(experiences)


def random_batch(rng: np.random.Generator, count: int, num_actions: int = 4, reward_scale: float = 1.0):
    """(emb, bud, actions, rewards) for loss: random states, each with a
    random action and a normal reward scaled by reward_scale."""
    states = [(rng.normal(size=384) / 20.0, float(abs(rng.normal()) + 0.1)) for _ in range(count)]
    draws = [(int(rng.integers(num_actions)), reward_scale * float(rng.normal())) for _ in range(count)]
    emb = np.stack([e for e, _ in states])
    bud = np.array([b for _, b in states])
    actions = np.array([a for a, _ in draws], dtype=np.int64)
    rewards = np.array([r for _, r in draws])
    return emb, bud, actions, rewards


def finite_difference_check(params, batch, beta, coords_per_layer=20, h=1e-5, seed=0):
    """Worst relative error between analytic gradients and central differences,
    probed at randomly chosen coordinates of every layer. batch is
    (emb, bud, actions, rewards) as loss takes them."""
    rng = np.random.default_rng(seed)
    _, grads = loss(params, *batch, beta)
    worst = 0.0
    for name, arr in params.arrays().items():
        flat = arr.ravel()
        count = min(coords_per_layer, flat.size)
        for i in rng.choice(flat.size, size=count, replace=False):
            original = flat[i]
            flat[i] = original + h
            up, _ = loss(params, *batch, beta)
            flat[i] = original - h
            down, _ = loss(params, *batch, beta)
            flat[i] = original
            numeric = (up - down) / (2.0 * h)
            analytic = grads[name].ravel()[i]
            worst = max(worst, abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8))
    return worst


def max_lower_tier_weight_dp(costs_int: list[int], weights: list[int], budget: float) -> list[int]:
    """Exact maxima of budget-feasible lower-tier weight bundles, per tier.

    Returns best[i] = max over multisets of tiers j > i of sum W_j * m_j with
    sum c_j * m_j <= budget, computed by an int64 bounded-knapsack DP (binary
    splitting of counts). Integer costs only; weights must stay below 2^63.
    """
    capacity = int(budget)
    table = np.zeros(capacity + 1, dtype=np.int64)
    num_tiers = len(costs_int)
    best = [0] * num_tiers
    for j in range(num_tiers - 1, 0, -1):
        cost, value = costs_int[j], weights[j]
        count = capacity // cost
        piece = 1
        while count > 0:
            take = min(piece, count)
            w, v = cost * take, value * take
            if w <= capacity:
                table[w:] = np.maximum(table[w:], table[:-w] + v)
            count -= take
            piece *= 2
        best[j - 1] = int(table[capacity])
    return best
