"""Topology-selection policy: a small MLP trained by offline reward-weighted
log-likelihood with entropy regularization.

The network maps (task embedding, normalized budget) to a categorical
distribution over topologies:

    relu(W_e e + b_e)  ++  relu(W_b [budget] + b_b)    two 64-d projections
        -> relu(W_c h + b_c)                           128 -> 128 core
        -> W_h h + b_h                                 K logits -> softmax

Forward, backward, and the Adam optimizer are written directly in numpy so a
training run is exactly reproducible from its seed, and the gradients can be
checked against finite differences. Budgets are normalized by a reference
value (default: the training set's maximum) before entering the network; the
reference rides along with the weights.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Collection

import numpy as np

from .dataset import ExperienceDataset
from .embedder import EMBED_DIM, embed
from .profile import TaskSpec
from .reward import Outcome, RewardConfig, compute_reward
from .topology import TOPOLOGY_NAMES

PROJ_DIM = 64
HIDDEN_DIM = 128
NUM_TOPOLOGIES = len(TOPOLOGY_NAMES)

PARAM_FIELDS = ("embed_w", "embed_b", "budget_w", "budget_b", "core_w", "core_b", "head_w", "head_b")


@dataclass
class PolicyParams:
    embed_w: np.ndarray   # (64, 384)
    embed_b: np.ndarray   # (64,)
    budget_w: np.ndarray  # (64, 1)
    budget_b: np.ndarray  # (64,)
    core_w: np.ndarray    # (128, 128)
    core_b: np.ndarray    # (128,)
    head_w: np.ndarray    # (K, 128)
    head_b: np.ndarray    # (K,)
    budget_ref: float = 1.0

    @property
    def num_actions(self) -> int:
        return int(self.head_w.shape[0])

    def copy(self) -> "PolicyParams":
        return copy.deepcopy(self)

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_FIELDS}


@dataclass(frozen=True)
class PolicyState:
    embedding: np.ndarray  # (EMBED_DIM,)
    budget: float          # normalized, >= 0

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError(f"normalized budget must be >= 0, got {self.budget}")


@dataclass(frozen=True)
class TrainerConfig:
    learning_rate: float = 0.0003
    entropy_coeff: float = 0.001
    batch_size: int = 20000
    epochs: int = 10
    seed: int = 42
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    budget_ref: float | None = None  # default: max budget seen in the dataset

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.entropy_coeff < 0:
            raise ValueError("entropy_coeff must be >= 0")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be > 0")
        if self.epochs <= 0:
            raise ValueError("epochs must be > 0")


@dataclass
class TrainResult:
    params: PolicyParams       # parameters of the best-scoring epoch
    best_epoch: int            # 1-based
    epoch_scores: list[float]  # full-dataset expected reward after each epoch


def _glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def init_params(seed: int, num_actions: int = NUM_TOPOLOGIES, budget_ref: float = 1.0) -> PolicyParams:
    """Seeded uniform Glorot weights, zero biases."""
    rng = np.random.default_rng(seed)
    return PolicyParams(
        embed_w=_glorot(rng, PROJ_DIM, EMBED_DIM),
        embed_b=np.zeros(PROJ_DIM),
        budget_w=_glorot(rng, PROJ_DIM, 1),
        budget_b=np.zeros(PROJ_DIM),
        core_w=_glorot(rng, HIDDEN_DIM, 2 * PROJ_DIM),
        core_b=np.zeros(HIDDEN_DIM),
        head_w=_glorot(rng, num_actions, HIDDEN_DIM),
        head_b=np.zeros(num_actions),
        budget_ref=budget_ref,
    )


def make_state(params: PolicyParams, text: str, budget: float) -> PolicyState:
    """Embed the task and normalize the budget by the policy's reference."""
    return PolicyState(embedding=embed(text).values, budget=budget / params.budget_ref)


def _forward_batch(params: PolicyParams, emb: np.ndarray, bud: np.ndarray) -> dict[str, np.ndarray]:
    """Batched forward pass; returns intermediates needed for backprop.

    emb: (M, EMBED_DIM), bud: (M,). Log-probabilities are computed via a
    stabilized log-softmax so they stay finite for any finite logits.
    """
    a1 = emb @ params.embed_w.T + params.embed_b          # (M, 64)
    h1 = np.maximum(a1, 0.0)
    a2 = bud[:, None] @ params.budget_w.T + params.budget_b  # (M, 64)
    h2 = np.maximum(a2, 0.0)
    h = np.concatenate([h1, h2], axis=1)                  # (M, 128)
    a3 = h @ params.core_w.T + params.core_b              # (M, 128)
    h3 = np.maximum(a3, 0.0)
    logits = h3 @ params.head_w.T + params.head_b         # (M, K)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    probs = np.exp(logp)
    return {
        "emb": emb, "bud": bud, "a1": a1, "h1": h1, "a2": a2, "h2": h2,
        "h": h, "a3": a3, "h3": h3, "logits": logits, "logp": logp, "probs": probs,
    }


def forward(params: PolicyParams, state: PolicyState) -> tuple[np.ndarray, np.ndarray]:
    """(probabilities, logits) for one state. Probabilities sum to 1."""
    emb = np.asarray(state.embedding, dtype=np.float64)
    if emb.shape != (params.embed_w.shape[1],):
        raise ValueError(f"embedding must have shape ({params.embed_w.shape[1]},), got {emb.shape}")
    if not np.all(np.isfinite(emb)) or not math.isfinite(state.budget):
        raise ValueError("non-finite input")
    for name, arr in params.arrays().items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"non-finite parameter in {name}")
    out = _forward_batch(params, emb[None, :], np.array([state.budget]))
    return out["probs"][0], out["logits"][0]


def loss(
    params: PolicyParams,
    batch: list[tuple[PolicyState, int, float]],
    beta: float,
) -> tuple[float, dict[str, np.ndarray]]:
    """Offline policy-gradient loss with entropy bonus, plus exact gradients.

    value = -(1/M) sum log pi(action|state) * reward - beta * (1/M) sum H(pi),
    with H the Shannon entropy in nats. Gradients are averaged over the batch
    and keyed like PolicyParams' arrays.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    num_actions = params.num_actions
    emb = np.stack([np.asarray(s.embedding, dtype=np.float64) for s, _, _ in batch])
    bud = np.array([s.budget for s, _, _ in batch], dtype=np.float64)
    actions = np.array([a for _, a, _ in batch], dtype=np.int64)
    rewards = np.array([r for _, _, r in batch], dtype=np.float64)
    if actions.min() < 0 or actions.max() >= num_actions:
        raise ValueError(f"action index out of range [0, {num_actions})")
    return _loss_batch(params, emb, bud, actions, rewards, beta)


def _loss_batch(
    params: PolicyParams,
    emb: np.ndarray,
    bud: np.ndarray,
    actions: np.ndarray,
    rewards: np.ndarray,
    beta: float,
) -> tuple[float, dict[str, np.ndarray]]:
    m = emb.shape[0]
    out = _forward_batch(params, emb, bud)
    probs, logp = out["probs"], out["logp"]
    rows = np.arange(m)

    entropy = -(probs * logp).sum(axis=1)                       # (M,)
    value = float(-(logp[rows, actions] * rewards).mean() - beta * entropy.mean())

    # d(loss)/d(logits): reward-weighted (p - onehot) for the log-likelihood
    # term; beta * p * (logp + H) for the entropy term.
    onehot = np.zeros_like(probs)
    onehot[rows, actions] = 1.0
    dlogits = rewards[:, None] * (probs - onehot)
    dlogits += beta * probs * (logp + entropy[:, None])
    dlogits /= m

    h3, h, a3, a1, a2 = out["h3"], out["h"], out["a3"], out["a1"], out["a2"]
    grads: dict[str, np.ndarray] = {}
    grads["head_w"] = dlogits.T @ h3
    grads["head_b"] = dlogits.sum(axis=0)
    dh3 = dlogits @ params.head_w
    da3 = dh3 * (a3 > 0.0)
    grads["core_w"] = da3.T @ h
    grads["core_b"] = da3.sum(axis=0)
    dh = da3 @ params.core_w
    da1 = dh[:, :PROJ_DIM] * (a1 > 0.0)
    da2 = dh[:, PROJ_DIM:] * (a2 > 0.0)
    grads["embed_w"] = da1.T @ emb
    grads["embed_b"] = da1.sum(axis=0)
    grads["budget_w"] = da2.T @ bud[:, None]
    grads["budget_b"] = da2.sum(axis=0)
    return value, grads


def _reward_for(exp, reward_config: RewardConfig) -> float:
    return compute_reward(
        Outcome(
            success=exp.outcome.success,
            actual_cost=exp.outcome.actual_cost,
            budget=exp.budget,
        ),
        reward_config,
    )


def _dataset_tensors(
    dataset: ExperienceDataset,
    budget_ref: float,
    reward_config: RewardConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    cache: dict[str, np.ndarray] = {}
    emb_rows = []
    for exp in dataset.experiences:
        if exp.task_text not in cache:
            cache[exp.task_text] = embed(exp.task_text).values
        emb_rows.append(cache[exp.task_text])
    emb = np.stack(emb_rows)
    bud = np.array([exp.budget / budget_ref for exp in dataset.experiences])
    actions = np.array([exp.topology for exp in dataset.experiences], dtype=np.int64)
    rewards = np.array([_reward_for(exp, reward_config) for exp in dataset.experiences])
    return emb, bud, actions, rewards


def _group_index(dataset: ExperienceDataset) -> np.ndarray:
    """(groups x K) positions in dataset.experiences, one row per (task,
    budget) group in sorted order and one column per topology.

    Raises unless every group contains an outcome for every topology.
    """
    groups = dataset.groups()
    if not groups:
        raise ValueError("dataset is empty")
    keys = sorted(groups)
    for key in keys:
        missing = [TOPOLOGY_NAMES[t] for t in range(NUM_TOPOLOGIES) if t not in groups[key]]
        if missing:
            raise ValueError(
                f"(task={key[0]!r}, budget={key[1]:g}) lacks outcomes for: {', '.join(missing)}"
            )
    position = {(exp.task_id, exp.budget, exp.topology): i for i, exp in enumerate(dataset.experiences)}
    return np.array(
        [[position[(task_id, budget, t)] for t in range(NUM_TOPOLOGIES)] for task_id, budget in keys],
        dtype=np.int64,
    )


def _expected_reward(
    params: PolicyParams, emb: np.ndarray, bud: np.ndarray, group_rewards: np.ndarray
) -> float:
    """Mean over groups of sum_t pi(t|state) * reward_t; one row per group."""
    probs = _forward_batch(params, emb, bud)["probs"]
    return float((probs * group_rewards).sum(axis=1).mean())


def evaluate(
    params: PolicyParams,
    dataset: ExperienceDataset,
    reward_config: RewardConfig = RewardConfig(),
) -> float:
    """Exact expected reward of the policy over the dataset.

    Every (task, budget) group must contain an outcome for every topology;
    the expectation per group is sum_t pi(t|state) * reward_t, averaged over
    groups.
    """
    index = _group_index(dataset)
    emb, bud, _, rewards = _dataset_tensors(dataset, params.budget_ref, reward_config)
    return _expected_reward(params, emb[index[:, 0]], bud[index[:, 0]], rewards[index])


class _Adam:
    def __init__(self, params: PolicyParams, config: TrainerConfig):
        self.config = config
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in params.arrays().items()}
        self.v = {k: np.zeros_like(v) for k, v in params.arrays().items()}

    def step(self, params: PolicyParams, grads: dict[str, np.ndarray]) -> None:
        c = self.config
        self.step_count += 1
        bias1 = 1.0 - c.adam_beta1 ** self.step_count
        bias2 = 1.0 - c.adam_beta2 ** self.step_count
        for name, grad in grads.items():
            self.m[name] = c.adam_beta1 * self.m[name] + (1.0 - c.adam_beta1) * grad
            self.v[name] = c.adam_beta2 * self.v[name] + (1.0 - c.adam_beta2) * grad * grad
            m_hat = self.m[name] / bias1
            v_hat = self.v[name] / bias2
            getattr(params, name)[...] -= c.learning_rate * m_hat / (np.sqrt(v_hat) + c.adam_eps)


def train(
    dataset: ExperienceDataset,
    config: TrainerConfig,
    reward_config: RewardConfig = RewardConfig(),
    on_epoch=None,
) -> TrainResult:
    """Mini-batch Adam on the policy-gradient loss; keeps the epoch whose
    policy scores the highest expected reward over the full dataset.

    Batches are seeded permutations of the experience list; a batch size
    larger than the dataset degenerates to full-batch updates. Fully
    deterministic given config.seed.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    budget_ref = config.budget_ref
    if budget_ref is None:
        budget_ref = max(exp.budget for exp in dataset.experiences)
    if budget_ref <= 0:
        raise ValueError("budget_ref must be > 0")

    # Every text is embedded and every reward computed once per call; the
    # per-epoch score reads its group rows out of the same tensors.
    emb, bud, actions, rewards = _dataset_tensors(dataset, budget_ref, reward_config)
    index = _group_index(dataset)
    group_emb, group_bud, group_rewards = emb[index[:, 0]], bud[index[:, 0]], rewards[index]
    n = len(dataset)

    rng = np.random.default_rng(config.seed)
    params = init_params(config.seed, budget_ref=budget_ref)
    optimizer = _Adam(params, config)

    best_params = params.copy()
    best_score = -math.inf
    best_epoch = 0
    epoch_scores: list[float] = []

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            _, grads = _loss_batch(
                params, emb[idx], bud[idx], actions[idx], rewards[idx], config.entropy_coeff
            )
            optimizer.step(params, grads)
        score = _expected_reward(params, group_emb, group_bud, group_rewards)
        epoch_scores.append(score)
        if on_epoch is not None:
            on_epoch(epoch, params, score)
        if score > best_score:
            best_score = score
            best_epoch = epoch
            best_params = params.copy()

    return TrainResult(params=best_params, best_epoch=best_epoch, epoch_scores=epoch_scores)


def select_topology(
    params: PolicyParams,
    task: TaskSpec,
    budget: float,
    mode: str = "greedy",
    seed: int = 0,
    allowed: Collection[int] | None = None,
) -> int:
    """Pick a topology for a task and budget.

    greedy: argmax probability (ties resolve to the lowest index);
    sample: one seeded draw from the categorical distribution.
    allowed restricts the choice to those topology indices (default: all);
    sampling renormalizes the probabilities over them.
    """
    probs, _ = forward(params, make_state(params, task.text, budget))
    mask = np.ones(len(probs), dtype=bool) if allowed is None else np.isin(np.arange(len(probs)), list(allowed))
    if not mask.any():
        raise ValueError("allowed names no topology")
    if mode == "greedy":
        return int(np.argmax(np.where(mask, probs, -1.0)))
    if mode == "sample":
        probs = np.where(mask, probs, 0.0)
        return int(np.random.default_rng(seed).choice(len(probs), p=probs / probs.sum()))
    raise ValueError(f"unknown mode {mode!r}; expected 'greedy' or 'sample'")


def save_params(params: PolicyParams, path: str | Path, seed: int | None = None) -> None:
    """Persist weights as JSON: layer shapes, row-major values, and the
    compatibility snapshot (topology list, dims, budget reference)."""
    layers = {
        name: {"shape": list(arr.shape), "values": arr.ravel().tolist()}
        for name, arr in params.arrays().items()
    }
    doc = {
        "format_version": 1,
        "meta": {
            "topologies": list(TOPOLOGY_NAMES[: params.num_actions]),
            "embed_dim": int(params.embed_w.shape[1]),
            "budget_ref": params.budget_ref,
            "seed": seed,
        },
        "layers": layers,
    }
    Path(path).write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")


def load_params(path: str | Path) -> PolicyParams:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("format_version") != 1:
        raise ValueError(f"{path}: unsupported weights format {doc.get('format_version')!r}")
    meta = doc["meta"]
    expected = list(TOPOLOGY_NAMES[: len(meta["topologies"])])
    if meta["topologies"] != expected:
        raise ValueError(
            f"{path}: weights were trained for topologies {meta['topologies']}, "
            f"this build has {expected}"
        )
    arrays = {}
    for name in PARAM_FIELDS:
        layer = doc["layers"][name]
        arr = np.array(layer["values"], dtype=np.float64).reshape(layer["shape"])
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{path}: layer {name} has non-finite values")
        arrays[name] = arr
    if arrays["embed_w"].shape[1] != meta["embed_dim"]:
        raise ValueError(f"{path}: embed_dim mismatch")
    return PolicyParams(budget_ref=float(meta["budget_ref"]), **arrays)
