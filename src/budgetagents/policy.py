"""Topology-selection policy: a small MLP trained by offline reward-weighted
log-likelihood with entropy regularization.

The network maps (task embedding, normalized budget) to a categorical
distribution over topologies:

    relu(W_e e + b_e)  ++  relu(W_b [budget] + b_b)    two 64-d projections
        -> relu(W_c h + b_c)                           128 -> 128 core
        -> W_h h + b_h                                 K logits -> softmax

Forward, backward, and the Adam optimizer are written directly in numpy so a
training run is exactly reproducible from its seed, and the gradients can be
checked against finite differences. Budgets are divided by a reference, the
training set's largest budget, before entering the network; the reference
rides along with the weights.
"""

from __future__ import annotations

import base64
import copy
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Collection, Sequence

import numpy as np

from .dataset import Experience
from .embedder import EMBED_DIM, embed
from .profile import TaskSpec
from .reward import RewardConfig, TrainerConfig, budget_label, check_budget, compute_reward
from .schema import INT, NUMBER, STRING, check, each, non_negative, nullable, obj, positive, read_json
from .topology import TOPOLOGY_NAMES

PROJ_DIM = 64
HIDDEN_DIM = 128
NUM_TOPOLOGIES = len(TOPOLOGY_NAMES)
# Adam's decay rates and denominator floor, as Kingma & Ba give them.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _layer(*shape: int):
    """A PolicyParams field holding one layer of this shape."""
    return field(metadata={"shape": shape})


@dataclass
class PolicyParams:
    """The layers, each declared with its shape (a weight's as (fan_out,
    fan_in)) in the order init_params draws them, and the budget reference.
    A saved layer of another shape does not load."""

    embed_w: np.ndarray = _layer(PROJ_DIM, EMBED_DIM)
    embed_b: np.ndarray = _layer(PROJ_DIM)
    budget_w: np.ndarray = _layer(PROJ_DIM, 1)
    budget_b: np.ndarray = _layer(PROJ_DIM)
    core_w: np.ndarray = _layer(HIDDEN_DIM, 2 * PROJ_DIM)
    core_b: np.ndarray = _layer(HIDDEN_DIM)
    head_w: np.ndarray = _layer(NUM_TOPOLOGIES, HIDDEN_DIM)
    head_b: np.ndarray = _layer(NUM_TOPOLOGIES)
    budget_ref: float = 1.0

    def copy(self) -> "PolicyParams":
        return copy.deepcopy(self)

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_FIELDS}


# Each layer's shape, by name, in field order.
SHAPES = {f.name: f.metadata["shape"] for f in fields(PolicyParams) if "shape" in f.metadata}
PARAM_FIELDS = tuple(SHAPES)


@dataclass
class TrainResult:
    params: PolicyParams       # parameters of the best-scoring epoch
    best_epoch: int            # 1-based
    epoch_scores: list[float]  # full-dataset expected reward after each epoch


def init_params(seed: int, budget_ref: float = 1.0) -> PolicyParams:
    """Seeded uniform Glorot weights, zero biases, drawn in field order."""
    rng = np.random.default_rng(seed)
    layers = {}
    for name, shape in SHAPES.items():
        limit = math.sqrt(6.0 / sum(shape))  # fan_out + fan_in, for a weight
        layers[name] = rng.uniform(-limit, limit, size=shape) if name.endswith("_w") else np.zeros(shape)
    return PolicyParams(budget_ref=budget_ref, **layers)


def forward(params: PolicyParams, emb: np.ndarray, bud: np.ndarray) -> dict[str, np.ndarray]:
    """Batched forward pass; returns the arrays backprop reads.

    emb: (M, EMBED_DIM), bud: (M,) normalized budgets. Log-probabilities are
    computed via a stabilized log-softmax so they stay finite for any finite
    logits; out["probs"] rows sum to 1.
    """
    h = np.maximum(np.concatenate([
        emb @ params.embed_w.T + params.embed_b,             # (M, 64)
        bud[:, None] * params.budget_w[:, 0] + params.budget_b,  # (M, 64)
    ], axis=1), 0.0)                                         # (M, 128)
    h3 = np.maximum(h @ params.core_w.T + params.core_b, 0.0)  # (M, 128)
    logits = h3 @ params.head_w.T + params.head_b            # (M, K)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    probs = np.exp(logp)
    return {"emb": emb, "bud": bud, "h": h, "h3": h3, "logits": logits, "logp": logp, "probs": probs}


def loss(
    params: PolicyParams,
    emb: np.ndarray,
    bud: np.ndarray,
    actions: np.ndarray,
    rewards: np.ndarray,
    beta: float,
) -> tuple[float, dict[str, np.ndarray]]:
    """Offline policy-gradient loss with entropy bonus, plus exact gradients.

    value = -(1/M) sum log pi(action|state) * reward - beta * (1/M) sum H(pi),
    with H the Shannon entropy in nats, over the M rows of emb, bud, actions
    and rewards. Gradients are averaged over the batch and keyed like
    PolicyParams' arrays.
    """
    m = emb.shape[0]
    if m == 0:
        raise ValueError("batch must be non-empty")
    if actions.min() < 0 or actions.max() >= NUM_TOPOLOGIES:
        raise ValueError(f"action index out of range [0, {NUM_TOPOLOGIES})")
    out = forward(params, emb, bud)
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

    h3, h = out["h3"], out["h"]
    grads: dict[str, np.ndarray] = {}
    grads["head_w"] = dlogits.T @ h3
    grads["head_b"] = dlogits.sum(axis=0)
    da3 = (dlogits @ params.head_w) * (h3 > 0.0)
    grads["core_w"] = da3.T @ h
    grads["core_b"] = da3.sum(axis=0)
    dh = (da3 @ params.core_w) * (h > 0.0)
    da1, da2 = dh[:, :PROJ_DIM], dh[:, PROJ_DIM:]
    grads["embed_w"] = da1.T @ emb
    grads["embed_b"] = da1.sum(axis=0)
    grads["budget_w"] = da2.T @ bud[:, None]
    grads["budget_b"] = da2.sum(axis=0)
    return value, grads


def _dataset_rows(
    dataset: Sequence[Experience], reward_config: RewardConfig, budget_ref: float | None = None
) -> tuple[float, tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """(budget_ref, training rows, scoring rows), from one pass over the
    dataset; a budget_ref of None is the dataset's largest budget.

    The training rows are (emb, text_row, bud, actions, rewards): emb holds
    one embedding per distinct task text in first-seen order, and experience
    i's state is (emb[text_row[i]], bud[i]). A dataset repeats each text once
    per (budget, topology), so a row per experience would hold every
    embedding that many times over. The scoring rows are (emb, bud, rewards),
    one per (task, budget) group in sorted order: its state and K rewards.

    Raises on an empty dataset, a repeated (task, budget, topology), and a
    group without an outcome for every topology.
    """
    texts: dict[str, int] = {}
    groups: dict[tuple[str, float], dict[int, int]] = {}  # (task, budget) -> topology -> row
    text_row, budgets, actions, rewards = [], [], [], []
    for i, exp in enumerate(dataset):
        text_row.append(texts.setdefault(exp.task_text, len(texts)))
        budgets.append(exp.budget)
        actions.append(exp.topology)
        rewards.append(compute_reward(exp.success, exp.actual_cost, exp.budget, reward_config))
        group = groups.setdefault((exp.task_id, exp.budget), {})
        if exp.topology in group:
            raise ValueError(
                f"duplicate experience for (task={exp.task_id!r}, budget={budget_label(exp.budget)}, "
                f"topology={exp.topology})"
            )
        group[exp.topology] = i
    if not groups:
        raise ValueError("dataset is empty")
    index = []
    for task_id, budget in sorted(groups):
        group = groups[task_id, budget]
        missing = [TOPOLOGY_NAMES[t] for t in range(NUM_TOPOLOGIES) if t not in group]
        if missing:
            label = budget_label(budget)
            raise ValueError(f"(task={task_id!r}, budget={label}) lacks outcomes for: {', '.join(missing)}")
        index.append([group[t] for t in range(NUM_TOPOLOGIES)])
    if budget_ref is None:
        budget_ref = max(budgets)
    index = np.array(index, dtype=np.int64)
    emb, text_row = embed(list(texts)), np.array(text_row, dtype=np.int64)
    bud, rewards = np.array(budgets) / budget_ref, np.array(rewards)
    training = (emb, text_row, bud, np.array(actions, dtype=np.int64), rewards)
    return budget_ref, training, (emb[text_row[index[:, 0]]], bud[index[:, 0]], rewards[index])


def _expected_reward(
    params: PolicyParams, emb: np.ndarray, bud: np.ndarray, group_rewards: np.ndarray
) -> float:
    """Mean over groups of sum_t pi(t|state) * reward_t; one row per group."""
    probs = forward(params, emb, bud)["probs"]
    return float((probs * group_rewards).sum(axis=1).mean())


def evaluate(
    params: PolicyParams,
    dataset: Sequence[Experience],
    reward_config: RewardConfig = RewardConfig(),
) -> float:
    """Exact expected reward of the policy over the dataset.

    Every (task, budget) group must contain an outcome for every topology;
    the expectation per group is sum_t pi(t|state) * reward_t, averaged over
    groups.
    """
    _, _, scoring_rows = _dataset_rows(dataset, reward_config, params.budget_ref)
    return _expected_reward(params, *scoring_rows)


class _Adam:
    def __init__(self, params: PolicyParams, learning_rate: float):
        self.learning_rate = learning_rate
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in params.arrays().items()}
        self.v = {k: np.zeros_like(v) for k, v in params.arrays().items()}

    def step(self, params: PolicyParams, grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        bias1 = 1.0 - ADAM_BETA1 ** self.step_count
        bias2 = 1.0 - ADAM_BETA2 ** self.step_count
        for name, grad in grads.items():
            self.m[name] = ADAM_BETA1 * self.m[name] + (1.0 - ADAM_BETA1) * grad
            self.v[name] = ADAM_BETA2 * self.v[name] + (1.0 - ADAM_BETA2) * grad * grad
            m_hat = self.m[name] / bias1
            v_hat = self.v[name] / bias2
            getattr(params, name)[...] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def train(
    dataset: Sequence[Experience],
    config: TrainerConfig,
    reward_config: RewardConfig = RewardConfig(),
) -> TrainResult:
    """Mini-batch Adam on the policy-gradient loss; keeps the epoch whose
    policy scores the highest expected reward over the full dataset. The
    budget reference is the dataset's largest budget.

    Batches are seeded permutations of the experience list; a batch size
    larger than the dataset degenerates to full-batch updates. Fully
    deterministic given config.seed. Raises ValueError if training diverges,
    so that no epoch's score is finite.
    """
    # Every text is embedded and every reward computed once per call. Each
    # batch gathers its embedding rows, so no (experiences x EMBED_DIM) matrix
    # is held. The per-epoch score's group rows are gathered once: its forward
    # pass holds them anyway, and re-gathering them every epoch slowed train
    # by page faults.
    budget_ref, (emb, text_row, bud, actions, rewards), scoring_rows = _dataset_rows(dataset, reward_config)
    n = len(dataset)

    rng = np.random.default_rng(config.seed)
    params = init_params(config.seed, budget_ref=budget_ref)
    optimizer = _Adam(params, config.learning_rate)

    best_score = -math.inf
    best_epoch = 0
    epoch_scores: list[float] = []

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            _, grads = loss(
                params, emb[text_row[idx]], bud[idx], actions[idx], rewards[idx], config.entropy_coeff
            )
            optimizer.step(params, grads)
        score = _expected_reward(params, *scoring_rows)
        epoch_scores.append(score)
        if score > best_score:
            best_score = score
            best_epoch = epoch
            best_params = params.copy()
    if best_epoch == 0:  # a NaN score is never > -inf, so best_params was never set
        raise ValueError("training diverged: no epoch's expected reward is finite; lower learning_rate")
    return TrainResult(params=best_params, best_epoch=best_epoch, epoch_scores=epoch_scores)


def select_topology(
    params: PolicyParams,
    tasks: Sequence[TaskSpec],
    budget: float,
    allowed: Collection[int] | None = None,
) -> list[int]:
    """Greedy topology for each task at one budget, from one forward pass.

    Each pick is the argmax probability (ties resolve to the lowest index)
    among the allowed topology indices (default: all). Raises ValueError on a
    budget that is not a finite number > 0, and on a non-finite weight.
    """
    mask = np.ones(NUM_TOPOLOGIES, dtype=bool)
    if allowed is not None:
        mask = np.isin(np.arange(NUM_TOPOLOGIES), list(allowed))
    if not mask.any():
        raise ValueError("allowed names no topology")
    check_budget(budget)
    for name, arr in params.arrays().items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"non-finite parameter in {name}")
    emb = embed([task.text for task in tasks])
    bud = np.full(len(tasks), budget / params.budget_ref)
    probs = forward(params, emb, bud)["probs"]
    return np.argmax(np.where(mask, probs, -1.0), axis=1).tolist()


def save_params(params: PolicyParams, path: str | Path, seed: int | None = None) -> None:
    """Persist weights as JSON (format 2): per layer its shape and its
    row-major values as base64 little-endian float64, plus the compatibility
    snapshot (topology list, dims, budget reference)."""
    layers = {
        name: {
            "shape": list(arr.shape),
            "values": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii"),
        }
        for name, arr in params.arrays().items()
    }
    doc = {
        "format_version": 2,
        "meta": {
            "topologies": list(TOPOLOGY_NAMES),
            "embed_dim": int(params.embed_w.shape[1]),
            "budget_ref": params.budget_ref,
            "seed": seed,
        },
        "layers": layers,
    }
    Path(path).write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")


# The weights file. A layer's values are a base64 string; _decode_layer checks them.
_LAYER = obj({"shape": each(non_negative(INT)), "values": STRING}, required=("shape", "values"))
_META = {"topologies": each(STRING), "embed_dim": INT, "budget_ref": positive(NUMBER), "seed": nullable(INT)}
_WEIGHTS_FIELDS = {
    "format_version": (lambda v: INT[0](v) and v == 2, "2 (retrain to replace a file of an older format)"),
    "meta": obj(_META, required=("topologies", "embed_dim", "budget_ref")),
    "layers": obj({name: _LAYER for name in PARAM_FIELDS}, required=PARAM_FIELDS),
}


def _decode_layer(path: str | Path, name: str, layer: dict) -> np.ndarray:
    """One layer's array, of its SHAPES shape, from base64 little-endian float64."""
    shape = tuple(layer["shape"])
    if shape != SHAPES[name]:
        raise ValueError(f"{path}: layer {name} has shape {list(shape)}, this build's is {list(SHAPES[name])}")
    size = math.prod(shape)
    try:
        raw = base64.b64decode(layer["values"], validate=True)
    except ValueError:
        raise ValueError(f"{path}: layer {name} is not valid base64") from None
    if len(raw) != 8 * size:
        raise ValueError(f"{path}: layer {name} holds {len(raw)} bytes, its shape {list(shape)} needs {8 * size}")
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)  # a writable copy
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{path}: layer {name} has non-finite values")
    return arr


def load_params(path: str | Path) -> PolicyParams:
    """Weights saved by save_params (format 2), for this build's topologies
    and embedding width."""
    doc = read_json(path)
    try:
        check(doc, _WEIGHTS_FIELDS, required=tuple(_WEIGHTS_FIELDS), name="weights file")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    meta = doc["meta"]
    if meta["topologies"] != list(TOPOLOGY_NAMES):
        raise ValueError(
            f"{path}: weights were trained for topologies {meta['topologies']}, "
            f"this build has {list(TOPOLOGY_NAMES)}"
        )
    if meta["embed_dim"] != EMBED_DIM:
        raise ValueError(
            f"{path}: weights were trained on {meta['embed_dim']}-d embeddings, this build embeds in {EMBED_DIM}-d"
        )
    arrays = {name: _decode_layer(path, name, doc["layers"][name]) for name in PARAM_FIELDS}
    return PolicyParams(budget_ref=float(meta["budget_ref"]), **arrays)
