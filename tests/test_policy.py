import base64
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from budgetagents import policy
from budgetagents.embedder import embed
from budgetagents.policy import (
    NUM_TOPOLOGIES,
    TrainerConfig,
    evaluate,
    forward,
    init_params,
    load_params,
    loss,
    save_params,
    select_topology,
    train,
)
from budgetagents.dataset import Experience, ExperienceDataset
from budgetagents.profile import TaskSpec
from budgetagents.reward import RewardConfig, compute_reward
from synth import dominant_topology_dataset, finite_difference_check, random_batch, seeded_ticket_texts


def zero_params():
    params = init_params(seed=0)
    for arr in params.arrays().values():
        arr[...] = 0.0
    return params


def some_state(seed=0, budget=0.8):
    """(emb, bud) of one random state, as forward takes them."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(1, 384)) / 20.0, np.array([budget])


def probs_for(params, texts, budget):
    """(len(texts), K) probabilities at one budget, from one forward pass."""
    emb = embed(texts)
    return forward(params, emb, np.full(len(texts), budget / params.budget_ref))["probs"]


# -- reference pass -----------------------------------------------------------


def reference_forward(params, emb, bud):
    """The network step by step: each projection its own matmul and ReLU."""
    a1 = emb @ params.embed_w.T + params.embed_b
    h1 = np.maximum(a1, 0.0)
    a2 = bud[:, None] @ params.budget_w.T + params.budget_b
    h2 = np.maximum(a2, 0.0)
    h = np.concatenate([h1, h2], axis=1)
    a3 = h @ params.core_w.T + params.core_b
    h3 = np.maximum(a3, 0.0)
    logits = h3 @ params.head_w.T + params.head_b
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return {"a1": a1, "a2": a2, "h": h, "a3": a3, "h3": h3, "logp": logp, "probs": np.exp(logp)}


def reference_loss(params, emb, bud, actions, rewards, beta):
    """The loss and its gradients, with each ReLU's mask taken from its input."""
    m = emb.shape[0]
    out = reference_forward(params, emb, bud)
    probs, logp = out["probs"], out["logp"]
    rows = np.arange(m)
    entropy = -(probs * logp).sum(axis=1)
    value = float(-(logp[rows, actions] * rewards).mean() - beta * entropy.mean())
    onehot = np.zeros_like(probs)
    onehot[rows, actions] = 1.0
    dlogits = rewards[:, None] * (probs - onehot)
    dlogits += beta * probs * (logp + entropy[:, None])
    dlogits /= m
    grads = {"head_w": dlogits.T @ out["h3"], "head_b": dlogits.sum(axis=0)}
    da3 = (dlogits @ params.head_w) * (out["a3"] > 0.0)
    grads["core_w"] = da3.T @ out["h"]
    grads["core_b"] = da3.sum(axis=0)
    dh = da3 @ params.core_w
    da1 = dh[:, :64] * (out["a1"] > 0.0)
    da2 = dh[:, 64:] * (out["a2"] > 0.0)
    grads["embed_w"] = da1.T @ emb
    grads["embed_b"] = da1.sum(axis=0)
    grads["budget_w"] = da2.T @ bud[:, None]
    grads["budget_b"] = da2.sum(axis=0)
    return value, grads


@pytest.mark.parametrize("rows", [1, 7, 256, 900])
def test_forward_and_loss_match_reference_bitwise(rows):
    rng = np.random.default_rng(rows)
    params = init_params(seed=rows)
    for name, arr in params.arrays().items():
        if name.endswith("_b"):
            arr += rng.normal(scale=0.1, size=arr.shape)  # biases off zero, so each ReLU cuts both ways
    emb, bud, actions, rewards = random_batch(rng, rows)
    out, expected = forward(params, emb, bud), reference_forward(params, emb, bud)
    assert out["probs"].tobytes() == expected["probs"].tobytes()
    assert out["logp"].tobytes() == expected["logp"].tobytes()
    for mask in (expected["a1"] > 0.0, expected["a2"] > 0.0, expected["a3"] > 0.0):
        assert mask.any() and not mask.all()
    value, grads = loss(params, emb, bud, actions, rewards, 0.01)
    expected_value, expected_grads = reference_loss(params, emb, bud, actions, rewards, 0.01)
    assert value.hex() == expected_value.hex()
    assert grads.keys() == expected_grads.keys() == params.arrays().keys()
    for name, grad in expected_grads.items():
        assert grads[name].tobytes() == grad.tobytes(), name


# -- forward ------------------------------------------------------------------


def test_zero_params_give_uniform_distribution():
    out = forward(zero_params(), *some_state())
    assert np.allclose(out["probs"], 0.25)
    assert np.all(out["logits"] == 0.0)


def test_probabilities_sum_to_one_and_positive():
    params = init_params(seed=3)
    probs = forward(params, *some_state(1))["probs"]
    assert abs(probs.sum() - 1.0) < 1e-9
    assert np.all(probs > 0.0)


def test_softmax_shift_invariance():
    params = init_params(seed=3)
    probs = forward(params, *some_state(2))["probs"]
    shifted = params.copy()
    shifted.head_b[...] += 17.5  # constant shift on every logit
    probs2 = forward(shifted, *some_state(2))["probs"]
    assert np.allclose(probs, probs2, atol=1e-12)


def test_forward_deterministic_bitwise():
    params = init_params(seed=9)
    state = some_state(4)
    first, second = forward(params, *state), forward(params, *state)
    assert first["probs"].tobytes() == second["probs"].tobytes()
    assert first["logits"].tobytes() == second["logits"].tobytes()


def test_forward_rejects_non_finite(monkeypatch):
    tasks = [TaskSpec("t1", "first ticket"), TaskSpec("t2", "second ticket")]
    with pytest.raises(ValueError, match="non-finite budget"):
        select_topology(init_params(seed=1), tasks, math.inf)
    params = init_params(seed=1)
    params.core_w[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite parameter in core_w"):
        select_topology(params, tasks, 1.0)
    monkeypatch.setattr(
        policy, "embed", lambda texts: np.array([np.full(384, np.nan if t == "second ticket" else 0.0) for t in texts])
    )
    with pytest.raises(ValueError, match="non-finite embedding"):
        select_topology(init_params(seed=1), tasks, 1.0)


# -- loss and gradients -------------------------------------------------------


def test_loss_zero_reward_zero_beta():
    params = init_params(seed=5)
    value, grads = loss(params, *some_state(), np.array([1]), np.array([0.0]), beta=0.0)
    assert value == 0.0
    assert all(np.all(g == 0.0) for g in grads.values())


def test_loss_uniform_policy_value():
    value, _ = loss(zero_params(), *some_state(), np.array([2]), np.array([1.0]), beta=0.0)
    assert value == pytest.approx(-math.log(0.25), rel=1e-12)


def test_loss_rejects_bad_action():
    params = init_params(seed=5)
    with pytest.raises(ValueError, match="out of range"):
        loss(params, *some_state(), np.array([4]), np.array([1.0]), beta=0.0)
    with pytest.raises(ValueError, match="non-empty"):
        loss(params, np.zeros((0, 384)), np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0), beta=0.0)


def test_gradients_match_finite_differences_policy_term():
    rng = np.random.default_rng(12)
    params = init_params(seed=12)
    assert finite_difference_check(params, random_batch(rng, 6), beta=0.0) < 1e-4


def test_gradients_match_finite_differences_entropy_term():
    rng = np.random.default_rng(13)
    params = init_params(seed=13)
    assert finite_difference_check(params, random_batch(rng, 6, reward_scale=0.0), beta=1.0) < 1e-4


def test_gradients_match_finite_differences_combined():
    rng = np.random.default_rng(14)
    params = init_params(seed=14)
    assert finite_difference_check(params, random_batch(rng, 8), beta=0.7) < 1e-4


# -- evaluate -----------------------------------------------------------------


def one_task_dataset(rewards_by_topology):
    """One task whose four outcomes are tuned to given rewards (defaults config).

    success + cost==budget gives exactly +1; failure under budget gives -1.
    """
    experiences = []
    for topo, reward in enumerate(rewards_by_topology):
        assert reward in (1.0, -1.0)
        experiences.append(
            Experience(
                task_id="t0",
                task_text="the single task",
                budget=100.0,
                topology=topo,
                success=reward > 0,
                actual_cost=100.0,
            )
        )
    return ExperienceDataset(experiences=tuple(experiences))


def test_evaluate_uniform_policy():
    dataset = one_task_dataset([1.0, -1.0, -1.0, -1.0])
    params = zero_params()
    params.budget_ref = 100.0
    assert evaluate(params, dataset) == pytest.approx(-0.5)


def test_evaluate_degenerate_policy():
    dataset = one_task_dataset([1.0, -1.0, -1.0, -1.0])
    params = zero_params()
    params.budget_ref = 100.0
    params.head_b[0] = 60.0  # nearly all mass on action 0
    assert evaluate(params, dataset) == pytest.approx(1.0, abs=1e-9)


def test_evaluate_order_invariant():
    dataset = one_task_dataset([1.0, -1.0, -1.0, -1.0])
    reordered = ExperienceDataset(experiences=tuple(reversed(dataset.experiences)))
    params = init_params(seed=2, budget_ref=100.0)
    assert evaluate(params, dataset) == evaluate(params, reordered)


def test_evaluate_rejects_missing_topology():
    dataset = one_task_dataset([1.0, -1.0, -1.0, -1.0])
    incomplete = ExperienceDataset(experiences=dataset.experiences[:3])
    with pytest.raises(ValueError, match="planner"):
        evaluate(init_params(seed=2), incomplete)


# -- training -----------------------------------------------------------------


def greedy_accuracy(params, dataset, dominant, budget):
    texts = sorted({e.task_text for e in dataset.experiences})
    picks = select_topology(params, [TaskSpec(f"t{i}", text) for i, text in enumerate(texts)], budget)
    return picks.count(dominant) / len(texts)


def test_train_learns_dominant_topology():
    dataset = dominant_topology_dataset(n_tasks=60, dominant=1)
    config = TrainerConfig(learning_rate=0.0015, entropy_coeff=0.001, batch_size=64, epochs=12, seed=0)
    result = train(dataset, config)
    acc = greedy_accuracy(result.params, dataset, dominant=1, budget=500.0)
    assert acc > 0.9
    # dominant probability itself is high on a sample task
    text = dataset.experiences[0].task_text
    probs = probs_for(result.params, [text], 500.0)[0]
    assert probs[1] > 0.9


def test_train_large_entropy_flattens_policy():
    dataset = dominant_topology_dataset(n_tasks=60, dominant=1)
    config = TrainerConfig(learning_rate=0.0015, entropy_coeff=10.0, batch_size=64, epochs=10, seed=0)
    result = train(dataset, config)
    text = dataset.experiences[0].task_text
    probs = probs_for(result.params, [text], 500.0)[0]
    entropy = float(-(probs * np.log(probs)).sum())
    assert entropy > 1.2


def test_train_deterministic_given_seed():
    dataset = dominant_topology_dataset(n_tasks=20)
    config = TrainerConfig(learning_rate=0.0015, batch_size=32, epochs=3, seed=77)
    r1, r2 = train(dataset, config), train(dataset, config)
    for a, b in zip(r1.params.arrays().values(), r2.params.arrays().values()):
        assert a.tobytes() == b.tobytes()
    assert r1.epoch_scores == r2.epoch_scores


def test_train_rejects_empty_dataset():
    with pytest.raises(ValueError, match="empty"):
        train(ExperienceDataset(experiences=()), TrainerConfig())


@pytest.mark.parametrize(
    "field, value",
    [
        ("learning_rate", math.nan), ("learning_rate", math.inf), ("learning_rate", 0.0),
        ("entropy_coeff", math.nan), ("entropy_coeff", math.inf), ("entropy_coeff", -0.5),
        ("budget_ref", math.nan), ("budget_ref", math.inf), ("budget_ref", 0.0),
    ],
)
def test_trainer_config_rejects_non_finite_and_out_of_range(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
        TrainerConfig(epochs=3, **{field: value})


def test_train_that_diverges_raises():
    config = TrainerConfig(learning_rate=1e300, epochs=3)  # finite, but the first step overflows the weights
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="no epoch's expected reward is finite"):
        train(dominant_topology_dataset(), config)


def test_best_params_match_best_epoch_score():
    dataset = dominant_topology_dataset(n_tasks=30)
    config = TrainerConfig(learning_rate=0.0015, batch_size=32, epochs=8, seed=5)
    result = train(dataset, config)
    assert result.epoch_scores[result.best_epoch - 1] == max(result.epoch_scores)
    assert evaluate(result.params, dataset) == pytest.approx(max(result.epoch_scores), abs=1e-12)


def two_budget_dataset(n_tasks=20):
    low = dominant_topology_dataset(n_tasks=n_tasks, dominant=1, budget=500.0)
    high = dominant_topology_dataset(n_tasks=n_tasks, dominant=2, budget=800.0, other_cost=900.0)
    # Reversed so the sorted group order differs from the experience order.
    return ExperienceDataset(experiences=tuple(reversed(low.experiences + high.experiences)))


def scored_epochs(monkeypatch):
    """(params, score) of each epoch that train scores from here on, its
    params copied as they stood when scored."""
    real_score, scored = policy._expected_reward, []

    def recording_score(params, emb, bud, group_rewards):
        score = real_score(params, emb, bud, group_rewards)
        scored.append((params.copy(), score))
        return score

    monkeypatch.setattr(policy, "_expected_reward", recording_score)
    return scored


def test_epoch_scores_equal_evaluate_bitwise(monkeypatch):
    dataset = two_budget_dataset()
    reward_config = RewardConfig(c_overflow=3.0, bonus_slope=0.25)
    scored = scored_epochs(monkeypatch)
    config = TrainerConfig(learning_rate=0.0015, batch_size=32, epochs=4, seed=5)
    result = train(dataset, config, reward_config=reward_config)
    monkeypatch.undo()  # evaluate scores through the real _expected_reward
    seen = [(score.hex(), evaluate(params, dataset, reward_config).hex()) for params, score in scored]
    assert [score for score, _ in seen] == [s.hex() for s in result.epoch_scores]
    assert all(score == evaluated for score, evaluated in seen)


def test_train_embeds_each_text_and_rewards_each_experience_once(monkeypatch):
    dataset = two_budget_dataset()
    batches, rewards = [], Counter()

    def counting_embed(texts):
        batches.append(list(texts))
        return embed(texts)

    def counting_reward(outcome, config):
        rewards[outcome] += 1
        return compute_reward(outcome, config)

    monkeypatch.setattr(policy, "embed", counting_embed)
    monkeypatch.setattr(policy, "compute_reward", counting_reward)
    train(dataset, TrainerConfig(learning_rate=0.0015, batch_size=32, epochs=3, seed=1))
    assert batches == [list(dict.fromkeys(e.task_text for e in dataset.experiences))]  # one batch, each text once
    assert sum(rewards.values()) == len(dataset)


def test_training_tensors_hold_one_row_per_text():
    dataset = two_budget_dataset(n_tasks=7)
    emb, text_row, *_ = policy._dataset_tensors(dataset, 800.0, RewardConfig())
    assert emb.shape == (7, 384)
    assert text_row.dtype == np.int64 and text_row.shape == (len(dataset),)
    for row, exp in zip(text_row, dataset.experiences):
        assert emb[row].tobytes() == embed([exp.task_text])[0].tobytes()


def test_train_peak_memory_scales_with_distinct_texts():
    # 12 rows per text (3 budgets x 4 topologies): one embedding row per
    # experience would take dense_bytes on its own.
    budgets = (300.0, 500.0, 800.0)
    dataset = ExperienceDataset(experiences=tuple(
        exp for budget in budgets for exp in dominant_topology_dataset(n_tasks=1000, budget=budget).experiences
    ))
    dense_bytes = len(dataset) * 384 * 8
    embed(sorted({exp.task_text for exp in dataset.experiences}))  # fill the token cache outside the traced window
    tracemalloc.start()
    try:
        train(dataset, TrainerConfig(learning_rate=0.0015, batch_size=256, epochs=1, seed=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes


def test_gathered_batch_loss_matches_dense_rows():
    dataset = two_budget_dataset(n_tasks=9)
    emb, text_row, bud, actions, rewards = policy._dataset_tensors(dataset, 800.0, RewardConfig())
    dense = np.stack([embed([exp.task_text])[0] for exp in dataset.experiences])
    params = init_params(seed=8, budget_ref=800.0)
    idx = np.random.default_rng(8).permutation(len(dataset))[:40]
    gathered_value, gathered_grads = loss(params, emb[text_row[idx]], bud[idx], actions[idx], rewards[idx], 0.01)
    dense_value, dense_grads = loss(params, dense[idx], bud[idx], actions[idx], rewards[idx], 0.01)
    assert gathered_value.hex() == dense_value.hex()
    for name, grad in dense_grads.items():
        assert gathered_grads[name].tobytes() == grad.tobytes()


def test_dominant_probability_rises_monotonically_without_entropy(monkeypatch):
    dataset = dominant_topology_dataset(n_tasks=40, dominant=2)
    texts = sorted({e.task_text for e in dataset.experiences})
    scored = scored_epochs(monkeypatch)
    for seed in range(5):
        scored.clear()
        config = TrainerConfig(learning_rate=0.0015, entropy_coeff=0.0, batch_size=20000, epochs=10, seed=seed)
        train(dataset, config)
        history = [float(np.mean(probs_for(params, texts, 500.0)[:, 2])) for params, _ in scored]
        drops = sum(1 for a, b in zip(history, history[1:]) if b <= a)
        assert drops <= 1, f"seed {seed}: {history}"


# -- selection ----------------------------------------------------------------


def test_select_greedy_tie_breaks_low_index():
    params = zero_params()
    assert select_topology(params, [TaskSpec("t", "anything")], budget=1.0) == [0]


def test_select_greedy_argmax():
    params = zero_params()
    params.head_b[...] = np.array([0.1, 0.7, 0.1, 0.1])
    assert select_topology(params, [TaskSpec("t", "anything")], budget=1.0) == [1]


def test_select_greedy_skips_disallowed_topologies():
    params = zero_params()
    params.head_b[...] = np.array([0.1, 0.2, 0.1, 0.7])
    tasks = [TaskSpec("t", "anything")]
    assert select_topology(params, tasks, budget=1.0) == [3]
    assert select_topology(params, tasks, budget=1.0, allowed=(0, 1, 2)) == [1]


def test_select_rejects_empty_allowed():
    with pytest.raises(ValueError, match="allowed"):
        select_topology(init_params(seed=0), [TaskSpec("t", "x")], budget=1.0, allowed=())


def test_select_without_tasks_picks_nothing():
    assert select_topology(init_params(seed=0), [], budget=1.0) == []


def test_select_batched_matches_row_by_row():
    params = init_params(seed=8, budget_ref=1000.0)
    params.head_w *= 4.0  # sharpen the policy so that the picks vary
    tasks = [TaskSpec(f"t{i}", text) for i, text in enumerate(seeded_ticket_texts(240, seed=3))]
    seen = set()
    for budget in (120.0, 700.0, 1000.0, 2600.0):
        for allowed in (None, (0, 1, 2), (1, 3)):
            mask = np.isin(np.arange(NUM_TOPOLOGIES), list(allowed if allowed is not None else range(4)))
            expected = []
            for task in tasks:
                probs = forward(params, embed([task.text]), np.array([budget / 1000.0]))["probs"][0]
                expected.append(int(np.argmax(np.where(mask, probs, -1.0))))
            assert select_topology(params, tasks, budget, allowed=allowed) == expected
            seen.update(expected)
    assert seen == {0, 1, 2, 3}


# -- persistence --------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    params = init_params(seed=31, budget_ref=875.0)
    params.core_b[:3] = [-0.0, 5e-324, np.nextafter(0.0, -1.0) * 7]  # negative zero and subnormals
    path = tmp_path / "policy.json"
    save_params(params, path, seed=31)
    assert json.loads(path.read_text())["format_version"] == 2
    loaded = load_params(path)
    assert loaded.budget_ref == 875.0
    for a, b in zip(params.arrays().values(), loaded.arrays().values()):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _set_values(layer, values):
    def tamper(doc):
        doc["layers"][layer]["values"] = values
        return doc

    return tamper


def _set_layers(**arrays):
    def tamper(doc):
        for name, arr in arrays.items():
            doc["layers"][name] = {"shape": list(arr.shape), "values": base64.b64encode(arr.tobytes()).decode()}
        return doc

    return tamper


def _drop(*keys):
    """Delete doc[keys[0]]...[keys[-1]]."""

    def tamper(doc):
        node = doc
        for key in keys[:-1]:
            node = node[key]
        del node[keys[-1]]
        return doc

    return tamper


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_set_values("head_b", base64.b64encode(np.zeros(3).tobytes()).decode()), "layer head_b holds 24 bytes"),
        (_set_values("core_w", "not base64!"), "layer core_w is not valid base64"),
        (_set_values("budget_b", base64.b64encode(np.full(64, np.inf).tobytes()).decode()), "layer budget_b has non-finite"),
        (_set_values("embed_b", base64.b64encode(np.full(64, np.nan).tobytes()).decode()), "layer embed_b has non-finite"),
        (lambda doc: [doc], r"weights file must be an object, got \["),
        (_drop("meta"), "missing field meta$"),
        (_drop("layers"), "missing field layers$"),
        (_drop("layers", "core_w"), "missing field layers.core_w$"),
        (_drop("layers", "head_w", "shape"), "missing field layers.head_w.shape$"),
        (_drop("layers", "head_w", "values"), "missing field layers.head_w.values$"),
        (lambda doc: dict(doc, format_version=1),
         r"format_version must be 2 \(retrain to replace a file of an older format\), got 1$"),
        (_set_layers(head_b=np.zeros(1)), r"layer head_b has shape \[1\], this build's is \[4\]$"),
        (_set_layers(budget_w=np.zeros((1, 1))), r"layer budget_w has shape \[1, 1\], this build's is \[64, 1\]$"),
        (_set_layers(head_w=np.zeros((3, 128)), head_b=np.zeros(3)),
         r"layer head_w has shape \[3, 128\], this build's is \[4, 128\]$"),
    ],
    ids=[
        "short", "not_base64", "inf", "nan", "not_object", "no_meta", "no_layers", "no_layer", "no_shape", "no_values",
        "format_1", "head_b_of_one", "budget_w_of_one", "three_heads",
    ],
)
def test_load_rejects_corrupt_layer(tmp_path, tamper, message):
    path = tmp_path / "policy.json"
    save_params(init_params(seed=33), path)
    path.write_text(json.dumps(tamper(json.loads(path.read_text()))))
    with pytest.raises(ValueError, match=message) as excinfo:
        load_params(path)
    assert str(excinfo.value).startswith(f"{path}: ")


@pytest.mark.parametrize("budget_ref", [0.0, -500.0, None], ids=["zero", "negative", "null"])
def test_load_rejects_bad_budget_ref(tmp_path, budget_ref):
    path = tmp_path / "policy.json"
    save_params(init_params(seed=34), path)
    doc = json.loads(path.read_text())
    doc["meta"]["budget_ref"] = budget_ref
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="budget_ref must be a finite number > 0"):
        load_params(path)


def test_load_rejects_another_embedding_width(tmp_path):
    params = init_params(seed=35)
    params.embed_w = params.embed_w[:, :100]  # a (64, 100) layer; the file's meta.embed_dim agrees with it
    path = tmp_path / "policy.json"
    save_params(params, path)
    assert json.loads(path.read_text())["meta"]["embed_dim"] == 100
    with pytest.raises(ValueError) as excinfo:
        load_params(path)
    assert str(excinfo.value) == f"{path}: weights were trained on 100-d embeddings, this build embeds in 384-d"


def test_load_rejects_tampered_topologies(tmp_path):
    params = init_params(seed=31)
    path = tmp_path / "policy.json"
    save_params(params, path)
    doc = json.loads(path.read_text())
    doc["meta"]["topologies"] = ["linear", "ring", "feedback", "planner"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="topologies"):
        load_params(path)


def test_embedding_feeds_state(monkeypatch):
    params = init_params(seed=1, budget_ref=500.0)
    embedded, seen = [], {}
    real_embed, real_forward = policy.embed, policy.forward

    def counting_embed(texts):
        embedded.append(list(texts))
        return real_embed(texts)

    def spying_forward(params, emb, bud):
        seen["emb"], seen["bud"] = emb, bud
        return real_forward(params, emb, bud)

    monkeypatch.setattr(policy, "embed", counting_embed)
    monkeypatch.setattr(policy, "forward", spying_forward)
    texts = ["double check the wiring", "count the pallets", "double check the wiring"]
    select_topology(params, [TaskSpec(f"t{i}", text) for i, text in enumerate(texts)], 250.0)
    assert embedded == [texts]  # one module-level embed per call, every task's text in order
    assert seen["bud"].tolist() == [0.5, 0.5, 0.5]
    for row, text in zip(seen["emb"], texts):
        assert np.array_equal(row, embed([text])[0])
