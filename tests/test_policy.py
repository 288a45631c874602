import math
from collections import Counter

import numpy as np
import pytest

from budgetagents import policy
from budgetagents.embedder import embed
from budgetagents.policy import (
    NUM_TOPOLOGIES,
    PolicyState,
    TrainerConfig,
    evaluate,
    forward,
    init_params,
    load_params,
    loss,
    make_state,
    save_params,
    select_topology,
    train,
)
from budgetagents.dataset import Experience, ExperienceDataset, ExperienceOutcome
from budgetagents.profile import TaskSpec
from budgetagents.reward import RewardConfig, compute_reward
from synth import dominant_topology_dataset, finite_difference_check, random_states


def zero_params():
    params = init_params(seed=0)
    for arr in params.arrays().values():
        arr[...] = 0.0
    return params


def some_state(seed=0, budget=0.8):
    rng = np.random.default_rng(seed)
    return PolicyState(embedding=rng.normal(size=384) / 20.0, budget=budget)


# -- forward ------------------------------------------------------------------


def test_zero_params_give_uniform_distribution():
    probs, logits = forward(zero_params(), some_state())
    assert np.allclose(probs, 0.25)
    assert np.all(logits == 0.0)


def test_probabilities_sum_to_one_and_positive():
    params = init_params(seed=3)
    probs, _ = forward(params, some_state(1))
    assert abs(probs.sum() - 1.0) < 1e-9
    assert np.all(probs > 0.0)


def test_softmax_shift_invariance():
    params = init_params(seed=3)
    probs, _ = forward(params, some_state(2))
    shifted = params.copy()
    shifted.head_b[...] += 17.5  # constant shift on every logit
    probs2, _ = forward(shifted, some_state(2))
    assert np.allclose(probs, probs2, atol=1e-12)


def test_forward_deterministic_bitwise():
    params = init_params(seed=9)
    state = some_state(4)
    p1, l1 = forward(params, state)
    p2, l2 = forward(params, state)
    assert p1.tobytes() == p2.tobytes()
    assert l1.tobytes() == l2.tobytes()


def test_forward_rejects_non_finite():
    params = init_params(seed=1)
    bad = PolicyState(embedding=np.full(384, np.nan), budget=1.0)
    with pytest.raises(ValueError, match="non-finite"):
        forward(params, bad)
    params.core_w[0, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        forward(params, some_state())


# -- loss and gradients -------------------------------------------------------


def test_loss_zero_reward_zero_beta():
    params = init_params(seed=5)
    value, grads = loss(params, [(some_state(), 1, 0.0)], beta=0.0)
    assert value == 0.0
    assert all(np.all(g == 0.0) for g in grads.values())


def test_loss_uniform_policy_value():
    value, _ = loss(zero_params(), [(some_state(), 2, 1.0)], beta=0.0)
    assert value == pytest.approx(-math.log(0.25), rel=1e-12)


def test_loss_rejects_bad_action():
    params = init_params(seed=5)
    with pytest.raises(ValueError, match="out of range"):
        loss(params, [(some_state(), 4, 1.0)], beta=0.0)
    with pytest.raises(ValueError, match="non-empty"):
        loss(params, [], beta=0.0)


def test_gradients_match_finite_differences_policy_term():
    rng = np.random.default_rng(12)
    params = init_params(seed=12)
    batch = [(s, int(rng.integers(NUM_TOPOLOGIES)), float(rng.normal())) for s in random_states(rng, 6)]
    assert finite_difference_check(params, batch, beta=0.0) < 1e-4


def test_gradients_match_finite_differences_entropy_term():
    rng = np.random.default_rng(13)
    params = init_params(seed=13)
    batch = [(s, int(rng.integers(NUM_TOPOLOGIES)), 0.0) for s in random_states(rng, 6)]
    assert finite_difference_check(params, batch, beta=1.0) < 1e-4


def test_gradients_match_finite_differences_combined():
    rng = np.random.default_rng(14)
    params = init_params(seed=14)
    batch = [(s, int(rng.integers(NUM_TOPOLOGIES)), float(rng.normal())) for s in random_states(rng, 8)]
    assert finite_difference_check(params, batch, beta=0.7) < 1e-4


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
                outcome=ExperienceOutcome(success=reward > 0, actual_cost=100.0),
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
    hits = sum(
        int(np.argmax(forward(params, make_state(params, text, budget))[0]) == dominant)
        for text in texts
    )
    return hits / len(texts)


def test_train_learns_dominant_topology():
    dataset = dominant_topology_dataset(n_tasks=60, dominant=1)
    config = TrainerConfig(learning_rate=0.0015, entropy_coeff=0.001, batch_size=64, epochs=12, seed=0)
    result = train(dataset, config)
    acc = greedy_accuracy(result.params, dataset, dominant=1, budget=500.0)
    assert acc > 0.9
    # dominant probability itself is high on a sample task
    text = dataset.experiences[0].task_text
    probs, _ = forward(result.params, make_state(result.params, text, 500.0))
    assert probs[1] > 0.9


def test_train_large_entropy_flattens_policy():
    dataset = dominant_topology_dataset(n_tasks=60, dominant=1)
    config = TrainerConfig(learning_rate=0.0015, entropy_coeff=10.0, batch_size=64, epochs=10, seed=0)
    result = train(dataset, config)
    text = dataset.experiences[0].task_text
    probs, _ = forward(result.params, make_state(result.params, text, 500.0))
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


def test_epoch_scores_equal_evaluate_bitwise():
    dataset = two_budget_dataset()
    reward_config = RewardConfig(c_overflow=3.0, bonus_slope=0.25)
    seen = []

    def check(epoch, params, score):
        seen.append((score.hex(), evaluate(params, dataset, reward_config).hex()))

    config = TrainerConfig(learning_rate=0.0015, batch_size=32, epochs=4, seed=5)
    result = train(dataset, config, reward_config=reward_config, on_epoch=check)
    assert [score for score, _ in seen] == [s.hex() for s in result.epoch_scores]
    assert all(score == evaluated for score, evaluated in seen)


def test_train_embeds_each_text_and_rewards_each_experience_once(monkeypatch):
    dataset = two_budget_dataset()
    embeds, rewards = Counter(), Counter()

    def counting_embed(text):
        embeds[text] += 1
        return embed(text)

    def counting_reward(outcome, config):
        rewards[outcome] += 1
        return compute_reward(outcome, config)

    monkeypatch.setattr(policy, "embed", counting_embed)
    monkeypatch.setattr(policy, "compute_reward", counting_reward)
    train(dataset, TrainerConfig(learning_rate=0.0015, batch_size=32, epochs=3, seed=1))
    assert embeds == Counter({e.task_text: 1 for e in dataset.experiences})
    assert sum(rewards.values()) == len(dataset)


def test_dominant_probability_rises_monotonically_without_entropy():
    dataset = dominant_topology_dataset(n_tasks=40, dominant=2)
    for seed in range(5):
        history = []

        def track(epoch, params, score):
            history.append(greedy_mean_prob(params, dataset))

        def greedy_mean_prob(params, dataset):
            texts = sorted({e.task_text for e in dataset.experiences})
            return float(
                np.mean(
                    [forward(params, make_state(params, t, 500.0))[0][2] for t in texts]
                )
            )

        config = TrainerConfig(learning_rate=0.0015, entropy_coeff=0.0, batch_size=20000, epochs=10, seed=seed)
        train(dataset, config, on_epoch=track)
        drops = sum(1 for a, b in zip(history, history[1:]) if b <= a)
        assert drops <= 1, f"seed {seed}: {history}"


# -- selection ----------------------------------------------------------------


def test_select_greedy_tie_breaks_low_index():
    params = zero_params()
    task = TaskSpec("t", "anything")
    assert select_topology(params, task, budget=1.0, mode="greedy") == 0


def test_select_greedy_argmax():
    params = zero_params()
    params.head_b[...] = np.array([0.1, 0.7, 0.1, 0.1])
    task = TaskSpec("t", "anything")
    assert select_topology(params, task, budget=1.0, mode="greedy") == 1


def test_select_sampling_reproducible():
    params = init_params(seed=21)
    task = TaskSpec("t", "pick me a topology")
    draws = [select_topology(params, task, budget=1.0, mode="sample", seed=99) for _ in range(5)]
    assert len(set(draws)) == 1
    assert select_topology(params, task, budget=1.0, mode="sample", seed=100) in range(4)


def test_select_greedy_skips_disallowed_topologies():
    params = zero_params()
    params.head_b[...] = np.array([0.1, 0.2, 0.1, 0.7])
    task = TaskSpec("t", "anything")
    assert select_topology(params, task, budget=1.0, mode="greedy") == 3
    assert select_topology(params, task, budget=1.0, mode="greedy", allowed=(0, 1, 2)) == 1


def test_select_sampling_renormalizes_over_allowed():
    params = init_params(seed=21)
    task = TaskSpec("t", "pick me a topology")
    draws = {select_topology(params, task, 1.0, mode="sample", seed=s, allowed=(0, 2)) for s in range(40)}
    assert draws == {0, 2}
    for s in range(20):
        everything = select_topology(params, task, 1.0, mode="sample", seed=s, allowed=range(4))
        assert everything == select_topology(params, task, 1.0, mode="sample", seed=s)


def test_select_rejects_empty_allowed():
    with pytest.raises(ValueError, match="allowed"):
        select_topology(init_params(seed=0), TaskSpec("t", "x"), budget=1.0, allowed=())


def test_select_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        select_topology(init_params(seed=0), TaskSpec("t", "x"), budget=1.0, mode="softmax")


# -- persistence --------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    params = init_params(seed=31, budget_ref=875.0)
    path = tmp_path / "policy.json"
    save_params(params, path, seed=31)
    loaded = load_params(path)
    assert loaded.budget_ref == 875.0
    for a, b in zip(params.arrays().values(), loaded.arrays().values()):
        assert a.tobytes() == b.tobytes()


def test_load_rejects_tampered_topologies(tmp_path):
    import json

    params = init_params(seed=31)
    path = tmp_path / "policy.json"
    save_params(params, path)
    doc = json.loads(path.read_text())
    doc["meta"]["topologies"] = ["linear", "ring", "feedback", "planner"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="topologies"):
        load_params(path)


def test_embedding_feeds_state():
    params = init_params(seed=1, budget_ref=500.0)
    state = make_state(params, "double check the wiring", 250.0)
    assert state.budget == pytest.approx(0.5)
    assert np.array_equal(state.embedding, embed("double check the wiring").values)
