"""Acceptance gate: every release criterion with its stated tolerance.

Each test prints one [PASS] line (visible under pytest -s); a failure shows up
as a normal pytest failure for that criterion.
"""

import itertools
import json
import time

import numpy as np
import pytest

from budgetagents.backend import ScriptedBackend, ScriptRule
from budgetagents.catalog import ModelSpec, estimate_cost
from budgetagents.cli import main as cli_main
from budgetagents.embedder import embed
from budgetagents.evaluators import NumericEvaluator
from budgetagents.policy import (
    TrainerConfig,
    forward,
    init_params,
    select_topology,
    train,
)
from budgetagents.profile import TaskSpec
from budgetagents.provision import ProvisionProblem, compute_weights, solve
from budgetagents.reward import RewardConfig, compute_reward
from budgetagents.topology import (
    AgentInstance,
    Topology,
    execute,
)

from oracle import brute_force_solve
from synth import RecordingBackend, dominant_topology_dataset, finite_difference_check, max_lower_tier_weight_dp
from test_cli import python_with_src

NANO = ModelSpec("gpt-4.1-nano", 2, 0.10, 0.40, "openai")
EVAL = NumericEvaluator()


def _random_instances(count=500, seed=20240501):
    """Shared random ILP instances: L <= 5, integer costs in [10, 2000],
    budgets in [100, 1e4], caps <= 5."""
    rng = np.random.default_rng(seed)
    instances = []
    for _ in range(count):
        num_tiers = int(rng.integers(1, 6))
        costs = tuple(
            sorted((float(rng.integers(10, 2001)) for _ in range(num_tiers)), reverse=True)
        )
        instances.append(
            ProvisionProblem(
                budget=float(rng.uniform(100.0, 1e4)),
                tier_costs=costs,
                instance_cap=int(rng.integers(1, 6)),
                min_agents=2,
            )
        )
    return instances


def test_criterion_1_ilp_oracle_equivalence():
    instances = _random_instances()
    start = time.monotonic()
    for problem in instances:
        assert solve(problem) == brute_force_solve(problem)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(f"\n[PASS] criterion 1: solver == oracle on {len(instances)} instances in {elapsed:.2f}s")


def test_criterion_2_weight_dominance():
    # sanity-check the DP maximizer against direct enumeration on tiny cases
    for costs, budget in (([500, 200, 100], 1000.0), ([1235, 250], 2000.0)):
        problem = ProvisionProblem(budget=budget, tier_costs=tuple(float(c) for c in costs))
        weights = list(compute_weights(problem))
        dp = max_lower_tier_weight_dp(costs, weights, budget)
        for i in range(len(costs)):
            bounds = [int(budget // c) for c in costs]
            best = 0
            lower = range(i + 1, len(costs))
            for combo in itertools.product(*(range(bounds[j] + 1) for j in lower)):
                if sum(m * costs[j] for m, j in zip(combo, lower)) <= budget:
                    best = max(best, sum(m * weights[j] for m, j in zip(combo, lower)))
            assert dp[i] == best

    violations = 0
    for problem in _random_instances():
        weights = list(compute_weights(problem))
        costs_int = [int(c) for c in problem.tier_costs]
        best = max_lower_tier_weight_dp(costs_int, weights, problem.budget)
        for i in range(len(weights)):
            if weights[i] <= best[i]:
                violations += 1
    assert violations == 0
    print("\n[PASS] criterion 2: every tier weight dominates its best lower-tier bundle (0 violations)")


def test_criterion_3_budget_floor():
    one_call = estimate_cost(NANO, 500, 500)
    assert 2 * one_call == pytest.approx(500.0, abs=1e-9)
    print("\n[PASS] criterion 3: two-agent floor at nano pricing is 500.0 units (tol 1e-9)")


def test_criterion_4_gradient_correctness():
    from synth import random_batch

    worst_overall = 0.0
    for seed, beta, reward_scale in ((41, 0.0, 1.0), (42, 1.0, 0.0), (43, 0.7, 1.0)):
        rng = np.random.default_rng(seed)
        params = init_params(seed=seed)
        batch = random_batch(rng, 6, reward_scale=reward_scale)
        worst = finite_difference_check(params, batch, beta, coords_per_layer=20)
        worst_overall = max(worst_overall, worst)
        assert worst < 1e-4
    print(f"\n[PASS] criterion 4: gradients match finite differences (worst rel err {worst_overall:.2e})")


def test_criterion_5_offline_training_convergence():
    dataset = dominant_topology_dataset(n_tasks=200, dominant=2)
    start = time.monotonic()
    accuracies = []
    for seed in range(5):
        config = TrainerConfig(
            learning_rate=0.0015, entropy_coeff=0.001, batch_size=20000, epochs=10, seed=seed
        )
        result = train(dataset, config)
        texts = sorted({e.task_text for e in dataset})
        picks = select_topology(result.params, [TaskSpec(f"t{i}", t) for i, t in enumerate(texts)], 500.0)
        accuracies.append(picks.count(2) / len(texts))
    elapsed = time.monotonic() - start
    assert all(acc >= 0.95 for acc in accuracies), accuracies
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(
        f"\n[PASS] criterion 5: greedy accuracy {accuracies} across 5 seeds in {elapsed:.1f}s"
    )


def test_criterion_6_entropy_regularization_direction():
    dataset = dominant_topology_dataset(n_tasks=200, dominant=2)
    config = TrainerConfig(
        learning_rate=0.0015, entropy_coeff=10.0, batch_size=20000, epochs=10, seed=42
    )
    result = train(dataset, config)
    texts = sorted({e.task_text for e in dataset})
    emb = embed(texts)
    probs = forward(result.params, emb, np.full(len(texts), 500.0 / result.params.budget_ref))["probs"]
    mean_entropy = float(np.mean(-(probs * np.log(probs)).sum(axis=1)))
    assert mean_entropy > 1.2
    print(f"\n[PASS] criterion 6: beta=10 keeps mean policy entropy at {mean_entropy:.3f} nats (> 1.2)")


def test_criterion_7_budget_enforcement():
    rng = np.random.default_rng(777)
    checked_calls = 0
    oob_count = 0
    for run in range(1000):
        topo = Topology(int(rng.integers(len(Topology))))
        pool = [AgentInstance(NANO, f"gpt-4.1-nano#{i + 1}") for i in range(int(rng.integers(3, 5)))]
        budget = float(rng.uniform(50.0, 1200.0))
        rules = []
        for step in range(1, 13):
            rules.append(
                ScriptRule(
                    role="executor", step=step, text=f"answer {int(rng.integers(100))}",
                    completion_tokens=int(rng.integers(0, 2001)),
                    prompt_tokens=int(rng.integers(0, 3001)),
                )
            )
            rules.append(
                ScriptRule(
                    role="critic", step=step,
                    text="ACCEPT" if rng.random() < 0.5 else "REJECT: redo",
                    completion_tokens=int(rng.integers(0, 501)),
                    prompt_tokens=int(rng.integers(0, 2001)),
                )
            )
            rules.append(
                ScriptRule(
                    role="planner", step=step,
                    text="1. compute\n2. check" if rng.random() < 0.7 else "unplannable",
                    completion_tokens=int(rng.integers(0, 501)),
                    prompt_tokens=int(rng.integers(0, 2001)),
                )
            )
        backends = {"openai": ScriptedBackend(rules)}
        task = TaskSpec(f"run{run}", "compute something", answer="42")
        trace = execute(task, pool, topo, budget, backends, EVAL)

        running = 0.0
        for call in trace.calls:
            assert running <= budget, "a call was initiated after the ledger crossed the budget"
            running += call.cost
            checked_calls += 1
        assert running == trace.cumulative_cost
        assert trace.oob == (trace.cumulative_cost > budget)
        oob_count += int(trace.oob)
    assert oob_count > 0, "adversarial scripts never crossed the budget; test is vacuous"
    print(
        f"\n[PASS] criterion 7: {checked_calls} calls across 1000 runs, no call after crossing; "
        f"oob flags exact ({oob_count} crossings)"
    )


def test_criterion_8_topology_semantics():
    task = TaskSpec("t", "What is 6 times 7?", answer="42")
    nano_pool = [AgentInstance(NANO, f"gpt-4.1-nano#{i + 1}") for i in range(3)]

    def run_twice(pool, topo, rules):
        traces = []
        for _ in range(2):
            backends = {"openai": ScriptedBackend(rules)}
            traces.append(execute(task, pool, topo, 10_000.0, backends, EVAL))
        assert traces[0].to_json().encode() == traces[1].to_json().encode()
        return traces[0], ScriptedBackend(rules)

    # linear chaining
    backends = {"openai": (logger := RecordingBackend([ScriptRule(role="executor", text="carry 42", completion_tokens=5)]))}
    trace = execute(task, nano_pool[:2], Topology.LINEAR, 10_000.0, backends, EVAL)
    assert "carry 42" in logger.calls[1].user and len(trace.calls) == 2

    # star majority merge
    star_rules = [
        ScriptRule(role="executor", step=1, text="maybe 41", completion_tokens=5),
        ScriptRule(role="executor", step=2, text="sure 42", completion_tokens=5),
        ScriptRule(role="executor", step=3, text="yes 42", completion_tokens=5),
    ]
    trace, _ = run_twice(nano_pool, Topology.STAR, star_rules)
    assert trace.final_answer == "sure 42" and trace.success is True

    # feedback: accept-on-first is 2 calls
    accept_rules = [
        ScriptRule(role="executor", text="42", completion_tokens=5),
        ScriptRule(role="critic", text="ACCEPT", completion_tokens=2),
    ]
    trace, _ = run_twice(nano_pool[:2], Topology.FEEDBACK, accept_rules)
    assert [c.role for c in trace.calls] == ["executor", "critic"]

    # feedback: reject-then-accept is 4 calls
    revise_rules = [
        ScriptRule(role="executor", step=1, text="41", completion_tokens=5),
        ScriptRule(role="executor", step=2, text="42", completion_tokens=5),
        ScriptRule(role="critic", step=1, text="REJECT: off by one", completion_tokens=2),
        ScriptRule(role="critic", step=2, text="ACCEPT", completion_tokens=2),
    ]
    trace, _ = run_twice(nano_pool[:2], Topology.FEEDBACK, revise_rules)
    assert [c.role for c in trace.calls] == ["executor", "critic", "executor", "critic"]
    assert trace.final_answer == "42"

    # planner: replanning capped at two
    invalid_rules = [ScriptRule(role="planner", text="no numbered steps", completion_tokens=4)]
    trace, _ = run_twice(nano_pool, Topology.PLANNER_DRIVEN, invalid_rules)
    assert [c.role for c in trace.calls] == ["planner", "planner", "planner"]

    print("\n[PASS] criterion 8: topology semantics reproduce the scripted traces, byte-deterministic")


def test_criterion_9_reward_examples():
    cases = [
        ((True, 400.0, 500.0), 1.1),
        ((False, 400.0, 500.0), -1.0),
        ((True, 600.0, 500.0), -1.0),
        ((True, 500.0, 500.0), 1.0),
    ]
    for outcome, expected in cases:
        assert compute_reward(*outcome, RewardConfig()) == pytest.approx(expected, abs=1e-12)
    print("\n[PASS] criterion 9: reward examples 1.1 / -1.0 / -1.0 / 1.0 hold at defaults")


_PIPELINE_CATALOG = {
    "models": [
        {"name": "strong-model", "tier": 1, "price_in_per_mtok": 0.27,
         "price_out_per_mtok": 2.20, "backend_id": "strong"},
        {"name": "cheap-model", "tier": 2, "price_in_per_mtok": 0.10,
         "price_out_per_mtok": 0.40, "backend_id": "cheap"},
    ],
}
_PIPELINE_PROFILE = {
    "t_in": 500,
    "t_out": 500,
    "evaluator": "numeric",
    "tasks": [
        {"id": "t1", "text": "What is 6 times 7?", "answer": "42"},
        {"id": "t2", "text": "What is 10 plus 5?", "answer": "15"},
        {"id": "t3", "text": "What is 9 minus 2?", "answer": "7"},
    ],
    "mock_script": {
        "default_prompt_tokens": 500,
        "rules": [
            {"role": "executor", "text": "it comes to 42", "completion_tokens": 80},
            {"role": "critic", "text": "ACCEPT", "completion_tokens": 2},
            {"role": "planner", "text": "1. compute\n2. answer", "completion_tokens": 10},
        ],
    },
}
_PIPELINE_COMMANDS = ("provision", "collect", "train", "run")


def _pipeline_config(tmp_path, out_dir):
    """The config file of criterion 10's pipeline, writing to `out_dir`."""
    (tmp_path / "catalog.json").write_text(json.dumps(_PIPELINE_CATALOG))
    (tmp_path / "profile.json").write_text(json.dumps(_PIPELINE_PROFILE))
    config = {
        "catalog": str(tmp_path / "catalog.json"),
        "task_profile": str(tmp_path / "profile.json"),
        "budgets": [2000.0],
        "seed": 42,
        "mock": True,
        "out_dir": str(out_dir),
        "trainer": {"learning_rate": 0.0015, "batch_size": 32, "epochs": 4},
    }
    config_path = tmp_path / f"{out_dir.name}.json"
    config_path.write_text(json.dumps(config))
    return config_path


def _assert_same_artifacts(first, second) -> list[str]:
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert names  # artifacts exist
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    return names


def test_criterion_10_pipeline_determinism(tmp_path):
    first, second = tmp_path / "out_a", tmp_path / "out_b"
    for out_dir in (first, second):
        config_path = _pipeline_config(tmp_path, out_dir)
        for command in _PIPELINE_COMMANDS:
            assert cli_main([command, "--config", str(config_path)]) == 0
    names = _assert_same_artifacts(first, second)
    print(f"\n[PASS] criterion 10: pipeline artifacts byte-identical across reruns ({', '.join(names)})")


_RUN_PIPELINE = f"""
import sys
from budgetagents.cli import main
for command in {_PIPELINE_COMMANDS!r}:
    if main([command, "--config", sys.argv[1]]) != 0:
        sys.exit(command + " failed")
"""


def test_criterion_10_pipeline_determinism_across_interpreters(tmp_path):
    # Two fresh processes with different string-hash seeds and cold caches.
    first, second = tmp_path / "out_a", tmp_path / "out_b"
    for out_dir, hash_seed in ((first, "1"), (second, "2")):
        config_path = _pipeline_config(tmp_path, out_dir)
        result = python_with_src("-c", _RUN_PIPELINE, str(config_path), PYTHONHASHSEED=hash_seed)
        assert result.returncode == 0, result.stderr
    names = _assert_same_artifacts(first, second)
    print(f"\n[PASS] criterion 10: artifacts byte-identical across interpreters ({', '.join(names)})")
