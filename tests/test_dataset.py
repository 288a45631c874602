import json
import re

import pytest

from budgetagents.backend import ScriptedBackend, ScriptRule
from budgetagents.catalog import ModelSpec
from budgetagents.dataset import (
    Experience,
    ExperienceDataset,
    collect,
    load,
    save,
)
from budgetagents.evaluators import NumericEvaluator
from budgetagents.profile import TaskSpec
from budgetagents.reward import Outcome, RewardConfig, compute_reward
from budgetagents.topology import AgentInstance

NANO = ModelSpec("gpt-4.1-nano", 2, 0.10, 0.40, "openai")


def two_agent_pool():
    return [AgentInstance(NANO, "gpt-4.1-nano#1"), AgentInstance(NANO, "gpt-4.1-nano#2")]


def scripted_factory(rules, default_prompt_tokens=500):
    def factory():
        return {"openai": ScriptedBackend(rules, default_prompt_tokens=default_prompt_tokens)}

    return factory


def basic_rules():
    return [
        ScriptRule(role="executor", text="42", completion_tokens=10),
        ScriptRule(role="critic", text="ACCEPT", completion_tokens=2),
        ScriptRule(role="planner", text="1. do it", completion_tokens=5),
    ]


def test_collect_cardinality():
    tasks = [TaskSpec("a", "first task", "42"), TaskSpec("b", "second task", "42")]
    dataset = collect(
        tasks, [500.0], {500.0: two_agent_pool()}, scripted_factory(basic_rules()), NumericEvaluator()
    )
    assert len(dataset) == 8  # 2 tasks x 1 budget x 4 topologies
    groups = dataset.groups()
    assert set(groups) == {("a", 500.0), ("b", 500.0)}
    assert all(set(g) == {0, 1, 2, 3} for g in groups.values())


def test_collect_records_pool_deficit_as_failure():
    # a two-agent pool cannot host the planner topology; the row must still exist
    dataset = collect(
        [TaskSpec("a", "t", "42")],
        [500.0],
        {500.0: two_agent_pool()},
        scripted_factory(basic_rules()),
        NumericEvaluator(),
    )
    planner_row = dataset.groups()[("a", 500.0)][3]
    assert planner_row.success is False
    # the message is written verbatim into dataset.jsonl's error field
    assert planner_row.error == (
        "planner topology needs at least 3 instances (planner + critic + executor), pool has 2"
    )


def test_collect_reward_join():
    # feedback (and every other executor topology) succeeds at cost 300 of 500
    feedback_rules = [
        ScriptRule(role="executor", text="42", completion_tokens=250, prompt_tokens=2000),
        ScriptRule(role="critic", text="ACCEPT", completion_tokens=0, prompt_tokens=0),
    ]
    dataset = collect(
        [TaskSpec("a", "the task", "42")],
        [500.0],
        {500.0: two_agent_pool()},
        scripted_factory(feedback_rules),
        NumericEvaluator(),
    )
    feedback_row = dataset.groups()[("a", 500.0)][2]
    # executor call: 2000*0.1 + 250*0.4 = 300 units; critic call free
    assert feedback_row.actual_cost == pytest.approx(300.0)
    assert feedback_row.success is True
    reward = compute_reward(
        Outcome(feedback_row.success, feedback_row.actual_cost, 500.0),
        RewardConfig(),
    )
    assert reward == pytest.approx(1.2)


def test_collect_deterministic_bytes(tmp_path):
    tasks = [TaskSpec("a", "first task", "42")]

    def build():
        return collect(
            tasks, [500.0], {500.0: two_agent_pool()}, scripted_factory(basic_rules()),
            NumericEvaluator(), header={"catalog_hash": "abc", "seed": 42},
        )

    p1, p2 = tmp_path / "d1.jsonl", tmp_path / "d2.jsonl"
    save(build(), p1)
    save(build(), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_collect_parallel_matches_serial():
    tasks = [TaskSpec(f"t{i}", f"task {i}", "42") for i in range(4)]
    kwargs = dict(
        budgets=[500.0, 875.0],
        pools={500.0: two_agent_pool(), 875.0: two_agent_pool()},
        backend_factory=scripted_factory(basic_rules()),
        evaluator=NumericEvaluator(),
    )
    serial = collect(tasks, **kwargs, jobs=1)
    parallel = collect(tasks, **kwargs, jobs=4)
    assert serial.experiences == parallel.experiences


# -- persistence --------------------------------------------------------------


def sample_dataset():
    experiences = []
    for task_id in ("a", "b"):
        for topo in range(4):
            experiences.append(
                Experience(
                    task_id=task_id,
                    task_text=f"text of {task_id}",
                    budget=500.0,
                    topology=topo,
                    success=topo == 2,
                    actual_cost=100.0 + topo,
                    error=None if topo != 3 else "planner pool too small",
                )
            )
    return ExperienceDataset(experiences=tuple(experiences), header={"catalog_hash": "ff", "seed": 1})


def test_round_trip_identity(tmp_path):
    dataset = sample_dataset()
    path = tmp_path / "data.jsonl"
    save(dataset, path)
    assert load(path) == dataset


def test_empty_dataset_round_trips_to_header_only(tmp_path):
    dataset = ExperienceDataset(experiences=(), header={"seed": 7})
    path = tmp_path / "empty.jsonl"
    save(dataset, path)
    assert path.read_text().count("\n") == 1
    assert load(path) == dataset


def test_load_rejects_duplicate_triple(tmp_path):
    dataset = sample_dataset()
    experiences = dataset.experiences + (dataset.experiences[0],)
    path = tmp_path / "dup.jsonl"
    save(ExperienceDataset(experiences=experiences, header=dataset.header), path)
    with pytest.raises(ValueError, match=r"task='a'.*topology=0"):
        load(path)


def test_load_reports_malformed_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"version": 1}\n{"task_id": "a", "task_text": "x"\n')
    with pytest.raises(ValueError, match="line 2"):
        load(path)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "nohdr.jsonl"
    path.write_text('{"task_id": "a"}\n')
    with pytest.raises(ValueError, match="version"):
        load(path)


def test_load_rejects_out_of_range_topology(tmp_path):
    path = tmp_path / "topo.jsonl"
    path.write_text(
        '{"version": 1}\n'
        '{"task_id": "a", "task_text": "x", "budget": 500.0, "topology": 9, '
        '"success": true, "actual_cost": 1.0}\n'
    )
    with pytest.raises(ValueError, match="line 2"):
        load(path)



@pytest.mark.parametrize("value", ['"false"', '"true"', "0", "1", "null"])
def test_load_rejects_non_boolean_success(tmp_path, value):
    path = tmp_path / "success.jsonl"
    path.write_text(
        '{"version": 1}\n'
        '{"task_id": "a", "task_text": "x", "budget": 500.0, "topology": 0, '
        '"success": true, "actual_cost": 1.0}\n'
        '{"task_id": "a", "task_text": "x", "budget": 500.0, "topology": 1, '
        f'"success": {value}, "actual_cost": 1.0}}\n'
    )
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 3: success must be true or false"):
        load(path)


_ROW = {"task_id": "a", "task_text": "x", "budget": 500.0, "topology": 0, "success": True, "actual_cost": 1.0}


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"budget": "500"}, "budget must be a finite number, got '500'"),
        ({"topology": 2.9}, "topology must be an integer, got 2.9"),
        ({"actual_cost": "1.5"}, "actual_cost must be a finite number, got '1.5'"),
        ({"task_id": 5}, "task_id must be a string, got 5"),
        ({"task_text": None}, "task_text must be a string, got None"),
        ({"reward": 1.0}, "unknown field reward; expected one of task_id, task_text, "),
    ],
    ids=["budget_string", "topology_float", "cost_string", "task_id_number", "task_text_null", "unknown_field"],
)
def test_load_rejects_malformed_row(tmp_path, overrides, message):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"version": 1}\n' + json.dumps(dict(_ROW, **overrides)) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}: line 2: {message}')}"):
        load(path)

def test_rewards_not_stored(tmp_path):
    path = tmp_path / "data.jsonl"
    save(sample_dataset(), path)
    assert "reward" not in path.read_text()
