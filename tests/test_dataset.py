import json
import re
import sys

import pytest

from budgetagents.backend import ScriptedBackend, ScriptRule
from budgetagents.catalog import ModelSpec
from budgetagents.dataset import Experience, collect, load, save
from budgetagents.evaluators import NumericEvaluator
from budgetagents.profile import TaskSpec
from budgetagents.reward import RewardConfig, compute_reward
from budgetagents.topology import AgentInstance
from synth import RecordingBackend

NANO = ModelSpec("gpt-4.1-nano", 2, 0.10, 0.40, "openai")


def two_agent_pool():
    return [AgentInstance(NANO, "gpt-4.1-nano#1"), AgentInstance(NANO, "gpt-4.1-nano#2")]


def scripted(rules):
    return {"openai": ScriptedBackend(rules)}


def basic_rules():
    return [
        ScriptRule(role="executor", text="42", completion_tokens=10),
        ScriptRule(role="critic", text="ACCEPT", completion_tokens=2),
        ScriptRule(role="planner", text="1. do it", completion_tokens=5),
    ]


def test_collect_cardinality():
    tasks = [TaskSpec("a", "first task", "42"), TaskSpec("b", "second task", "42")]
    dataset = collect(
        tasks, [500.0], {500.0: two_agent_pool()}, scripted(basic_rules()), NumericEvaluator()
    )
    assert len(dataset) == 8  # 2 tasks x 1 budget x 4 topologies
    keys = [(exp.task_id, exp.budget, exp.topology) for exp in dataset]
    assert sorted(keys) == [(task, 500.0, topology) for task in "ab" for topology in range(4)]


def test_collect_records_pool_deficit_as_failure():
    # a two-agent pool cannot host the planner topology; the row must still exist
    dataset = collect(
        [TaskSpec("a", "t", "42")],
        [500.0],
        {500.0: two_agent_pool()},
        scripted(basic_rules()),
        NumericEvaluator(),
    )
    (planner_row,) = [exp for exp in dataset if exp.topology == 3]
    assert planner_row.success is False
    # the message is written verbatim into dataset.jsonl's error field
    assert planner_row.error == (
        "planner topology needs at least 3 instances (planner + critic + executor), pool has 2"
    )


class BrokenBackend(ScriptedBackend):
    """A backend whose invoke fails with an error no backend raises on purpose."""

    def invoke(self, request):
        raise RuntimeError("bug in the backend")


@pytest.mark.parametrize("jobs", [1, 2])
def test_collect_propagates_unexpected_errors(jobs):
    # A bug is not a failed run: a row with cost 0.0 would hide it, and drop
    # any call already paid.
    with pytest.raises(RuntimeError, match="bug in the backend"):
        collect(
            [TaskSpec("a", "t", "42")],
            [500.0],
            {500.0: two_agent_pool()},
            {"openai": BrokenBackend(basic_rules())},
            NumericEvaluator(),
            jobs=jobs,
        )


def test_collect_records_non_positive_budget_as_failure():
    # A row at such a budget would not load back, so collect refuses it
    # before any run, even one at a good budget listed first.
    pool = [*two_agent_pool(), AgentInstance(NANO, "gpt-4.1-nano#3")]
    for budget in (0.0, -500.0):
        backend = RecordingBackend(basic_rules())
        with pytest.raises(ValueError, match=rf"^budget must be a finite number > 0, got {budget!r}$"):
            collect(
                [TaskSpec("a", "t", "42")], [500.0, budget], {500.0: pool, budget: pool},
                {"openai": backend}, NumericEvaluator(),
            )
        assert backend.calls == []


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
        scripted(feedback_rules),
        NumericEvaluator(),
    )
    (feedback_row,) = [exp for exp in dataset if exp.topology == 2]
    # executor call: 2000*0.1 + 250*0.4 = 300 units; critic call free
    assert feedback_row.actual_cost == pytest.approx(300.0)
    assert feedback_row.success is True
    reward = compute_reward(feedback_row.success, feedback_row.actual_cost, 500.0, RewardConfig())
    assert reward == pytest.approx(1.2)


def test_collect_deterministic_bytes(tmp_path):
    tasks = [TaskSpec("a", "first task", "42")]

    def build():
        return collect(
            tasks, [500.0], {500.0: two_agent_pool()}, scripted(basic_rules()),
            NumericEvaluator(),
        )

    p1, p2 = tmp_path / "d1.jsonl", tmp_path / "d2.jsonl"
    save(build(), p1, {"catalog_hash": "abc", "seed": 42})
    save(build(), p2, {"catalog_hash": "abc", "seed": 42})
    assert p1.read_bytes() == p2.read_bytes()


def test_collect_parallel_matches_serial():
    # One scripted registry serves every run and every worker thread; the
    # step-keyed critic rejects each feedback run's first draft.
    tasks = [TaskSpec(f"t{i}", f"task {i}", "42") for i in range(4)]
    kwargs = dict(
        budgets=[500.0, 875.0],
        pools={500.0: two_agent_pool(), 875.0: two_agent_pool()},
        backends=scripted([ScriptRule(role="critic", step=1, text="REJECT: redo", completion_tokens=2), *basic_rules()]),
        evaluator=NumericEvaluator(),
    )
    serial = collect(tasks, **kwargs, jobs=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so shared state would show a lost update
    try:
        parallel = collect(tasks, **kwargs, jobs=4)
    finally:
        sys.setswitchinterval(interval)
    assert serial == parallel
    # executor, critic (REJECT), executor, critic (ACCEPT) in every feedback run
    feedback_costs = [exp.actual_cost for exp in serial if exp.topology == 2]
    assert feedback_costs == [pytest.approx(2 * 54.0 + 2 * 50.8)] * 8


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
    return tuple(experiences)


HEADER = {"catalog_hash": "ff", "seed": 1}


def assert_byte_round_trip(path, tmp_path):
    """Saving what load read back writes path's exact bytes."""
    header, rows = load(path)
    again = tmp_path / "again.jsonl"
    save(rows, again, header)
    assert again.read_bytes() == path.read_bytes()


def test_round_trip_identity(tmp_path):
    header = {**HEADER, "pool_counts": {"500": [0, 2]}}  # a key the program does not read
    rows = sample_dataset()
    path = tmp_path / "data.jsonl"
    save(rows, path, header)
    assert load(path) == (header, rows)
    assert_byte_round_trip(path, tmp_path)


def test_load_shares_one_string_per_text(tmp_path):
    path = tmp_path / "data.jsonl"
    save(sample_dataset(), path, HEADER)
    texts = {}
    for exp in load(path)[1]:
        assert texts.setdefault(exp.task_text, exp.task_text) is exp.task_text
    assert len(texts) == 2


def test_empty_dataset_round_trips_to_header_only(tmp_path):
    path = tmp_path / "empty.jsonl"
    save((), path, {"seed": 7})
    assert path.read_text().count("\n") == 1
    assert load(path) == ({"seed": 7}, ())
    assert_byte_round_trip(path, tmp_path)


def test_load_reports_malformed_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"version": 1}\n{"task_id": "a", "task_text": "x"\n')
    with pytest.raises(ValueError, match="line 2"):
        load(path)


def test_load_skips_a_blank_line(tmp_path):
    path = tmp_path / "data.jsonl"
    save(sample_dataset(), path, HEADER)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([*lines[:2], "  ", *lines[2:]]) + "\n")
    assert load(path) == (HEADER, sample_dataset())


@pytest.mark.parametrize(
    "text, message",
    [("", "empty file, expected a header line"), ("{oops\n", "line 1: malformed header: ")],
    ids=["empty", "broken_header"],
)
def test_load_names_a_missing_or_broken_header(tmp_path, text, message):
    path = tmp_path / "data.jsonl"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}"):
        load(path)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "nohdr.jsonl"
    path.write_text('{"task_id": "a"}\n')
    with pytest.raises(ValueError, match="version"):
        load(path)


def test_load_rejects_a_version_that_is_not_an_integer(tmp_path):
    # JSON's true equals 1 in Python; the header must hold the integer.
    path = tmp_path / "bool_version.jsonl"
    save(sample_dataset(), path, HEADER)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(['{"version": true}', *lines[1:]]) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: unsupported version True$"):
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
        ({"budget": "500"}, "budget must be a finite number > 0, got '500'"),
        ({"budget": 0}, "budget must be a finite number > 0, got 0"),
        ({"budget": -500.0}, "budget must be a finite number > 0, got -500.0"),
        ({"topology": 2.9}, "topology must be an integer from 0 to 3, got 2.9"),
        ({"topology": -1}, "topology must be an integer from 0 to 3, got -1"),
        ({"topology": 4}, "topology must be an integer from 0 to 3, got 4"),
        ({"actual_cost": "1.5"}, "actual_cost must be a finite number >= 0, got '1.5'"),
        ({"actual_cost": -0.5}, "actual_cost must be a finite number >= 0, got -0.5"),
        ({"task_id": 5}, "task_id must be a string, got 5"),
        ({"task_text": None}, "task_text must be a string, got None"),
        ({"reward": 1.0}, "unknown field reward; expected one of task_id, task_text, "),
    ],
    ids=["budget_string", "budget_zero", "budget_negative", "topology_float", "topology_negative",
         "topology_past_planner", "cost_string", "cost_negative", "task_id_number", "task_text_null", "unknown_field"],
)
def test_load_rejects_malformed_row(tmp_path, overrides, message):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"version": 1}\n' + json.dumps(dict(_ROW, **overrides)) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}: line 2: {message}')}"):
        load(path)

def test_rewards_not_stored(tmp_path):
    path = tmp_path / "data.jsonl"
    save(sample_dataset(), path, HEADER)
    assert "reward" not in path.read_text()
