"""Golden bytes for `execute` and `collect`.

Every string below was first captured from the code before the per-call
path was made lean (plain value types, one-time run set-up, inlined rule
matching). The trace strings were captured again when `halt` and `detail`
replaced `terminated_early` and `note`, and differ from the first capture in
those keys alone; the dataset bytes never changed. `star_over_budget` was
captured from the code before star's vote moved into its flow, and
`star_normalize_failure` from the code that first typed a raising
`normalize` as an evaluator failure. `billed_failure` (a failed call whose
usage the provider billed) and `wildcard_rule` (one `role: "*"` rule serving
every role) were captured from the code before a successful call's charge
moved into `_Runner.call`. A trace's JSON and a dataset's saved rows must
keep these exact bytes.
"""

import pytest

from budgetagents import dataset
from budgetagents.backend import ProtocolError, ScriptedBackend, ScriptRule
from budgetagents.catalog import ModelSpec
from budgetagents.evaluators import NumericEvaluator
from budgetagents.profile import TaskSpec
from budgetagents.topology import AgentInstance, ExecutionLimits, Topology, execute

DEEPSEEK = ModelSpec("deepseek-v3", 1, 0.27, 1.10, "deepseek")
NANO = ModelSpec("gpt-4.1-nano", 2, 0.10, 0.40, "openai")
TASK = TaskSpec("t1", "What is 6 times 7?", answer="42")
EVAL = NumericEvaluator()
POOL = [
    AgentInstance(DEEPSEEK, "deepseek-v3#1"),
    AgentInstance(NANO, "gpt-4.1-nano#1"),
    AgentInstance(NANO, "gpt-4.1-nano#2"),
]
# Step-keyed and seeded rules, a prompt-token override and a fallthrough per role.
RULES = [
    ScriptRule(role="planner", text="1. multiply\n2. report", completion_tokens=20, prompt_tokens=321),
    ScriptRule(role="critic", step=1, text="REJECT\nshow the product", completion_tokens=7),
    ScriptRule(role="critic", text="ACCEPT", completion_tokens=2),
    ScriptRule(role="executor", step=2, seed=5, completion_tokens=9),
    ScriptRule(role="executor", text="the answer is 42", completion_tokens=13),
]


def backends(rules=RULES):
    backend = ScriptedBackend(rules, default_prompt_tokens=437)
    return {"openai": backend, "deepseek": backend}


class BilledFailureBackend(ScriptedBackend):
    """Scripted, except that the second executor call fails after the
    provider billed it."""

    def invoke(self, request):
        if request.role == "executor" and request.occurrence == 2:
            raise ProtocolError("response had no message content", usage=(437, 5))
        return super().invoke(request)


class ExplodingEvaluator:
    name = "boom"

    def normalize(self, text):
        return text

    def grade(self, text, task):
        raise RuntimeError("grader crashed")


class RaisingNormalizer(NumericEvaluator):
    def normalize(self, text):
        raise RuntimeError("normalizer crashed")


RUNS = {
    "linear": lambda: execute(TASK, POOL, Topology.LINEAR, 10_000.0, backends(), EVAL),
    "star": lambda: execute(TASK, POOL, Topology.STAR, 10_000.0, backends(), EVAL),
    "feedback": lambda: execute(TASK, POOL, Topology.FEEDBACK, 10_000.0, backends(), EVAL),
    "planner": lambda: execute(TASK, POOL, Topology.PLANNER_DRIVEN, 10_000.0, backends(), EVAL),
    # The first call costs 540.39 (completion capped at 384 tokens) and crosses 400.
    "over_budget": lambda: execute(
        TASK, POOL, Topology.LINEAR, 400.0,
        backends([ScriptRule(role="executor", text="x 1", completion_tokens=1000)]), EVAL,
    ),
    # Worst case of the second call: 132.29 + 500*0.1 + 50*0.4 = 202.29 > 200 + 1.5.
    "precall_guard": lambda: execute(
        TASK, POOL, Topology.LINEAR, 200.0, backends(), EVAL,
        limits=ExecutionLimits(precall_slack=1.5), max_tokens={"executor": 50},
    ),
    "backend_failure": lambda: execute(
        TASK, POOL, Topology.FEEDBACK, 10_000.0,
        backends([ScriptRule(role="executor", text="42", completion_tokens=3)]), EVAL,
    ),
    "evaluator_failure": lambda: execute(TASK, POOL, Topology.STAR, 10_000.0, backends(), ExplodingEvaluator()),
    # The second call (132.29 + 47.3) crosses 150: it is billed, but its text
    # does not vote, so star answers "says 7". Linear answers with the crossing text.
    "star_over_budget": lambda: execute(
        TASK, POOL, Topology.STAR, 150.0,
        backends([
            ScriptRule(role="executor", step=1, text="says 7", completion_tokens=13),
            ScriptRule(role="executor", step=2, text="says 9", completion_tokens=9),
        ]), EVAL,
    ),
    # The first call crosses the budget, then grading raises: the later reason is kept.
    "over_budget_evaluator_failure": lambda: execute(
        TASK, POOL, Topology.LINEAR, 400.0,
        backends([ScriptRule(role="executor", text="x 1", completion_tokens=1000)]), ExplodingEvaluator(),
    ),
    # Star's vote raises: the three calls stay billed and the run is unanswered.
    "star_normalize_failure": lambda: execute(
        TASK, POOL, Topology.STAR, 10_000.0, backends(), RaisingNormalizer()
    ),
    # The last executor answers with the seeded filler text.
    "seeded_text": lambda: execute(TASK, POOL[:2], Topology.LINEAR, 10_000.0, backends(), EVAL),
    # The second call fails but is billed (437 + 5 tokens): it is charged, and
    # the run halts ungraded with the first call's answer.
    "billed_failure": lambda: execute(
        TASK, POOL, Topology.LINEAR, 10_000.0,
        dict.fromkeys(("openai", "deepseek"), BilledFailureBackend(RULES, default_prompt_tokens=437)), EVAL,
    ),
    # One rule for every role: both executors and the critic, which accepts.
    "wildcard_rule": lambda: execute(
        TASK, POOL, Topology.FEEDBACK, 10_000.0,
        backends([ScriptRule(role="*", text="ACCEPT, the answer is 42", completion_tokens=11)]), EVAL,
    ),
}

GOLDEN_TRACES = {
    "linear": (
        '{"task_id": "t1", "topology": "linear", "budget": 10000.0, "calls": [{"model": "deepseek-v3", "instance": "deepseek-v3#1", "role": "executor", "t_in": 437, "t_out": 13, "cost": 132.29000000000002}, {"model": "gpt-4.1-nano", "instance": "gpt-4.1-nano#1", "role": "executor", "t_in": 437, "t_out": 9, "cost": 47.300000000000004}, {"model": "gpt-4.1-nano", "instance": "gpt-4.1-nano#2", "role": "executor", "t_in": 437, "t_out": 13, "cost": 48.900000000000006}], "cumulative_cost": 228.49000000000004, "final_answer": "the answer is 42", "success": true, "oob": false, "halt": null, "detail": null}'
    ),
    "star": (
        '{"task_id": "t1", "topology": "star", "budget": 10000.0, "calls": [{"model": "deepseek-v3", "instance": "deepseek-v3#1", "role": "executor", "t_in": 437, "t_out": 13, "cost": 132.29000000000002}, {"model": "gpt-4.1-nano", "instance": "gpt-4.1-nano#1", "role": "executor", "t_in": 437, "t_out": 9, "cost": 47.300000000000004}, {"model": "gpt-4.1-nano", "instance": "gpt-4.1-nano#2", "role": "executor", "t_in": 437, "t_out": 13, "cost": 48.900000000000006}], "cumulative_cost": 228.49000000000004, "final_answer": "the answer is 42", "success": true, "oob": false, "halt": null, "detail": null}'
    ),
    "feedback": (
        '{"task_id": "t1", "topology": "feedback", "budget": 10000.0, "calls": [{"model": "gpt-4.1-nano", "instance": "gpt-4.1-nano#1", "role": "executor", "t_in": 437, "t_out": 13, "cost": 48.900000000000006}, {"model": "gpt-4.1-nano", "instance": "gpt-4.1-nano#2", "role": "executor", "t_in": 437, "t_out": 9, "cost": 47.300000000000004}, {"model": "deepseek-v3", "instance": "deepseek-v3#1", "role": "critic", "t_in": 437, "t_out": 7, "cost": 125.69000000000001}, {"model": "gpt-4.1-nano", "instance": "gpt-4.1-nano#2", "role": "executor", "t_in": 437, "t_out": 13, "cost": 48.900000000000006}, {"model": "deepseek-v3", "instance": "deepseek-v3#1", "role": "critic", "t_in": 437, "t_out": 2, "cost": 120.19000000000001}], "cumulative_cost": 390.9800000000001, "final_answer": "the answer is 42", "success": true, "oob": false, "halt": null, "detail": null}'
    ),
    "planner": (
        '{"task_id": "t1", "topology": "planner", "budget": 10000.0, "calls": [{"model": "deepseek-v3", "instance": "deepseek-v3#1", "role": "planner", "t_in": 321, "t_out": 20, "cost": 108.67}, {"model": "gpt-4.1-nano", "instance": "gpt-4.1-nano#2", "role": "executor", "t_in": 437, "t_out": 13, "cost": 48.900000000000006}, {"model": "gpt-4.1-nano", "instance": "gpt-4.1-nano#2", "role": "executor", "t_in": 437, "t_out": 9, "cost": 47.300000000000004}, {"model": "gpt-4.1-nano", "instance": "gpt-4.1-nano#1", "role": "critic", "t_in": 437, "t_out": 7, "cost": 46.5}, {"model": "deepseek-v3", "instance": "deepseek-v3#1", "role": "planner", "t_in": 321, "t_out": 20, "cost": 108.67}, {"model": "gpt-4.1-nano", "instance": "gpt-4.1-nano#2", "role": "executor", "t_in": 437, "t_out": 13, "cost": 48.900000000000006}, {"model": "gpt-4.1-nano", "instance": "gpt-4.1-nano#2", "role": "executor", "t_in": 437, "t_out": 13, "cost": 48.900000000000006}, {"model": "gpt-4.1-nano", "instance": "gpt-4.1-nano#1", "role": "critic", "t_in": 437, "t_out": 2, "cost": 44.5}], "cumulative_cost": 502.34000000000003, "final_answer": "the answer is 42", "success": true, "oob": false, "halt": null, "detail": null}'
    ),
    "over_budget": (
        '{"task_id": "t1", "topology": "linear", "budget": 400.0, "calls": [{"model": "deepseek-v3", "instance": "deepseek-v3#1", "role": "executor", "t_in": 437, "t_out": 384, "cost": 540.3900000000001}], "cumulative_cost": 540.3900000000001, "final_answer": "x 1", "success": false, "oob": true, "halt": "budget_exceeded", "detail": null}'
    ),
    "precall_guard": (
        '{"task_id": "t1", "topology": "linear", "budget": 200.0, "calls": [{"model": "deepseek-v3", "instance": "deepseek-v3#1", "role": "executor", "t_in": 437, "t_out": 13, "cost": 132.29000000000002}], "cumulative_cost": 132.29000000000002, "final_answer": "the answer is 42", "success": true, "oob": false, "halt": "precall_guard", "detail": "budget guard: skipped executor call on gpt-4.1-nano#1"}'
    ),
    "backend_failure": (
        '{"task_id": "t1", "topology": "feedback", "budget": 10000.0, "calls": [{"model": "gpt-4.1-nano", "instance": "gpt-4.1-nano#1", "role": "executor", "t_in": 437, "t_out": 3, "cost": 44.900000000000006}, {"model": "gpt-4.1-nano", "instance": "gpt-4.1-nano#2", "role": "executor", "t_in": 437, "t_out": 3, "cost": 44.900000000000006}], "cumulative_cost": 89.80000000000001, "final_answer": "42", "success": false, "oob": false, "halt": "backend_failure", "detail": "backend failure (critic on deepseek-v3#1): script exhausted: no rule for role=\'critic\' occurrence=1"}'
    ),
    "evaluator_failure": (
        '{"task_id": "t1", "topology": "star", "budget": 10000.0, "calls": [{"model": "deepseek-v3", "instance": "deepseek-v3#1", "role": "executor", "t_in": 437, "t_out": 13, "cost": 132.29000000000002}, {"model": "gpt-4.1-nano", "instance": "gpt-4.1-nano#1", "role": "executor", "t_in": 437, "t_out": 9, "cost": 47.300000000000004}, {"model": "gpt-4.1-nano", "instance": "gpt-4.1-nano#2", "role": "executor", "t_in": 437, "t_out": 13, "cost": 48.900000000000006}], "cumulative_cost": 228.49000000000004, "final_answer": "the answer is 42", "success": false, "oob": false, "halt": "evaluator_failure", "detail": "evaluator failure: grader crashed"}'
    ),
    "star_over_budget": (
        '{"task_id": "t1", "topology": "star", "budget": 150.0, "calls": [{"model": "deepseek-v3", "instance": "deepseek-v3#1", "role": "executor", "t_in": 437, "t_out": 13, "cost": 132.29000000000002}, {"model": "gpt-4.1-nano", "instance": "gpt-4.1-nano#1", "role": "executor", "t_in": 437, "t_out": 9, "cost": 47.300000000000004}], "cumulative_cost": 179.59000000000003, "final_answer": "says 7", "success": false, "oob": true, "halt": "budget_exceeded", "detail": null}'
    ),
    "over_budget_evaluator_failure": (
        '{"task_id": "t1", "topology": "linear", "budget": 400.0, "calls": [{"model": "deepseek-v3", "instance": "deepseek-v3#1", "role": "executor", "t_in": 437, "t_out": 384, "cost": 540.3900000000001}], "cumulative_cost": 540.3900000000001, "final_answer": "x 1", "success": false, "oob": true, "halt": "evaluator_failure", "detail": "evaluator failure: grader crashed"}'
    ),
    "star_normalize_failure": (
        '{"task_id": "t1", "topology": "star", "budget": 10000.0, "calls": [{"model": "deepseek-v3", "instance": "deepseek-v3#1", "role": "executor", "t_in": 437, "t_out": 13, "cost": 132.29000000000002}, {"model": "gpt-4.1-nano", "instance": "gpt-4.1-nano#1", "role": "executor", "t_in": 437, "t_out": 9, "cost": 47.300000000000004}, {"model": "gpt-4.1-nano", "instance": "gpt-4.1-nano#2", "role": "executor", "t_in": 437, "t_out": 13, "cost": 48.900000000000006}], "cumulative_cost": 228.49000000000004, "final_answer": null, "success": false, "oob": false, "halt": "evaluator_failure", "detail": "evaluator failure: normalizer crashed"}'
    ),
    "seeded_text": (
        '{"task_id": "t1", "topology": "linear", "budget": 10000.0, "calls": [{"model": "deepseek-v3", "instance": "deepseek-v3#1", "role": "executor", "t_in": 437, "t_out": 13, "cost": 132.29000000000002}, {"model": "gpt-4.1-nano", "instance": "gpt-4.1-nano#1", "role": "executor", "t_in": 437, "t_out": 9, "cost": 47.300000000000004}], "cumulative_cost": 179.59000000000003, "final_answer": "golf juliet bravo echo golf charlie kilo india hotel", "success": false, "oob": false, "halt": null, "detail": null}'
    ),
    "billed_failure": (
        '{"task_id": "t1", "topology": "linear", "budget": 10000.0, "calls": [{"model": "deepseek-v3", "instance": "deepseek-v3#1", "role": "executor", "t_in": 437, "t_out": 13, "cost": 132.29000000000002}, {"model": "gpt-4.1-nano", "instance": "gpt-4.1-nano#1", "role": "executor", "t_in": 437, "t_out": 5, "cost": 45.7}], "cumulative_cost": 177.99, "final_answer": "the answer is 42", "success": false, "oob": false, "halt": "backend_failure", "detail": "backend failure (executor on gpt-4.1-nano#1): response had no message content"}'
    ),
    "wildcard_rule": (
        '{"task_id": "t1", "topology": "feedback", "budget": 10000.0, "calls": [{"model": "gpt-4.1-nano", "instance": "gpt-4.1-nano#1", "role": "executor", "t_in": 437, "t_out": 11, "cost": 48.1}, {"model": "gpt-4.1-nano", "instance": "gpt-4.1-nano#2", "role": "executor", "t_in": 437, "t_out": 11, "cost": 48.1}, {"model": "deepseek-v3", "instance": "deepseek-v3#1", "role": "critic", "t_in": 437, "t_out": 11, "cost": 130.09}], "cumulative_cost": 226.29000000000002, "final_answer": "ACCEPT, the answer is 42", "success": true, "oob": false, "halt": null, "detail": null}'
    ),
}

GOLDEN_DATASET = (
    '{"version": 1, "catalog_hash": "abc", "seed": 3}\n'
    '{"task_id": "t1", "task_text": "What is 6 times 7?", "budget": 400.0, "topology": 0, "success": true, "actual_cost": 228.49000000000004}\n'
    '{"task_id": "t1", "task_text": "What is 6 times 7?", "budget": 400.0, "topology": 1, "success": true, "actual_cost": 228.49000000000004}\n'
    '{"task_id": "t1", "task_text": "What is 6 times 7?", "budget": 400.0, "topology": 2, "success": true, "actual_cost": 390.9800000000001}\n'
    '{"task_id": "t1", "task_text": "What is 6 times 7?", "budget": 400.0, "topology": 3, "success": true, "actual_cost": 408.94000000000005}\n'
    '{"task_id": "t2", "task_text": "Add 19 and 23.", "budget": 400.0, "topology": 0, "success": true, "actual_cost": 228.49000000000004}\n'
    '{"task_id": "t2", "task_text": "Add 19 and 23.", "budget": 400.0, "topology": 1, "success": true, "actual_cost": 228.49000000000004}\n'
    '{"task_id": "t2", "task_text": "Add 19 and 23.", "budget": 400.0, "topology": 2, "success": true, "actual_cost": 390.9800000000001}\n'
    '{"task_id": "t2", "task_text": "Add 19 and 23.", "budget": 400.0, "topology": 3, "success": true, "actual_cost": 408.94000000000005}\n'
)


def test_every_case_has_a_golden_trace():
    assert RUNS.keys() == GOLDEN_TRACES.keys()


@pytest.mark.parametrize("case", list(GOLDEN_TRACES))
def test_trace_bytes_are_unchanged(case):
    assert RUNS[case]().to_json() == GOLDEN_TRACES[case]


def test_collect_rows_are_unchanged(tmp_path):
    tasks = [TASK, TaskSpec("t2", "Add 19 and 23.", answer="42")]
    collected = dataset.collect(tasks, [400.0], {400.0: POOL}, backends(), EVAL)
    path = tmp_path / "dataset.jsonl"
    dataset.save(collected, path, {"catalog_hash": "abc", "seed": 3})
    assert path.read_bytes() == GOLDEN_DATASET.encode()


def test_collect_records_a_raising_normalize_and_carries_on():
    collected = dataset.collect([TASK], [10_000.0], {10_000.0: POOL}, backends(), RaisingNormalizer())
    rows = {row.topology: row for row in collected}  # one task, one budget
    assert sorted(rows) == [int(t) for t in Topology]
    assert rows[Topology.STAR].actual_cost == 228.49000000000004  # its three calls stay billed
    # Grading normalizes too, so every topology's row is an evaluator failure.
    assert all(row.error == "evaluator failure: normalizer crashed" and not row.success for row in rows.values())
