import dataclasses
import json

import pytest

from budgetagents import cli
from budgetagents.backend import CallResponse, HttpBackend, ProtocolError, ScriptedBackend, ScriptRule
from budgetagents.catalog import ModelCatalog, ModelSpec, estimate_cost
from budgetagents.evaluators import NumericEvaluator
from budgetagents.profile import TaskSpec
from budgetagents.schema import check
from budgetagents.topology import (
    AgentInstance,
    ExecutionLimits,
    TRACE_FIELDS,
    TRACE_REQUIRED,
    Topology,
    TOPOLOGY_NAMES,
    execute,
    expand_pool,
    staffable_topologies,
    topology_from_name,
)
from synth import RecordingBackend

DEEPSEEK = ModelSpec("deepseek-v3", 1, 0.27, 1.10, "deepseek")
NANO = ModelSpec("gpt-4.1-nano", 2, 0.10, 0.40, "openai")
TASK = TaskSpec("t1", "What is 6 times 7?", answer="42")
EVAL = NumericEvaluator()


def nano_pool(n):
    return [AgentInstance(NANO, f"gpt-4.1-nano#{i + 1}") for i in range(n)]


def registry(rules, default_prompt_tokens=500):
    backend = RecordingBackend(rules, default_prompt_tokens=default_prompt_tokens)
    return {"openai": backend, "deepseek": backend}, backend


# -- seating ------------------------------------------------------------------


def seats(trace):
    return [(c.role, c.instance) for c in trace.calls]


def test_assign_feedback_strongest_is_critic():
    pool = [AgentInstance(DEEPSEEK, "deepseek-v3#1")] + nano_pool(3)
    backends, _ = registry(
        [
            ScriptRule(role="executor", text="42", completion_tokens=10),
            ScriptRule(role="critic", text="ACCEPT", completion_tokens=2),
        ]
    )
    trace = execute(TASK, pool, Topology.FEEDBACK, 10_000.0, backends, EVAL)
    assert seats(trace) == [
        ("executor", "gpt-4.1-nano#1"),
        ("executor", "gpt-4.1-nano#2"),
        ("executor", "gpt-4.1-nano#3"),
        ("critic", "deepseek-v3#1"),
    ]


def test_assign_linear_all_executors_in_order():
    backends, _ = registry([ScriptRule(role="executor", text="42", completion_tokens=10)])
    trace = execute(TASK, nano_pool(3), Topology.LINEAR, 10_000.0, backends, EVAL)
    assert seats(trace) == [
        ("executor", "gpt-4.1-nano#1"),
        ("executor", "gpt-4.1-nano#2"),
        ("executor", "gpt-4.1-nano#3"),
    ]


def test_assign_planner_needs_three():
    backends, _ = registry([ScriptRule(text="x")])
    for size in (1, 2):
        pool = [AgentInstance(DEEPSEEK, "deepseek-v3#1"), AgentInstance(NANO, "gpt-4.1-nano#1")][:size]
        message = f"planner topology needs at least 3 instances (planner + critic + executor), pool has {size}"
        with pytest.raises(ValueError) as info:
            execute(TASK, pool, Topology.PLANNER_DRIVEN, 10_000.0, backends, EVAL)
        assert str(info.value) == message
        # the pool is checked before the budget
        with pytest.raises(ValueError) as info:
            execute(TASK, pool, Topology.PLANNER_DRIVEN, 0.0, backends, EVAL)
        assert str(info.value) == message


@pytest.mark.parametrize("budget", [float("nan"), float("inf"), 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
def test_execute_rejects_a_budget_that_is_not_finite_and_positive(budget):
    backends, backend = registry([ScriptRule(text="42", completion_tokens=10)])
    with pytest.raises(ValueError) as info:
        execute(TASK, nano_pool(2), Topology.LINEAR, budget, backends, EVAL)
    assert str(info.value) == f"budget must be a finite number > 0, got {budget!r}"
    assert backend.calls == []


def test_assign_planner_roles():
    pool = [AgentInstance(DEEPSEEK, "deepseek-v3#1")] + nano_pool(2)
    backends, _ = registry(
        [
            ScriptRule(role="planner", text="1. multiply 6 by 7\n2. report the product", completion_tokens=20),
            ScriptRule(role="executor", text="42", completion_tokens=10),
            ScriptRule(role="critic", text="ACCEPT", completion_tokens=2),
        ]
    )
    trace = execute(TASK, pool, Topology.PLANNER_DRIVEN, 10_000.0, backends, EVAL)
    assert seats(trace) == [
        ("planner", "deepseek-v3#1"),
        ("executor", "gpt-4.1-nano#2"),
        ("executor", "gpt-4.1-nano#2"),
        ("critic", "gpt-4.1-nano#1"),
    ]


def test_assign_needs_two():
    backends, _ = registry([ScriptRule(text="x")])
    with pytest.raises(ValueError) as info:
        execute(TASK, nano_pool(1), Topology.LINEAR, 10_000.0, backends, EVAL)
    assert str(info.value) == "linear needs at least 2 instances, pool has 1"


def test_staffable_topologies_follow_pool_minimums():
    assert staffable_topologies(nano_pool(1)) == ()
    assert staffable_topologies(nano_pool(2)) == (Topology.LINEAR, Topology.STAR, Topology.FEEDBACK)
    assert staffable_topologies(nano_pool(3)) == tuple(Topology)
    for topo in Topology:
        pool = nano_pool(topo.min_agents)
        assert topo in staffable_topologies(pool)
        backends, _ = registry([ScriptRule(text="1. answer 42")])
        execute(TASK, pool, topo, 10_000.0, backends, EVAL)
        with pytest.raises(ValueError, match="at least"):
            execute(TASK, pool[:-1], topo, 10_000.0, backends, EVAL)


def test_expand_pool_orders_by_tier():
    catalog = ModelCatalog([DEEPSEEK, NANO])
    pool = expand_pool(catalog, (1, 3))
    assert [i.label for i in pool] == [
        "deepseek-v3#1",
        "gpt-4.1-nano#1",
        "gpt-4.1-nano#2",
        "gpt-4.1-nano#3",
    ]


def test_topology_names_round_trip():
    assert [topology_from_name(n) for n in TOPOLOGY_NAMES] == list(Topology)
    with pytest.raises(ValueError):
        topology_from_name("ring")


# -- linear -------------------------------------------------------------------


def test_linear_two_executor_trace_cost():
    pool = nano_pool(2)
    backends, backend = registry(
        [ScriptRule(role="executor", text="The answer is 42", completion_tokens=100)]
    )
    trace = execute(TASK, pool, Topology.LINEAR, 1000.0, backends, EVAL)
    assert len(trace.calls) == 2
    assert trace.cumulative_cost == pytest.approx(180.0)
    assert trace.success is True
    assert not trace.oob and trace.halt is None
    # sequential chaining: the second prompt embeds the first output
    assert "The answer is 42" in backend.calls[1].user
    assert "The answer is 42" not in backend.calls[0].user


def test_linear_budget_crossing_terminates():
    pool = nano_pool(2)
    backends, _ = registry(
        [ScriptRule(role="executor", text="The answer is 42", completion_tokens=100)]
    )
    trace = execute(TASK, pool, Topology.LINEAR, 100.0, backends, EVAL)
    # first call costs 90 <= 100; the second completes and crosses at 180
    assert len(trace.calls) == 2
    assert trace.cumulative_cost == pytest.approx(180.0)
    assert trace.oob and trace.halt == "budget_exceeded"
    assert trace.final_answer == "The answer is 42"


def test_ledger_matches_shadow_sum():
    pool = nano_pool(3)
    backends, _ = registry(
        [
            ScriptRule(role="executor", step=1, text="a 1", completion_tokens=37, prompt_tokens=411),
            ScriptRule(role="executor", step=2, text="b 2", completion_tokens=250, prompt_tokens=777),
            ScriptRule(role="executor", step=3, text="c 3", completion_tokens=5, prompt_tokens=123),
        ]
    )
    trace = execute(TASK, pool, Topology.LINEAR, 10_000.0, backends, EVAL)
    shadow = 0.0
    for call in trace.calls:
        shadow += estimate_cost(NANO, call.t_in, call.t_out)
    assert trace.cumulative_cost == shadow


# -- star ---------------------------------------------------------------------


def star_rules(texts):
    return [
        ScriptRule(role="executor", step=i + 1, text=t, completion_tokens=10)
        for i, t in enumerate(texts)
    ]


def test_star_majority_vote():
    pool = nano_pool(3)
    backends, _ = registry(star_rules(["I get 41", "It is 42", "Answer: 42"]))
    trace = execute(TASK, pool, Topology.STAR, 1000.0, backends, EVAL)
    assert trace.final_answer == "It is 42"
    assert trace.success is True
    assert len(trace.calls) == 3


def test_star_unanimous_answer_wins_regardless_of_weights():
    pool = [AgentInstance(DEEPSEEK, "deepseek-v3#1")] + nano_pool(2)
    backends, _ = registry(star_rules(["42", "total 42", "-> 42"]))
    trace = execute(TASK, pool, Topology.STAR, 10_000.0, backends, EVAL)
    assert EVAL.normalize(trace.final_answer) == "42.0"


def test_star_tie_breaks_to_highest_weight():
    pool = nano_pool(4)
    backends, _ = registry(star_rules(["says 7", "says 9", "says 9", "says 7"]))
    trace = execute(TASK, pool, Topology.STAR, 10_000.0, backends, EVAL)
    assert trace.final_answer == "says 7"  # executor #1 outranks #2


def test_star_all_unparseable_falls_back_to_first():
    pool = nano_pool(2)
    backends, _ = registry(star_rules(["no idea", "cannot tell"]))
    trace = execute(TASK, pool, Topology.STAR, 10_000.0, backends, EVAL)
    assert trace.final_answer == "no idea"
    assert trace.success is False


# -- feedback -----------------------------------------------------------------


def test_feedback_accept_on_first_audit():
    pool = nano_pool(2)
    backends, _ = registry(
        [
            ScriptRule(role="executor", text="42", completion_tokens=10),
            ScriptRule(role="critic", text="ACCEPT", completion_tokens=2),
        ]
    )
    trace = execute(TASK, pool, Topology.FEEDBACK, 10_000.0, backends, EVAL)
    assert [c.role for c in trace.calls] == ["executor", "critic"]
    assert trace.success is True


def test_feedback_reject_then_accept():
    pool = nano_pool(2)
    backends, backend = registry(
        [
            ScriptRule(role="executor", step=1, text="41", completion_tokens=10),
            ScriptRule(role="executor", step=2, text="42", completion_tokens=10),
            ScriptRule(role="critic", step=1, text="REJECT: off by one", completion_tokens=5),
            ScriptRule(role="critic", step=2, text="ACCEPT", completion_tokens=2),
        ]
    )
    trace = execute(TASK, pool, Topology.FEEDBACK, 10_000.0, backends, EVAL)
    assert [c.role for c in trace.calls] == ["executor", "critic", "executor", "critic"]
    assert trace.final_answer == "42"
    assert trace.success is True
    # the critique is routed into the revision prompt
    assert "off by one" in backend.calls[2].user


def test_one_registry_replays_every_run():
    # Each run counts its own calls, so step-keyed rules restart with every
    # run on a shared backend instead of continuing the previous run's count.
    pool = nano_pool(2)
    backends, backend = registry(
        [
            ScriptRule(role="executor", text="42", completion_tokens=10),
            ScriptRule(role="critic", step=1, text="REJECT: show the work", completion_tokens=5),
            ScriptRule(role="critic", step=2, text="REJECT: still terse", completion_tokens=5),
            ScriptRule(role="critic", step=3, text="ACCEPT", completion_tokens=2),
        ]
    )
    first, second = (execute(TASK, pool, Topology.FEEDBACK, 10_000.0, backends, EVAL) for _ in range(2))
    assert [c.role for c in first.calls] == ["executor", "critic"] * 3
    assert first.success is True and first.halt is None and first.detail is None
    assert first.to_json().encode() == second.to_json().encode()
    assert [(r.role, r.occurrence) for r in backend.calls[:6]] == [
        ("executor", 1), ("critic", 1), ("executor", 2), ("critic", 2), ("executor", 3), ("critic", 3),
    ]
    assert backend.calls[6:] == backend.calls[:6]


def test_feedback_round_cap():
    pool = nano_pool(2)
    backends, _ = registry(
        [
            ScriptRule(role="executor", text="41", completion_tokens=10),
            ScriptRule(role="critic", text="REJECT: still wrong", completion_tokens=5),
        ]
    )
    trace = execute(
        TASK, pool, Topology.FEEDBACK, 10_000.0, backends, EVAL,
        limits=ExecutionLimits(max_feedback_rounds=3),
    )
    # rounds: (exec, critic), (exec, critic), (exec, critic-final) -> 6 calls
    assert [c.role for c in trace.calls] == [
        "executor", "critic", "executor", "critic", "executor", "critic",
    ]
    assert trace.final_answer == "41"
    assert trace.success is False


def test_feedback_critic_never_answers():
    pool = nano_pool(2)
    backends, _ = registry(
        [
            ScriptRule(role="executor", text="no numbers here", completion_tokens=10),
            ScriptRule(role="critic", text="ACCEPT 12345", completion_tokens=4),
        ]
    )
    trace = execute(TASK, pool, Topology.FEEDBACK, 10_000.0, backends, EVAL)
    assert trace.final_answer == "no numbers here"  # critic text is never the answer


def test_feedback_multi_executor_relay_then_audit():
    pool = nano_pool(3)
    backends, _ = registry(
        [
            ScriptRule(role="executor", text="draft 42", completion_tokens=10),
            ScriptRule(role="critic", text="ACCEPT", completion_tokens=2),
        ]
    )
    trace = execute(TASK, pool, Topology.FEEDBACK, 10_000.0, backends, EVAL)
    assert [c.role for c in trace.calls] == ["executor", "executor", "critic"]


# -- planner ------------------------------------------------------------------


def planner_pool():
    return [AgentInstance(DEEPSEEK, "deepseek-v3#1")] + nano_pool(2)


def test_planner_happy_path():
    pool = planner_pool()
    backends, backend = registry(
        [
            ScriptRule(role="planner", text="1. multiply 6 by 7\n2. report the product", completion_tokens=20),
            ScriptRule(role="executor", text="42", completion_tokens=10),
            ScriptRule(role="critic", text="ACCEPT", completion_tokens=2),
        ]
    )
    trace = execute(TASK, pool, Topology.PLANNER_DRIVEN, 10_000.0, backends, EVAL)
    assert [c.role for c in trace.calls] == ["planner", "executor", "executor", "critic"]
    assert trace.success is True
    # planner never executes steps; executors receive the step text
    assert "multiply 6 by 7" in backend.calls[1].user


def test_planner_invalid_plans_capped_at_two_replannings():
    pool = planner_pool()
    backends, _ = registry([ScriptRule(role="planner", text="no steps in sight", completion_tokens=8)])
    trace = execute(TASK, pool, Topology.PLANNER_DRIVEN, 10_000.0, backends, EVAL)
    assert [c.role for c in trace.calls] == ["planner", "planner", "planner"]
    assert trace.final_answer is None
    assert trace.success is False


def test_planner_replans_on_rejection():
    pool = planner_pool()
    backends, backend = registry(
        [
            ScriptRule(role="planner", step=1, text="1. guess", completion_tokens=10),
            ScriptRule(role="planner", step=2, text="1. compute 6*7", completion_tokens=10),
            ScriptRule(role="executor", step=1, text="41", completion_tokens=10),
            ScriptRule(role="executor", step=2, text="42", completion_tokens=10),
            ScriptRule(role="critic", step=1, text="REJECT: wrong result", completion_tokens=5),
            ScriptRule(role="critic", step=2, text="ACCEPT", completion_tokens=2),
        ]
    )
    trace = execute(TASK, pool, Topology.PLANNER_DRIVEN, 10_000.0, backends, EVAL)
    assert [c.role for c in trace.calls] == [
        "planner", "executor", "critic", "planner", "executor", "critic",
    ]
    assert trace.final_answer == "42"
    assert "wrong result" in backend.calls[3].user  # critique reaches the replanner


# -- budget and failure handling ----------------------------------------------


def test_no_call_after_ledger_exceeds_budget():
    pool = nano_pool(3)
    backends, _ = registry([ScriptRule(role="executor", text="x 1", completion_tokens=1000)])
    # each call costs 500*0.1 + 384*0.4 = 203.6 (384 = max_tokens cap)
    trace = execute(TASK, pool, Topology.LINEAR, 300.0, backends, EVAL)
    assert len(trace.calls) == 2  # the second call crosses; the third never starts
    assert trace.oob and trace.halt == "budget_exceeded"


def test_precall_guard_skips_when_enabled():
    pool = nano_pool(2)
    backends, _ = registry([ScriptRule(role="executor", text="answer 42", completion_tokens=100)])
    limits = ExecutionLimits(precall_slack=0.0)
    trace = execute(TASK, pool, Topology.LINEAR, 100.0, backends, EVAL, limits=limits)
    # worst case 500*0.1 + 384*0.4 = 203.6 > 100: nothing ever runs
    assert len(trace.calls) == 0
    assert not trace.oob and trace.halt == "precall_guard"
    assert "budget guard" in trace.detail


def test_nonretryable_backend_failure_halts_without_retry():
    pool = nano_pool(2)
    backend = RecordingBackend([ScriptRule(role="critic", text="never matches")])
    trace = execute(TASK, pool, Topology.LINEAR, 1000.0, {"openai": backend}, EVAL)
    assert trace.success is False
    assert trace.halt == "backend_failure" and "backend failure" in trace.detail
    assert len(backend.calls) == 1  # a ScriptError is not retryable
    assert len(trace.calls) == 0


@pytest.mark.parametrize("status, posts", [(500, 2), (400, 1)])
def test_http_failure_posts_once_plus_backend_retry(fake_server, status, posts):
    # The backend's single retry (retryable statuses only) is the only one.
    for _ in range(4):
        fake_server.enqueue(status, {"error": "no"})
    backend = HttpBackend(fake_server.url, backoff_base=0.01)
    pool = nano_pool(2)
    trace = execute(TASK, pool, Topology.LINEAR, 1000.0, {"openai": backend}, EVAL)
    assert trace.success is False
    assert trace.halt == "backend_failure" and f"HTTP {status}" in trace.detail
    assert len(fake_server.requests) == posts


@pytest.mark.parametrize("billed_failure", [False, True], ids=["response", "billed_failure"])
def test_the_ledger_refuses_a_negative_token_count(billed_failure):
    # A plugged-in backend's counts are checked where they are charged.
    class NegativeCountBackend:
        def invoke(self, request):
            if billed_failure:
                raise ProtocolError("response had no message content", usage=(5, -1))
            return CallResponse("42", -1, 5)

    with pytest.raises(ValueError, match="^token counts must be >= 0$"):
        execute(TASK, nano_pool(2), Topology.LINEAR, 1000.0, {"openai": NegativeCountBackend()}, EVAL)


def test_evaluator_failure_marks_unsuccessful():
    class ExplodingEvaluator:
        name = "boom"

        def normalize(self, text):
            return text

        def grade(self, text, task):
            raise RuntimeError("grader crashed")

    pool = nano_pool(2)
    backends, _ = registry([ScriptRule(role="executor", text="42", completion_tokens=5)])
    trace = execute(TASK, pool, Topology.LINEAR, 1000.0, backends, ExplodingEvaluator())
    assert trace.success is False
    assert trace.halt == "evaluator_failure" and "evaluator failure" in trace.detail


def test_success_undetermined_without_ground_truth():
    task = TaskSpec("t2", "free-form question")
    pool = nano_pool(2)
    backends, _ = registry([ScriptRule(role="executor", text="whatever", completion_tokens=5)])
    trace = execute(task, pool, Topology.LINEAR, 1000.0, backends, EVAL)
    assert trace.success is None


def test_trace_json_round_trip(tmp_path, capsys):
    # Every trace execute writes passes report's check: each topology, an
    # out-of-budget run and a backend failure.
    pool = [AgentInstance(DEEPSEEK, "deepseek-v3#1")] + nano_pool(2)
    rules = [
        ScriptRule(role="planner", text="1. multiply\n2. report", completion_tokens=20),
        ScriptRule(role="executor", text="42", completion_tokens=5),
        ScriptRule(role="critic", text="ACCEPT", completion_tokens=2),
    ]
    traces = [execute(TASK, pool, topo, 10_000.0, registry(rules)[0], EVAL) for topo in Topology]
    traces.append(execute(TASK, pool, Topology.LINEAR, 100.0, registry(rules)[0], EVAL))
    failing = ScriptedBackend([ScriptRule(role="critic", text="never matches")])
    traces.append(execute(TASK, pool, Topology.LINEAR, 10_000.0, {"openai": failing, "deepseek": failing}, EVAL))
    assert traces[4].oob and traces[5].halt == "backend_failure"
    for trace in traces:
        data = json.loads(trace.to_json())
        assert check(data, TRACE_FIELDS, required=TRACE_REQUIRED) == dataclasses.asdict(trace)
    path = tmp_path / "traces.jsonl"
    path.write_text("".join(t.to_json() + "\n" for t in traces))
    assert cli.main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "OOB 1/6" in out and "linear: 3/6" in out and "planner: 1/6" in out


def test_byte_determinism():
    pool = nano_pool(3)
    rules = star_rules(["one 1", "two 2", "two 2"])
    t1 = execute(TASK, pool, Topology.STAR, 1000.0, registry(rules)[0], EVAL)
    t2 = execute(TASK, pool, Topology.STAR, 1000.0, registry(rules)[0], EVAL)
    assert t1.to_json().encode() == t2.to_json().encode()
