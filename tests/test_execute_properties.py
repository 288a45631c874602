"""Generated cases for `execute`'s budget rule.

Each case draws a script (role- and step-keyed rules with token counts,
ACCEPT or REJECT verdicts and plans of 0 to 5 steps), calls that fail with or
without a billed usage, a pool of 2 to 6 agents over a small catalog,
ExecutionLimits with and without a pre-call slack, per-role token caps and a
budget. Every topology the pool can staff then runs, and its trace must keep
the ledger's invariants. A second test runs each topology with no budget in
reach and no failing call, and checks the number of calls its flow makes.
"""

import re

from hypothesis import given
from hypothesis import strategies as st

from budgetagents.backend import CallRequest, ProtocolError, ScriptedBackend, ScriptRule
from budgetagents.catalog import ModelSpec, estimate_cost
from budgetagents.evaluators import NumericEvaluator
from budgetagents.profile import DEFAULT_MAX_TOKENS, ROLE_CRITIC, ROLE_EXECUTOR, ROLE_PLANNER, ROLES, TaskSpec
from budgetagents.topology import (
    BACKEND_FAILURE,
    BUDGET_EXCEEDED,
    EVALUATOR_FAILURE,
    AgentInstance,
    ExecutionLimits,
    Topology,
    execute,
    staffable_topologies,
)

CATALOG = (
    ModelSpec("strong", 1, 1.0, 4.0, "scripted"),
    ModelSpec("mid", 2, 0.3, 1.2, "scripted"),
    ModelSpec("weak", 3, 0.1, 0.4, "scripted"),
)
MODELS = {model.name: model for model in CATALOG}
TASK = TaskSpec("t", "What is 6 times 7?", answer="42")


class FailingBackend(ScriptedBackend):
    """Scripted, except that each call keyed in `failures` by (role,
    occurrence) fails; a failure with usage was billed for it."""

    def __init__(self, rules, failures):
        super().__init__(rules, default_prompt_tokens=300)
        self.failures = failures

    def invoke(self, request):
        key = (request.role, request.occurrence)
        if key in self.failures:
            raise ProtocolError("drawn failure", usage=self.failures[key])
        return super().invoke(request)


class RaisingGrade(NumericEvaluator):
    def grade(self, text, task):
        raise RuntimeError("grader crashed")


TOKENS = st.integers(0, 600)
TEXTS = {
    ROLE_EXECUTOR: st.sampled_from(["42", "the answer is 41", "#### 42", "no number"]),
    ROLE_CRITIC: st.sampled_from(["ACCEPT", "REJECT\nshow the product", "REJECT"]),
    ROLE_PLANNER: st.integers(0, 5).map(lambda n: "\n".join(f"{i}. step {i}" for i in range(1, n + 1)) or "no plan"),
}


def role_rules(role):
    """Up to three step-keyed rules for `role`, then a rule for its every call."""

    def rule(step):
        return st.builds(ScriptRule, role=st.just(role), step=step, text=TEXTS[role], completion_tokens=TOKENS,
                         prompt_tokens=st.none() | TOKENS)

    return st.tuples(st.lists(rule(st.integers(1, 4)), max_size=3), rule(st.none())).map(lambda d: d[0] + [d[1]])


@st.composite
def cases(draw):
    rules = [rule for role in ROLES for rule in draw(role_rules(role))]
    failures = draw(st.dictionaries(
        st.tuples(st.sampled_from(ROLES), st.integers(1, 4)), st.none() | st.tuples(TOKENS, TOKENS), max_size=2
    ))
    models = sorted(draw(st.lists(st.sampled_from(CATALOG), min_size=2, max_size=6)), key=lambda m: m.tier)
    pool = [AgentInstance(model, f"{model.name}#{k}") for k, model in enumerate(models, start=1)]
    limits = draw(st.builds(
        ExecutionLimits,
        max_feedback_rounds=st.integers(0, 3),
        max_replans=st.integers(0, 2),
        precall_slack=st.none() | st.floats(0.0, 500.0),
    ))
    max_tokens = draw(st.fixed_dictionaries({}, optional={role: st.integers(1, 600) for role in ROLES}))
    return {
        "pool": pool,
        "budget": draw(st.floats(1.0, 10_000.0) | st.integers(1, 10_000).map(float)),
        "backends": {"scripted": FailingBackend(rules, failures)},
        "evaluator": draw(st.sampled_from([NumericEvaluator(), NumericEvaluator(), RaisingGrade()])),
        "limits": limits,
        "max_tokens": {**DEFAULT_MAX_TOKENS, **max_tokens},
        "planned_t_in": draw(st.integers(0, 600)),
    }


@given(case=cases())
def test_every_topology_keeps_the_ledger(case):
    budget, limits = case["budget"], case["limits"]
    for topology in staffable_topologies(case["pool"]):
        trace = execute(TASK, topology=topology, **case)
        assert execute(TASK, topology=topology, **case).to_json() == trace.to_json()
        total = 0.0  # the running total, summed in call order as the run sums it
        for call in trace.calls:
            model = MODELS[call.model]
            assert total <= budget, "a call started after the running total crossed the budget"
            if limits.precall_slack is not None:
                worst = estimate_cost(model, case["planned_t_in"], case["max_tokens"][call.role])
                assert total + worst <= budget + limits.precall_slack
            assert call.cost == estimate_cost(model, call.t_in, call.t_out)
            total += call.cost
        assert trace.cumulative_cost == total
        assert trace.oob == (total > budget)
        if trace.oob:
            assert trace.halt in (BUDGET_EXCEEDED, BACKEND_FAILURE, EVALUATOR_FAILURE)
        if trace.halt == BUDGET_EXCEEDED:
            assert trace.oob


def plan_steps(backend, occurrence):
    """The numbered lines of the plan the scripted backend returns for the
    run's `occurrence`-th planner call."""
    text = backend.invoke(CallRequest("strong", "", "", 1, role=ROLE_PLANNER, occurrence=occurrence)).text
    return sum(1 for line in text.splitlines() if re.match(r"\s*\d+[.)]\s*\S", line))


@given(
    rules=st.tuples(*(role_rules(role) for role in ROLES)).map(lambda per_role: [r for rules in per_role for r in rules]),
    models=st.lists(st.sampled_from(CATALOG), min_size=2, max_size=6),
    limits=st.builds(ExecutionLimits, max_feedback_rounds=st.integers(0, 3), max_replans=st.integers(0, 2)),
)
def test_each_topology_makes_its_call_count(rules, models, limits):
    models = sorted(models, key=lambda m: m.tier)
    pool = [AgentInstance(model, f"{model.name}#{k}") for k, model in enumerate(models, start=1)]
    backend = ScriptedBackend(rules, default_prompt_tokens=300)
    n, rounds = len(pool), limits.max_feedback_rounds
    for topology in staffable_topologies(pool):
        trace = execute(TASK, pool, topology, 1e12, {"scripted": backend}, NumericEvaluator(), limits)
        assert trace.halt is None  # no budget in reach and no failing call: the flow ran to its end
        calls = len(trace.calls)
        if topology in (Topology.LINEAR, Topology.STAR):
            assert calls == n
        elif topology == Topology.FEEDBACK and rounds == 0:
            assert calls == n - 1  # the relay alone
        elif topology == Topology.FEEDBACK:
            assert n <= calls <= n + 2 * rounds - 2
        else:
            # Each attempt makes a plan call, then, if the plan has steps, a
            # call per step and a critic call.
            attempts = [c.role for c in trace.calls].count(ROLE_PLANNER)
            assert 1 <= attempts <= limits.max_replans + 1
            per_attempt = [plan_steps(backend, k) for k in range(1, attempts + 1)]
            assert calls == sum(steps + 2 if steps else 1 for steps in per_attempt)
