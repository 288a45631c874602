"""Collaboration topologies and the budget-enforced execution engine.

Four workflow patterns over a provisioned agent pool: linear relay, star
fan-out with majority merge, generate-critique-revise feedback, and
planner-driven stepwise execution with bounded replanning. Every call is
costed from backend-reported token usage and added to the run's total;
execution halts the moment that total crosses the budget (a call's cost is
only known after it completes, so the final call may be the one that
crosses).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import IntEnum
from typing import Mapping, Sequence

from .backend import Backend, BackendError, CallRequest
from .catalog import ModelCatalog, ModelSpec, estimate_cost
from .evaluators import Evaluator
from .profile import DEFAULT_INPUT_TOKENS, DEFAULT_MAX_TOKENS, ROLE_CRITIC, ROLE_EXECUTOR, ROLE_PLANNER, TaskSpec
from .reward import check_budget
from .schema import BOOL, INT, LINE_ENCODER, NUMBER, STRING, each, non_negative, nullable, obj, spec, table, validate


class Topology(IntEnum):
    """Each topology's one declaration: its index (the dataset's column), its
    name (`label`, as traces and `--topology` spell it), the fewest agents it
    can staff, and the seats they fill when they are more than executors.
    `execute` runs its flow, `_Runner.run_<label>`, whose name is `flow`."""

    label: str
    min_agents: int
    seats: str | None
    flow: str

    def __new__(cls, index: int, label: str, min_agents: int, seats: str | None = None) -> Topology:
        member = int.__new__(cls, index)
        member._value_ = index
        member.label, member.min_agents, member.seats = label, min_agents, seats
        member.flow = f"run_{label}"  # named once, not by every run
        return member

    LINEAR = 0, "linear", 2
    STAR = 1, "star", 2
    FEEDBACK = 2, "feedback", 2
    PLANNER_DRIVEN = 3, "planner", 3, "planner + critic + executor"


TOPOLOGY_NAMES = tuple(t.label for t in Topology)

_STEP_RE = re.compile(r"^\s*\d+[.)]\s*(\S.*)$")

# Why a run stopped short of its flow's end, or failed to be graded: a trace's
# `halt` holds one of these, or null for a run that ran and was graded.
BUDGET_EXCEEDED, PRECALL_GUARD, BACKEND_FAILURE, EVALUATOR_FAILURE = HALT_REASONS = (
    "budget_exceeded", "precall_guard", "backend_failure", "evaluator_failure",
)


def topology_from_name(name: str) -> Topology:
    try:
        return Topology(TOPOLOGY_NAMES.index(name.strip().lower()))
    except ValueError:
        raise ValueError(f"unknown topology {name!r}; expected one of {TOPOLOGY_NAMES}") from None


@dataclass(frozen=True)
class AgentInstance:
    model: ModelSpec
    label: str


@dataclass(frozen=True)
class ExecutionLimits:
    max_feedback_rounds: int = spec(non_negative(INT), default=3)
    max_replans: int = spec(non_negative(INT), default=2)
    # Worst-case pre-call budget guard; None leaves enforcement purely post-call.
    precall_slack: float | None = spec(nullable(non_negative(NUMBER)), default=None)

    def __post_init__(self) -> None:
        validate(self)


# Plain, not frozen, for the speed of the per-call path (see CallRequest), and
# without slots: RunTrace.to_json encodes each record through vars().
@dataclass
class CallRecord:
    model: str = spec(STRING)
    instance: str = spec(STRING)
    role: str = spec(STRING)
    t_in: int = spec(INT)
    t_out: int = spec(INT)
    cost: float = spec(NUMBER)


_CALL_FIELDS = table(CallRecord)


@dataclass
class RunTrace:
    """One run, as a line of a trace file; each field's spec is how readers
    of trace files check it."""

    task_id: str = spec(STRING)
    topology: str = spec((lambda v: v in TOPOLOGY_NAMES, f"one of {', '.join(TOPOLOGY_NAMES)}"))
    budget: float = spec(NUMBER)
    calls: list[CallRecord] = spec(each(obj(_CALL_FIELDS, required=tuple(_CALL_FIELDS))), default_factory=list)
    cumulative_cost: float = spec(NUMBER, default=0.0)
    final_answer: str | None = spec(nullable(STRING), default=None)
    success: bool | None = spec(nullable(BOOL), default=None)
    oob: bool = spec(BOOL, default=False)
    halt: str | None = spec(  # one of HALT_REASONS; the last one set wins
        nullable((lambda v: v in HALT_REASONS, f"one of {', '.join(HALT_REASONS)}")), default=None
    )
    detail: str | None = spec(nullable(STRING), default=None)  # what halted it, in words; null for BUDGET_EXCEEDED

    def to_json(self) -> str:
        return LINE_ENCODER.encode(vars(self))


TRACE_FIELDS = table(RunTrace)
TRACE_REQUIRED = ("task_id", "topology", "budget", "cumulative_cost", "oob", "halt")


def expand_pool(catalog: ModelCatalog, counts: Sequence[int]) -> list[AgentInstance]:
    """Turn per-tier instance counts into concrete agents, strongest tier
    first. A tier's instances cycle through its members in declaration order;
    each is labeled name#k, its model's k-th instance."""
    if len(counts) != catalog.num_tiers:
        raise ValueError(f"expected {catalog.num_tiers} counts, got {len(counts)}")
    pool = []
    for tier, count in enumerate(counts, start=1):
        members = catalog.tier_models(tier)
        for k in range(count):
            model = members[k % len(members)]
            pool.append(AgentInstance(model=model, label=f"{model.name}#{k // len(members) + 1}"))
    return pool


def staffable_topologies(instances: list[AgentInstance]) -> tuple[Topology, ...]:
    """The topologies a pool of this size can staff, in index order."""
    return tuple(t for t in Topology if len(instances) >= t.min_agents)


class _Halt(Exception):
    """Internal control flow: stop issuing calls, keep what we have. Its args
    are the trace's halt reason and detail."""


def _parse_verdict(text: str) -> tuple[bool, str]:
    """(accepted, critique). Only an explicit REJECT first line triggers revision."""
    lines = [line.strip() for line in text.strip().splitlines() if line.strip()]
    if lines and lines[0].upper().startswith("REJECT"):
        critique = "\n".join(lines[1:]) or lines[0]
        return False, critique
    return True, ""


def _parse_plan(text: str) -> list[str]:
    """Numbered lines ('1. ...' or '2) ...') become plan steps."""
    steps = []
    for line in text.splitlines():
        match = _STEP_RE.match(line)
        if match:
            steps.append(match.group(1).strip())
    return steps


class _Runner:
    def __init__(
        self,
        task: TaskSpec,
        pool: Sequence[AgentInstance],
        topology: Topology,
        budget: float,
        backends: Mapping[str, Backend],
        evaluator: Evaluator,
        limits: ExecutionLimits,
        max_tokens: Mapping[str, int],
        planned_t_in: int,
    ):
        self.task = task
        self.pool = pool
        self.backends = backends
        self.evaluator = evaluator
        self.limits = limits
        self.max_tokens = max_tokens
        self.planned_t_in = planned_t_in
        # The run's ledger: `cumulative_cost` is its running total, and
        # `final_answer` the last executor's output, or star's vote.
        self.trace = RunTrace(task.id, topology.label, budget)
        self.occurrences: dict[str, int] = {}  # calls made so far, per role

    def call(self, instance: AgentInstance, role: str, system: str, user: str) -> str:
        model, limit, trace = instance.model, self.max_tokens[role], self.trace
        if self.limits.precall_slack is not None:
            worst = estimate_cost(model, self.planned_t_in, limit)
            if trace.cumulative_cost + worst > trace.budget + self.limits.precall_slack:
                raise _Halt(PRECALL_GUARD, f"budget guard: skipped {role} call on {instance.label}")
        occurrence = self.occurrences[role] = self.occurrences.get(role, 0) + 1
        request = CallRequest(model.name, system, user, limit, role, occurrence)
        backend = self.backends[model.backend_id]
        try:
            # Backends own the retry policy: HttpBackend retries a retryable failure once.
            response = backend.invoke(request)
        except BackendError as exc:
            if exc.usage is not None:  # the provider billed the failed call
                self._charge(instance, role, *exc.usage)
            raise _Halt(BACKEND_FAILURE, f"backend failure ({role} on {instance.label}): {exc}") from exc
        self._charge(instance, role, response.prompt_tokens, response.completion_tokens)
        if role == ROLE_EXECUTOR:
            trace.final_answer = response.text
        if trace.cumulative_cost > trace.budget:
            raise _Halt(BUDGET_EXCEEDED, None)
        return response.text

    def _charge(self, instance: AgentInstance, role: str, t_in: int, t_out: int) -> None:
        """Records one billed call and adds its cost to the run's total."""
        model, trace = instance.model, self.trace
        cost = estimate_cost(model, t_in, t_out)
        trace.calls.append(CallRecord(model.name, instance.label, role, t_in, t_out, cost))
        trace.cumulative_cost += cost

    # -- topology flows -----------------------------------------------------
    # Each flow seats the pool by position. The pool arrives strongest first,
    # so the strongest instances take the planner and critic seats.

    def _relay(self, executors: Sequence[AgentInstance]) -> str | None:
        """Each executor builds on the previous one's output; returns the last."""
        previous = None
        for inst in executors:
            user = self.task.text if previous is None else (
                f"{self.task.text}\n\nPrevious agent's output:\n{previous}\n\n"
                "Build on it and give the final answer."
            )
            previous = self.call(inst, ROLE_EXECUTOR, "You solve tasks step by step.", user)
        return previous

    def run_linear(self) -> None:
        self._relay(self.pool)

    def run_star(self) -> None:
        """Every executor answers alone; the answer is the majority of the
        normalized answers of the calls that returned, even when the run
        halts. A tie goes to the answer the strongest seat gave first; if no
        answer normalizes, the strongest seat's text stands. A `normalize`
        that raises halts the run unanswered, as `evaluator_failure`."""
        texts = []
        try:
            for inst in self.pool:
                texts.append(self.call(
                    inst,
                    ROLE_EXECUTOR,
                    "You solve the task independently and give the final answer.",
                    self.task.text,
                ))
        finally:
            votes: dict[str, list[int]] = {}  # normalized answer -> seats, in seat order
            try:
                for seat, text in enumerate(texts):
                    key = self.evaluator.normalize(text)
                    if key is not None:
                        votes.setdefault(key, []).append(seat)
            except Exception as exc:  # noqa: BLE001 - evaluator is user-pluggable
                self.trace.final_answer = None
                raise _Halt(EVALUATOR_FAILURE, f"evaluator failure: {exc}") from exc
            # max keeps the first of equal counts: the one whose first seat is strongest.
            self.trace.final_answer = texts[max(votes.values(), key=len, default=[0])[0]] if texts else None

    def run_feedback(self) -> None:
        critic, *executors = self.pool
        draft = self._relay(executors)
        reviser = executors[-1]
        for round_no in range(1, self.limits.max_feedback_rounds + 1):
            verdict = self.call(
                critic,
                ROLE_CRITIC,
                "You audit a proposed solution. Reply ACCEPT on the first line if it is "
                "correct, otherwise REJECT followed by what must be fixed. Do not solve "
                "the task yourself.",
                f"Task:\n{self.task.text}\n\nProposed solution:\n{draft}",
            )
            accepted, critique = _parse_verdict(verdict)
            if accepted or round_no == self.limits.max_feedback_rounds:
                break
            draft = self.call(
                reviser,
                ROLE_EXECUTOR,
                "You revise your previous solution using the critique.",
                f"Task:\n{self.task.text}\n\nYour previous solution:\n{draft}\n\n"
                f"Critique:\n{critique}\n\nGive the corrected final answer.",
            )

    def run_planner(self) -> None:
        planner, critic, *executors = self.pool
        critique = None
        for attempt in range(1, self.limits.max_replans + 2):
            user = f"Task:\n{self.task.text}\n\nWrite a numbered step plan (1., 2., ...)."
            if critique:
                user += f"\n\nYour previous plan failed: {critique}\nWrite a corrected plan."
            plan_text = self.call(
                planner,
                ROLE_PLANNER,
                "You are a planner. Output only a numbered list of steps; do not solve "
                "the task yourself.",
                user,
            )
            steps = _parse_plan(plan_text)
            if not steps:
                critique = "plan had no numbered steps"
                continue
            result = None
            for i, step in enumerate(steps):
                inst = executors[i % len(executors)]
                user = f"Task:\n{self.task.text}\n\nPlan:\n{plan_text}\n\nExecute step: {step}"
                if result is not None:
                    user += f"\n\nResult so far:\n{result}"
                result = self.call(inst, ROLE_EXECUTOR, "You execute one plan step.", user)
            verdict = self.call(
                critic,
                ROLE_CRITIC,
                "You audit a result. Reply ACCEPT on the first line if it solves the "
                "task, otherwise REJECT followed by what is wrong.",
                f"Task:\n{self.task.text}\n\nResult:\n{result}",
            )
            accepted, critique = _parse_verdict(verdict)
            if accepted:
                break


def check_runnable(pool: Sequence[AgentInstance], topology: Topology, budget: float) -> None:
    """Raise ValueError unless the pool can staff the topology and the budget
    is a finite number > 0: the preconditions of execute."""
    if len(pool) < topology.min_agents:
        need = f"needs at least {topology.min_agents} instances"
        if topology.seats:
            need = f"topology {need} ({topology.seats})"
        raise ValueError(f"{topology.label} {need}, pool has {len(pool)}")
    check_budget(budget)


def execute(
    task: TaskSpec,
    pool: Sequence[AgentInstance],
    topology: Topology,
    budget: float,
    backends: Mapping[str, Backend],
    evaluator: Evaluator,
    limits: ExecutionLimits = ExecutionLimits(),
    max_tokens: Mapping[str, int] = DEFAULT_MAX_TOKENS,
    planned_t_in: int = DEFAULT_INPUT_TOKENS,
) -> RunTrace:
    """Run one task through one topology, adding up every call's cost.

    The pool must be in descending tier-weight order (strongest first); each
    flow seats it by position. The trace records each call's backend-reported
    token usage and unit cost, a failed call's too when its backend reports
    what it billed; oob is set exactly when the final cumulative
    cost exceeds the budget, and no call is initiated once the running total
    has crossed it. `halt` names the last reason the run stopped or went
    ungraded (HALT_REASONS); a run halted by a backend failure is not graded.
    `max_tokens` caps each role's completion; it names every role a flow seats.
    """
    check_runnable(pool, topology, budget)
    runner = _Runner(task, pool, topology, budget, backends, evaluator, limits, max_tokens, planned_t_in)
    trace = runner.trace
    try:
        getattr(runner, topology.flow)()
    except _Halt as stop:
        trace.halt, trace.detail = stop.args
    trace.oob = trace.cumulative_cost > budget

    if trace.halt == BACKEND_FAILURE or trace.final_answer is None:
        trace.success = False
    else:
        try:
            trace.success = evaluator.grade(trace.final_answer, task)
        except Exception as exc:  # noqa: BLE001 - evaluator is user-pluggable
            trace.success = False
            trace.halt, trace.detail = EVALUATOR_FAILURE, f"evaluator failure: {exc}"
    return trace
