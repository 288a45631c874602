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

import json
import re
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Mapping, Sequence

from .backend import Backend, BackendError, CallRequest
from .catalog import ModelCatalog, ModelSpec, estimate_cost
from .evaluators import Evaluator
from .profile import DEFAULT_MAX_TOKENS, TaskSpec
from .schema import BOOL, INT, NUMBER, STRING, each, nullable, obj


class Topology(IntEnum):
    LINEAR = 0
    STAR = 1
    FEEDBACK = 2
    PLANNER_DRIVEN = 3


TOPOLOGY_NAMES = ("linear", "star", "feedback", "planner")

# Fewest agents each topology can staff, indexed like TOPOLOGY_NAMES:
# planner-driven seats a planner, a critic and at least one executor.
MIN_POOL_SIZE = (2, 2, 2, 3)

ROLE_PLANNER = "planner"
ROLE_EXECUTOR = "executor"
ROLE_CRITIC = "critic"

_STEP_RE = re.compile(r"^\s*\d+[.)]\s*(\S.*)$")


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
    max_feedback_rounds: int = 3
    max_replans: int = 2
    # Worst-case pre-call budget guard; None leaves enforcement purely post-call.
    precall_slack: float | None = None


@dataclass(frozen=True)
class CallRecord:
    model: str
    instance: str
    role: str
    t_in: int
    t_out: int
    cost: float


@dataclass
class RunTrace:
    task_id: str
    topology: str
    budget: float
    calls: list[CallRecord] = field(default_factory=list)
    cumulative_cost: float = 0.0
    final_answer: str | None = None
    success: bool | None = None
    oob: bool = False
    terminated_early: bool = False
    note: str | None = None

    def to_dict(self) -> dict:
        # A dataclass instance's __dict__ holds its fields in declaration
        # order, so this equals dataclasses.asdict(self) without asdict's
        # deepcopy of every value, which made writing traces measurably slower.
        return {**vars(self), "calls": [dict(vars(c)) for c in self.calls]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False)


# A trace line as RunTrace.to_json writes it, for readers of trace files.
_CALL_FIELDS = {
    "model": STRING,
    "instance": STRING,
    "role": STRING,
    "t_in": INT,
    "t_out": INT,
    "cost": NUMBER,
}
TRACE_FIELDS = {
    "task_id": STRING,
    "topology": (lambda v: v in TOPOLOGY_NAMES, f"one of {', '.join(TOPOLOGY_NAMES)}"),
    "budget": NUMBER,
    "calls": each(obj(_CALL_FIELDS, required=tuple(_CALL_FIELDS))),
    "cumulative_cost": NUMBER,
    "final_answer": nullable(STRING),
    "success": nullable(BOOL),
    "oob": BOOL,
    "terminated_early": BOOL,
    "note": nullable(STRING),
}
TRACE_REQUIRED = ("task_id", "topology", "budget", "cumulative_cost", "oob", "terminated_early")


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
    return tuple(t for t in Topology if len(instances) >= MIN_POOL_SIZE[t])


class _Halt(Exception):
    """Internal control flow: stop issuing calls, keep what we have."""


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
        self.budget = budget
        self.spent = 0.0
        self.backends = backends
        self.evaluator = evaluator
        self.limits = limits
        self.max_tokens = max_tokens
        self.planned_t_in = planned_t_in
        self.trace = RunTrace(task_id=task.task_id, topology=TOPOLOGY_NAMES[topology], budget=budget)
        self.latest_executor_output: str | None = None
        self.star_outputs: list[tuple[int, str]] = []
        self.failed = False

    def call(self, instance: AgentInstance, role: str, system: str, user: str) -> str:
        limit = self.max_tokens.get(role, DEFAULT_MAX_TOKENS[role])
        if self.limits.precall_slack is not None:
            worst = estimate_cost(instance.model, self.planned_t_in, limit)
            if self.spent + worst > self.budget + self.limits.precall_slack:
                self.trace.note = f"budget guard: skipped {role} call on {instance.label}"
                raise _Halt
        request = CallRequest(
            model=instance.model.name,
            system=system,
            user=user,
            max_tokens=limit,
            role=role,
        )
        backend = self.backends[instance.model.backend_id]
        try:
            # Backends own the retry policy: HttpBackend retries a retryable failure once.
            response = backend.invoke(request)
        except BackendError as exc:
            self.failed = True
            self.trace.note = f"backend failure ({role} on {instance.label}): {exc}"
            raise _Halt from exc
        cost = estimate_cost(instance.model, response.prompt_tokens, response.completion_tokens)
        self.trace.calls.append(
            CallRecord(
                model=instance.model.name,
                instance=instance.label,
                role=role,
                t_in=response.prompt_tokens,
                t_out=response.completion_tokens,
                cost=cost,
            )
        )
        self.spent += cost
        if role == ROLE_EXECUTOR:
            self.latest_executor_output = response.text
        if self.spent > self.budget:
            self.trace.oob = True
            self.trace.terminated_early = True
            raise _Halt
        return response.text

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
        for idx, inst in enumerate(self.pool):
            text = self.call(
                inst,
                ROLE_EXECUTOR,
                "You solve the task independently and give the final answer.",
                self.task.text,
            )
            self.star_outputs.append((idx, text))

    def _merge_star(self) -> str | None:
        """Majority vote over normalized answers; ties and the no-vote case
        fall back to the highest-weight executor's output."""
        if not self.star_outputs:
            return None
        votes: dict[str, list[int]] = {}
        for idx, text in self.star_outputs:
            key = self.evaluator.normalize(text)
            if key is not None:
                votes.setdefault(key, []).append(idx)
        if not votes:
            return self.star_outputs[0][1]
        best_count = max(len(v) for v in votes.values())
        winner_idx = min(min(v) for v in votes.values() if len(v) == best_count)
        return dict(self.star_outputs)[winner_idx]

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


def execute(
    task: TaskSpec,
    pool: Sequence[AgentInstance],
    topology: Topology,
    budget: float,
    backends: Mapping[str, Backend],
    evaluator: Evaluator,
    limits: ExecutionLimits = ExecutionLimits(),
    max_tokens: Mapping[str, int] | None = None,
    planned_t_in: int = 500,
) -> RunTrace:
    """Run one task through one topology, adding up every call's cost.

    The pool must be in descending tier-weight order (strongest first); each
    flow seats it by position. The trace records each call's backend-reported
    token usage and unit cost; oob is set exactly when the final cumulative
    cost exceeds the budget, and no call is initiated once the running total
    has crossed it.
    """
    n, fewest = len(pool), min(MIN_POOL_SIZE)
    if n < fewest:
        raise ValueError(f"{TOPOLOGY_NAMES[topology]} needs at least {fewest} instances, pool has {n}")
    if n < MIN_POOL_SIZE[topology]:
        raise ValueError(
            f"planner topology needs at least {MIN_POOL_SIZE[topology]} instances "
            f"(planner + critic + executor), pool has {n}"
        )
    if budget <= 0:
        raise ValueError(f"budget must be > 0, got {budget}")
    runner = _Runner(
        task=task,
        pool=pool,
        topology=topology,
        budget=budget,
        backends=backends,
        evaluator=evaluator,
        limits=limits,
        max_tokens=dict(max_tokens) if max_tokens else dict(DEFAULT_MAX_TOKENS),
        planned_t_in=planned_t_in,
    )
    flows = {
        Topology.LINEAR: runner.run_linear,
        Topology.STAR: runner.run_star,
        Topology.FEEDBACK: runner.run_feedback,
        Topology.PLANNER_DRIVEN: runner.run_planner,
    }
    try:
        flows[topology]()
    except _Halt:
        pass

    trace = runner.trace
    trace.cumulative_cost = runner.spent
    trace.oob = runner.spent > budget
    if topology == Topology.STAR:
        trace.final_answer = runner._merge_star()
    else:
        trace.final_answer = runner.latest_executor_output

    if runner.failed or trace.final_answer is None:
        trace.success = False
    else:
        try:
            trace.success = evaluator.grade(trace.final_answer, task)
        except Exception as exc:  # noqa: BLE001 - evaluator is user-pluggable
            trace.success = False
            trace.note = f"evaluator failure: {exc}"
    return trace
