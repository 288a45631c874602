"""Offline experience dataset: build, persist, and load.

Collection executes every topology for every (task, budget) pair so the
trainer can evaluate exact expected rewards per task. Rewards themselves are
never stored; they are recomputed from outcomes at training time, so reward
constant sweeps do not require recollection.

File format is JSON lines: line 1 is a provenance header
{"version": 1, "catalog_hash": ..., "seed": ...}, then one experience object
per line with fields task_id, task_text, budget, topology, success,
actual_cost (and error when the run failed outright).
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from .backend import Backend
from .evaluators import Evaluator
from .profile import TaskSpec
from .schema import BOOL, INT, NUMBER, STRING, check, nullable
from .topology import (
    AgentInstance,
    ExecutionLimits,
    Topology,
    execute,
)

FORMAT_VERSION = 1

# One experience line; the topology's and the cost's ranges are Experience's.
_ROW_FIELDS = {
    "task_id": STRING,
    "task_text": STRING,
    "budget": NUMBER,
    "topology": INT,
    "success": BOOL,
    "actual_cost": NUMBER,
    "error": nullable(STRING),
}
_ROW_REQUIRED = tuple(key for key in _ROW_FIELDS if key != "error")


@dataclass(frozen=True)
class Experience:
    task_id: str
    task_text: str
    budget: float
    topology: int
    success: bool
    actual_cost: float
    error: str | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.topology < len(Topology):
            raise ValueError(f"topology index {self.topology} out of range")
        if self.actual_cost < 0:
            raise ValueError("actual_cost must be >= 0")


@dataclass(frozen=True)
class ExperienceDataset:
    experiences: tuple[Experience, ...]
    header: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.experiences)

    def groups(self) -> dict[tuple[str, float], dict[int, Experience]]:
        """Experiences grouped by (task_id, budget), keyed by topology inside."""
        grouped: dict[tuple[str, float], dict[int, Experience]] = {}
        for exp in self.experiences:
            key = (exp.task_id, exp.budget)
            per_topology = grouped.setdefault(key, {})
            if exp.topology in per_topology:
                raise ValueError(
                    f"duplicate experience for (task={exp.task_id!r}, "
                    f"budget={exp.budget:g}, topology={exp.topology})"
                )
            per_topology[exp.topology] = exp
        return grouped


def collect(
    tasks: list[TaskSpec],
    budgets: list[float],
    pools: Mapping[float, list[AgentInstance]],
    backend_factory: Callable[[], Mapping[str, Backend]],
    evaluator: Evaluator,
    *,
    limits: ExecutionLimits = ExecutionLimits(),
    max_tokens: Mapping[str, int] | None = None,
    planned_t_in: int = 500,
    header: dict | None = None,
    jobs: int = 1,
) -> ExperienceDataset:
    """Execute all topologies for every (task, budget) pair.

    backend_factory must return a fresh backend registry per run so stateful
    scripted backends replay identically. Failures (e.g. a pool too small for
    a topology) are recorded as unsuccessful zero-or-partial-cost experiences
    so the dataset stays rectangular.
    """
    combos = [
        (task, budget, topo)
        for task in tasks
        for budget in budgets
        for topo in Topology
    ]

    def run_one(combo: tuple[TaskSpec, float, Topology]) -> Experience:
        task, budget, topo = combo
        try:
            trace = execute(
                task,
                pools[budget],
                topo,
                budget,
                backend_factory(),
                evaluator,
                limits=limits,
                max_tokens=max_tokens,
                planned_t_in=planned_t_in,
            )
            return Experience(
                task_id=task.task_id,
                task_text=task.text,
                budget=budget,
                topology=int(topo),
                success=bool(trace.success),
                actual_cost=trace.cumulative_cost,
                error=trace.note if trace.note and trace.note.startswith(("backend failure", "evaluator failure")) else None,
            )
        except Exception as exc:  # noqa: BLE001 - every combo must yield a row
            return Experience(
                task_id=task.task_id,
                task_text=task.text,
                budget=budget,
                topology=int(topo),
                success=False,
                actual_cost=0.0,
                error=str(exc),
            )

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            experiences = list(pool.map(run_one, combos))
    else:
        experiences = [run_one(c) for c in combos]
    return ExperienceDataset(experiences=tuple(experiences), header=dict(header or {}))


def save(dataset: ExperienceDataset, path: str | Path) -> None:
    header = {"version": FORMAT_VERSION}
    header.update(dataset.header)
    lines = [json.dumps(header, ensure_ascii=False)]
    for exp in dataset.experiences:
        record = {
            "task_id": exp.task_id,
            "task_text": exp.task_text,
            "budget": exp.budget,
            "topology": exp.topology,
            "success": exp.success,
            "actual_cost": exp.actual_cost,
        }
        if exp.error is not None:
            record["error"] = exp.error
        lines.append(json.dumps(record, ensure_ascii=False))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load(path: str | Path) -> ExperienceDataset:
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file, expected a header line")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line 1: malformed header: {exc}") from None
    if not isinstance(header, dict) or "version" not in header:
        raise ValueError(f"{path}: line 1: header must be an object with 'version'")
    if header["version"] != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported version {header['version']}")

    experiences = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            record = check(json.loads(line), _ROW_FIELDS, required=_ROW_REQUIRED, name="row")
            experiences.append(
                Experience(
                    task_id=record["task_id"],
                    task_text=record["task_text"],
                    budget=float(record["budget"]),
                    topology=record["topology"],
                    success=record["success"],
                    actual_cost=float(record["actual_cost"]),
                    error=record.get("error"),
                )
            )
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None

    dataset = ExperienceDataset(
        experiences=tuple(experiences),
        header={k: v for k, v in header.items() if k != "version"},
    )
    dataset.groups()  # raises on duplicate (task, budget, topology) triples
    return dataset
