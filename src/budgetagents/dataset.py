"""Offline experience dataset: build, persist, and load. A dataset is its
rows, a tuple of Experience; its file also carries a provenance header.

Collection executes every topology for every (task, budget) pair so the
trainer can evaluate exact expected rewards per task. Rewards themselves are
never stored; they are recomputed from outcomes at training time, so reward
constant sweeps do not require recollection.

File format is JSON lines: line 1 is a provenance header
{"version": 1, "catalog_hash": ..., "seed": ...}, then one experience object
per line holding Experience's fields, error only when the run failed
outright.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .backend import Backend
from .evaluators import Evaluator
from .profile import TaskSpec
from .reward import BUDGET, check_budget
from .schema import BOOL, INT, LINE_ENCODER, NUMBER, STRING, non_negative, nullable, read_jsonl, spec, table
from .topology import BACKEND_FAILURE, EVALUATOR_FAILURE, AgentInstance, Topology, check_runnable, execute

FORMAT_VERSION = 1


# Plain, not frozen: collect builds one per run, and a frozen dataclass sets
# each field through object.__setattr__. Each spec checks a dataset line, the
# only place a row comes from outside: collect builds its rows from Topology
# members and traces' non-negative costs, so a constructor check would only
# slow it down.
@dataclass
class Experience:
    task_id: str = spec(STRING)
    task_text: str = spec(STRING)
    budget: float = spec(BUDGET)
    topology: int = spec(
        (lambda v: INT[0](v) and 0 <= v < len(Topology), f"an integer from 0 to {len(Topology) - 1}")
    )
    success: bool = spec(BOOL)
    actual_cost: float = spec(non_negative(NUMBER))
    error: str | None = spec(nullable(STRING), default=None)


_ROW_FIELDS = table(Experience)
_ROW_REQUIRED = tuple(key for key in _ROW_FIELDS if key != "error")


def collect(
    tasks: list[TaskSpec],
    budgets: list[float],
    pools: Mapping[float, list[AgentInstance]],
    backends: Mapping[str, Backend],
    evaluator: Evaluator,
    *,
    jobs: int = 1,
    **settings,
) -> tuple[Experience, ...]:
    """Execute all topologies for every (task, budget) pair; one row per run,
    task-major, then budget, then topology. `settings` are the rest of
    `execute`'s keyword arguments, passed to every run.

    A budget that is not a finite number > 0 is a ValueError before any run.
    A run that cannot start (a pool too small for the topology) and a run
    that halts on a backend or evaluator failure are recorded as unsuccessful
    zero-or-partial-cost experiences, so the dataset stays rectangular. Any
    other exception propagates.
    """
    for budget in budgets:
        check_budget(budget)
    combos = [(task, budget, topo) for task in tasks for budget in budgets for topo in Topology]

    def run_one(combo: tuple[TaskSpec, float, Topology]) -> Experience:
        task, budget, topo = combo
        pool = pools[budget]
        try:
            check_runnable(pool, topo, budget)
        except ValueError as exc:
            return Experience(task.id, task.text, budget, int(topo), False, 0.0, str(exc))
        trace = execute(task, pool, topo, budget, backends, evaluator, **settings)
        error = trace.detail if trace.halt in (BACKEND_FAILURE, EVALUATOR_FAILURE) else None
        success, cost = bool(trace.success), trace.cumulative_cost
        return Experience(task.id, task.text, budget, int(topo), success, cost, error)

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor  # loads logging too; a sequential collect never needs it

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return tuple(pool.map(run_one, combos))
    return tuple(run_one(c) for c in combos)


def save(rows: Sequence[Experience], path: str | Path, header: Mapping) -> None:
    """Write header (provenance; `version` is added first) and rows to path."""
    lines = [LINE_ENCODER.encode({"version": FORMAT_VERSION, **header})]
    for exp in rows:
        record = vars(exp).copy()  # Experience's fields, in declaration order
        if record["error"] is None:
            del record["error"]
        lines.append(LINE_ENCODER.encode(record))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load(path: str | Path) -> tuple[dict, tuple[Experience, ...]]:
    """(header without `version`, rows) of a file `save` wrote."""
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
    if not INT[0](header["version"]) or header["version"] != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported version {header['version']}")

    rows = []
    texts: dict[str, str] = {}  # rows repeat each task text; they share one str
    for record in read_jsonl(path, lines[1:], _ROW_FIELDS, _ROW_REQUIRED, "row", start=2):
        text = record["task_text"]
        record["task_text"] = texts.setdefault(text, text)
        record["budget"] = float(record["budget"])
        record["actual_cost"] = float(record["actual_cost"])
        rows.append(Experience(**record))
    del header["version"]
    return header, tuple(rows)
