"""Correctness checks on the program's outputs.

Every check works from the benchmark's own inputs (the generated catalog,
tasks and budgets) and its own arithmetic, never from the program's helpers
or from stored copies of earlier output. A failed check raises CheckError.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass, field

from inputs import INSTANCE_CAP, MIN_AGENTS, OUTPUT_TOKEN_SAMPLES, T_IN, Workload

TOPOLOGIES = ("linear", "star", "feedback", "planner")
MIN_POOL = {"linear": 2, "star": 2, "feedback": 2, "planner": 3}
_NUMBER_RE = re.compile(r"-?\d[\d,]*(?:\.\d+)?")
_REPORT_RE = re.compile(r"^Acc ([\d.]+)%  Avg Cost (\S+)  OOB (\d+)/(\d+)$")


class CheckError(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def prices(workload: Workload) -> dict[str, tuple[float, float]]:
    return {name: (p_in, p_out) for name, _, p_in, p_out in workload.catalog}


def tier_costs(workload: Workload) -> list[float]:
    t_out = max(OUTPUT_TOKEN_SAMPLES)
    by_tier: dict[int, float] = {}
    for _, tier, p_in, p_out in workload.catalog:
        by_tier[tier] = max(by_tier.get(tier, 0.0), T_IN * p_in + t_out * p_out)
    return [by_tier[t] for t in sorted(by_tier)]


def expected_pool(workload: Workload, budget: float) -> tuple[tuple[int, ...], float]:
    """Lexicographically largest count vector (strongest tier first) with at
    most INSTANCE_CAP per tier, at least MIN_AGENTS agents and cost within
    the budget, found by enumerating every vector."""
    costs = tier_costs(workload)
    best, best_cost = None, 0.0
    for counts in itertools.product(range(INSTANCE_CAP + 1), repeat=len(costs)):
        cost = sum(n * c for n, c in zip(counts, costs))
        if cost <= budget and sum(counts) >= MIN_AGENTS and (best is None or counts > best):
            best, best_cost = counts, cost
    _require(best is not None, f"budget {budget:g} has no feasible pool; fix the inputs")
    return best, best_cost


def check_provision(workload: Workload, out_dir) -> dict[float, int]:
    """(a) provision_<b>.json against the enumeration; returns pool sizes."""
    sizes = {}
    for budget in workload.budgets:
        doc = json.loads((out_dir / f"provision_{budget:g}.json").read_text(encoding="utf-8"))
        counts, cost = expected_pool(workload, budget)
        _require(doc["feasible"] is True, f"budget {budget:g}: provisioning reported infeasible")
        _require(tuple(doc["counts"]) == counts,
                 f"budget {budget:g}: counts {doc['counts']}, enumeration gives {list(counts)}")
        _require(math.isclose(doc["total_cost"], cost, rel_tol=1e-12),
                 f"budget {budget:g}: total_cost {doc['total_cost']}, enumeration gives {cost}")
        sizes[budget] = sum(counts)
    return sizes


def grade(final_answer: str | None, expected: int) -> bool:
    """Numeric grading: the last number after the last '####', else in the text."""
    if final_answer is None:
        return False
    numbers = _NUMBER_RE.findall(final_answer.rsplit("####", 1)[-1])
    return bool(numbers) and float(numbers[-1].replace(",", "")) == float(expected)


@dataclass
class TraceStats:
    served: int = 0
    correct: int = 0
    cost: float = 0.0
    oob: int = 0
    calls: list = field(default_factory=list)  # (model, t_in, t_out) in trace order


def check_traces(workload: Workload, budget: float, text: str, answers: dict[str, int]) -> TraceStats:
    """(b) call and trace costs, (c) the budget rule, and per-trace grading."""
    table = prices(workload)
    stats = TraceStats()
    lines = [line for line in text.splitlines() if line.strip()]
    _require(len(lines) == len(answers), f"budget {budget:g}: {len(lines)} traces for {len(answers)} tasks")
    for line, task_id in zip(lines, answers):
        trace = json.loads(line)
        where = f"budget {budget:g}, task {trace['task_id']}"
        _require(trace["task_id"] == task_id, f"{where}: out of order, expected {task_id}")
        _require(trace["budget"] == budget, f"{where}: trace budget {trace['budget']}")
        total = 0.0
        for i, call in enumerate(trace["calls"]):
            _require(total <= budget, f"{where}: call {i + 1} started after the budget was crossed")
            p_in, p_out = table[call["model"]]
            cost = call["t_in"] * p_in + call["t_out"] * p_out
            _require(call["cost"] == cost, f"{where}: call {i + 1} cost {call['cost']}, priced {cost}")
            total += cost
            stats.calls.append((call["model"], call["t_in"], call["t_out"]))
        _require(trace["cumulative_cost"] == total,
                 f"{where}: cumulative_cost {trace['cumulative_cost']}, sum of calls {total}")
        _require(trace["oob"] == (total > budget), f"{where}: oob={trace['oob']} at cost {total}")
        right = grade(trace["final_answer"], answers[task_id])
        _require(trace["success"] == right, f"{where}: success={trace['success']}, regraded {right}")
        stats.served += 1
        stats.correct += right
        stats.cost += total
        stats.oob += trace["oob"]
    return stats


def check_report(lines: list[str], stats: TraceStats) -> None:
    """(d) what `report` prints against the regraded traces."""
    match = _REPORT_RE.match(lines[0]) if lines else None
    _require(match is not None, f"unexpected report output {lines[:1]}")
    acc, avg, oob, n = float(match[1]), float(match[2]), int(match[3]), int(match[4])
    _require(n == stats.served, f"report counts {n} traces, benchmark {stats.served}")
    _require(abs(acc - 100.0 * stats.correct / stats.served) <= 0.05 + 1e-9,
             f"report accuracy {acc}%, regraded {100.0 * stats.correct / stats.served:.3f}%")
    _require(math.isclose(avg, stats.cost / stats.served, rel_tol=1e-5),
             f"report mean cost {avg}, benchmark {stats.cost / stats.served}")
    _require(oob == stats.oob, f"report OOB {oob}, benchmark {stats.oob}")


def check_dataset(workload: Workload, text: str, tasks, pool_sizes: dict[float, int]) -> float:
    """(e) one row per (task, budget, topology); errors only where the pool is
    too small for the topology. Returns the summed actual cost."""
    rows = [json.loads(line) for line in text.splitlines()[1:] if line.strip()]
    expected = len(tasks) * len(workload.budgets) * len(TOPOLOGIES)
    _require(len(rows) == expected, f"dataset has {len(rows)} rows, expected {expected}")
    seen = set()
    for row in rows:
        key = (row["task_id"], row["budget"], row["topology"])
        _require(key not in seen, f"dataset row {key} repeated")
        seen.add(key)
        too_small = pool_sizes[row["budget"]] < MIN_POOL[TOPOLOGIES[row["topology"]]]
        _require(("error" in row) == too_small,
                 f"dataset row {key}: error={row.get('error')!r} with a pool of {pool_sizes[row['budget']]}")
    _require(seen == {(t.task_id, b, k) for t in tasks for b in workload.budgets for k in range(len(TOPOLOGIES))},
             "dataset rows do not cover every (task, budget, topology)")
    return sum(row["actual_cost"] for row in rows)


def priced(workload: Workload, entries) -> float:
    table = prices(workload)
    return sum(t_in * table[m][0] + t_out * table[m][1] for m, t_in, t_out in entries)


def check_served_calls(entries: list, stats: TraceStats, what: str) -> None:
    """(f) the simulator served exactly the calls the traces record."""
    entries = [tuple(e) for e in entries]
    _require(len(entries) == len(stats.calls),
             f"{what}: simulator served {len(entries)} POSTs, traces record {len(stats.calls)} calls")
    _require(entries == stats.calls, f"{what}: simulator log and trace calls differ")


def check_served_cost(workload: Workload, entries: list, recorded: float, what: str) -> None:
    """(f) usage served, priced by the benchmark, against the recorded cost."""
    served = priced(workload, entries)
    _require(math.isclose(served, recorded, rel_tol=1e-9),
             f"{what}: simulator usage prices to {served}, outputs record {recorded}")
