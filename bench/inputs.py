"""Seeded input generation for the benchmark workloads.

The seed drives the task texts, their numbers and their padding; catalogs,
budgets, trainer settings and the mock script are fixed so that every seed
provisions the same pools and the per-seed metrics stay comparable. Answer
shares are exact per seed (not sampled), so accuracy depends on the program's
decisions, not on the luck of the draw.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# (name, tier, price_in_per_mtok, price_out_per_mtok)
CATALOG_3 = (
    ("sim-pro", 1, 1.00, 4.00),
    ("sim-mid", 2, 0.30, 1.20),
    ("sim-mini", 3, 0.10, 0.40),
)
CATALOG_6 = (
    ("sim-ultra", 1, 3.00, 12.00),
    ("sim-pro", 2, 1.00, 4.00),
    ("sim-plus", 3, 0.60, 2.40),
    ("sim-mid", 4, 0.30, 1.20),
    ("sim-lite", 5, 0.15, 0.60),
    ("sim-mini", 6, 0.10, 0.40),
)

T_IN = 500
OUTPUT_TOKEN_SAMPLES = (310, 400, 275)  # t_out = 400, the largest sample
INSTANCE_CAP = 5
MIN_AGENTS = 2

# Mock answers are always 42; exactly MOCK_CORRECT_SHARE of the tasks expect it.
MOCK_ANSWER = 42
MOCK_CORRECT_SHARE = 0.5
MOCK_SCRIPT = {
    "default_prompt_tokens": 650,
    "rules": [
        {"role": "executor", "text": "Adding the two numbers step by step. #### 42",
         "completion_tokens": 300},
        {"role": "critic", "step": 1, "text": "REJECT\nRecheck the addition.", "completion_tokens": 24},
        {"role": "critic", "step": 2, "text": "REJECT\nStill unchecked.", "completion_tokens": 24},
        {"role": "critic", "text": "ACCEPT", "completion_tokens": 4},
        {"role": "planner", "text": "1. Read both numbers.\n2. Add them.\n3. State the sum.",
         "completion_tokens": 60},
    ],
}

# The simulated provider answers every request after SIM_DELAY_MS, and its
# WEAK_MODEL (the weakest tier of CATALOG_3) answers sum + 1 when the sum is
# even; exactly half the tasks have an even sum. With half the tasks hard,
# star (a majority over mixed tiers) beats every other topology by a margin
# the small io training set learns on every seed.
WEAK_MODEL = "sim-mini"
SIM_DELAY_MS = 5.0

_FILLER = (
    "ledger", "invoice", "warehouse", "quarterly", "shipment", "audit", "vendor",
    "region", "forecast", "margin", "inventory", "payroll", "contract", "client",
    "route", "batch", "tariff", "season", "order", "pallet", "depot", "rebate",
)
MIN_FILLER_WORDS = 4
MAX_FILLER_WORDS = 60


@dataclass(frozen=True)
class Task:
    task_id: str
    a: int
    b: int
    filler: int  # number of padding words before the question

    @property
    def answer(self) -> int:
        return self.a + self.b


@dataclass(frozen=True)
class Workload:
    """Everything one workload needs, independent of where it is written."""

    name: str
    catalog: tuple
    budgets: tuple[float, ...]
    train_tasks: tuple[Task, ...]
    serve_tasks: tuple[Task, ...]  # the tasks `run` serves
    collect_tasks: tuple[Task, ...]  # the tasks the timed `collect` uses; empty if none
    mock: bool
    trainer: dict
    jobs: int = 1


def task_text(task: Task, rng_seed: str) -> str:
    rng = random.Random(f"{rng_seed}:{task.task_id}")
    words = " ".join(rng.choice(_FILLER) for _ in range(task.filler))
    return f"Ticket {task.task_id}. Context: {words}. What is {task.a} plus {task.b}?"


def _sums_mock(rng: random.Random, count: int) -> list[int]:
    n_right = round(count * MOCK_CORRECT_SHARE)
    sums = [MOCK_ANSWER] * n_right + [rng.randint(MOCK_ANSWER + 1, 140) for _ in range(count - n_right)]
    rng.shuffle(sums)
    return sums


def _sums_sim(rng: random.Random, count: int) -> list[int]:
    n_even = count // 2
    sums = [2 * rng.randint(5, 100) for _ in range(n_even)]
    sums += [2 * rng.randint(5, 100) + 1 for _ in range(count - n_even)]
    rng.shuffle(sums)
    return sums


def make_tasks(rng: random.Random, prefix: str, count: int, mock: bool) -> tuple[Task, ...]:
    sums = _sums_mock(rng, count) if mock else _sums_sim(rng, count)
    # Padding lengths spread evenly over the range and shuffled: every seed has
    # the same total text length, so prompt sizes (and costs) do not drift.
    span = MAX_FILLER_WORDS - MIN_FILLER_WORDS
    fillers = [MIN_FILLER_WORDS + span * i // max(1, count - 1) for i in range(count)]
    rng.shuffle(fillers)
    tasks = []
    for i, (total, filler) in enumerate(zip(sums, fillers)):
        a = rng.randint(1, total - 1)
        tasks.append(Task(task_id=f"{prefix}{i:04d}", a=a, b=total - a, filler=filler))
    return tuple(tasks)


SMOKE_SCALE = {"pipeline": 0.05, "serve": 0.05, "io": 0.25}


def build(name: str, seed: int, nproc: int, smoke: bool = False) -> Workload:
    """The inputs of one workload for one seed; `smoke` shrinks the task sets."""
    rng = random.Random(f"{name}:{seed}")
    scale = SMOKE_SCALE[name] if smoke else 1.0

    def size(n: int) -> int:
        return max(4, round(n * scale))

    if name == "pipeline":
        tasks = make_tasks(rng, "p", size(300), mock=True)
        return Workload(
            name=name, catalog=CATALOG_3, budgets=(1500.0, 3000.0, 6000.0),
            train_tasks=tasks, serve_tasks=tasks, collect_tasks=tasks, mock=True,
            trainer={"learning_rate": 0.003, "batch_size": 256, "epochs": 10},
        )
    if name == "serve":
        return Workload(
            name=name, catalog=CATALOG_6, budgets=(1200.0, 4000.0, 9000.0, 20000.0, 30000.0),
            train_tasks=make_tasks(rng, "t", size(40), mock=True),
            serve_tasks=make_tasks(rng, "s", size(240), mock=True),
            collect_tasks=(), mock=True,
            trainer={"learning_rate": 0.003, "batch_size": 256, "epochs": 10},
        )
    if name == "io":
        return Workload(
            name=name, catalog=CATALOG_3, budgets=(1500.0, 3000.0, 6000.0),
            train_tasks=make_tasks(rng, "r", size(8), mock=False),
            serve_tasks=make_tasks(rng, "q", size(36), mock=False),
            collect_tasks=make_tasks(rng, "c", size(12), mock=False),
            mock=False, trainer={"learning_rate": 0.003, "batch_size": 32, "epochs": 40},
            jobs=nproc,
        )
    raise ValueError(f"unknown workload {name!r}")


def _profile(workload: Workload, tasks: tuple[Task, ...], seed: int) -> dict:
    doc = {
        "t_in": T_IN,
        "output_token_samples": list(OUTPUT_TOKEN_SAMPLES),
        "evaluator": "numeric",
        "max_tokens": {"planner": 384, "executor": 384, "critic": 384},
        "tasks": [
            {"id": t.task_id, "text": task_text(t, f"{workload.name}:{seed}"), "answer": str(t.answer)}
            for t in tasks
        ],
    }
    if workload.mock:
        doc["mock_script"] = MOCK_SCRIPT
    return doc


def write(workload: Workload, seed: int, directory: Path, base_url: str | None = None) -> dict[str, Path]:
    """Write catalog, profiles and configs; return their paths by role.

    `train.json` drives provision, collect and train on the training tasks,
    `serve.json` drives `run` on the served tasks, and `collect.json` drives
    the `collect` of the timed phase.
    """
    directory.mkdir(parents=True, exist_ok=True)
    catalog = {
        "models": [
            {"name": n, "tier": t, "price_in_per_mtok": pin, "price_out_per_mtok": pout, "backend_id": "sim"}
            for n, t, pin, pout in workload.catalog
        ]
    }
    if base_url is not None:
        catalog["backends"] = {"sim": {"base_url": base_url, "timeout": 30.0}}
    paths = {"catalog": directory / "catalog.json", "out": directory / "out"}
    paths["catalog"].write_text(json.dumps(catalog), encoding="utf-8")
    for role, tasks in (("train", workload.train_tasks), ("serve", workload.serve_tasks),
                        ("collect", workload.collect_tasks)):
        if not tasks:
            continue
        profile_path = directory / f"{role}_profile.json"
        profile_path.write_text(json.dumps(_profile(workload, tasks, seed)), encoding="utf-8")
        config = {
            "catalog": str(paths["catalog"]),
            "task_profile": str(profile_path),
            "budgets": list(workload.budgets),
            "seed": seed,
            "mock": workload.mock,
            "out_dir": str(paths["out"]),
            "jobs": workload.jobs,
            "instance_cap": INSTANCE_CAP,
            "min_agents": MIN_AGENTS,
            "trainer": workload.trainer,
        }
        paths[role] = directory / f"{role}.json"
        paths[role].write_text(json.dumps(config), encoding="utf-8")
    return paths
