"""Command-line front end: provision -> collect -> train -> run -> report.

Configuration is a single JSON file plus flag overrides (flags win). All
artifacts land in the configured output directory and are byte-reproducible
given the same inputs and seed. Exit codes: 0 success, 1 usage or config
error, 2 infeasible provisioning.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

# `policy` (and with it numpy) is imported by the commands that use it:
# provision, collect, report and `run --topology` never load numpy.
from . import backend, dataset, provision, topology
from .catalog import ModelCatalog
from .evaluators import expected_answer, get_evaluator
from .profile import ROLES, TaskProfile, TaskSpec, load_profile
from .reward import BUDGET, RewardConfig, TrainerConfig, budget_label
from .schema import (
    BOOL, INT, NUMBER, STRING, check, non_negative, nullable, obj, positive, read_json, read_jsonl, spec, table,
)
from .topology import ExecutionLimits, Topology, topology_from_name

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2


_PROBLEM_FIELDS = table(provision.ProvisionProblem)


# The config file's fields, and the only copy of each default. Each spec is
# the field's shape and range in the file, so a bad value stops the config
# load before any work; what a spec cannot state (a repeated budget) is
# checked as the config loads.
@dataclass
class RunConfig:
    catalog: str = spec(STRING, default="")  # `train` reads neither file
    task_profile: str = spec(STRING, default="")
    out_dir: str = spec(STRING, default="out")
    budgets: list[float] = spec(
        (lambda v: isinstance(v, list) and all(BUDGET[0](b) for b in v), "a list of finite numbers > 0"),
        default_factory=list,
    )
    seed: int = spec(non_negative(INT), default=42)  # the trainer's seed too
    jobs: int = spec(positive(INT), default=1)
    instance_cap: int = spec(_PROBLEM_FIELDS["instance_cap"], default=5)
    min_agents: int = spec(_PROBLEM_FIELDS["min_agents"], default=2)
    mock: bool = spec(BOOL, default=False)
    limits: ExecutionLimits = spec(obj(table(ExecutionLimits)), default_factory=ExecutionLimits)
    reward: RewardConfig = spec(obj(table(RewardConfig)), default_factory=RewardConfig)
    trainer: TrainerConfig = spec(obj(table(TrainerConfig)), default_factory=TrainerConfig)


_CONFIG_FIELDS = table(RunConfig)
# `--seed`, `--jobs` and `--budget` are checked like one value of the field each sets.
_FLAG_FIELDS = {"--seed": _CONFIG_FIELDS["seed"], "--jobs": _CONFIG_FIELDS["jobs"], "--budget": BUDGET}
# One entry of the catalog's 'backends' section (real runs only).
_BACKEND_FIELDS = {
    "base_url": STRING,
    "timeout": positive(NUMBER),
    "requests_per_second": nullable(positive(NUMBER)),
}


def _load_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ValueError(f"config file not found: {path}")
        data = check(read_json(path), _CONFIG_FIELDS, name=f"config file {path}")
    flags = {"--seed": args.seed, "--jobs": args.jobs, "--budget": args.budgets}
    check({flag: value for flag, value in flags.items() if value is not None}, _FLAG_FIELDS)

    # Each common flag's dest is the field it sets, and a given flag wins over
    # the file's field. An absent flag is None (0 is given), and "" is not given.
    data.update(
        (key, value) for key, value in vars(args).items() if key in _CONFIG_FIELDS and value not in (None, "")
    )
    if args.budgets is not None:  # the flag gives one budget, the file a list
        data["budgets"] = [args.budgets]

    if "budgets" in data:
        budgets = data["budgets"] = [float(b) for b in data["budgets"]]
        for i, b in enumerate(budgets):
            if b in budgets[:i]:
                raise ValueError(f"budgets[{i}] repeats budget {budget_label(b)}")
    trainer = data.pop("trainer", {})
    for key, build in (("reward", RewardConfig), ("limits", ExecutionLimits)):
        if key in data:
            data[key] = build(**data[key])
    config = RunConfig(**data)
    config.trainer = TrainerConfig(seed=config.seed, **trainer)
    return config


def _load_inputs(args: argparse.Namespace) -> tuple[RunConfig, ModelCatalog, TaskProfile]:
    """The config, catalog and profile of a command that serves budgets:
    `provision`, `collect` and `run`."""
    config = _load_config(args)
    if not config.catalog:
        raise ValueError("no catalog configured (use --catalog or 'catalog' in the config file)")
    if not config.task_profile:
        raise ValueError("no task profile configured (use --profile or 'task_profile')")
    for p in (config.catalog, config.task_profile):
        if not Path(p).exists():
            raise ValueError(f"file not found: {p}")
    if not config.budgets:
        raise ValueError("no budgets configured (use --budget or 'budgets')")
    return config, ModelCatalog.load(config.catalog), load_profile(config.task_profile)


@contextmanager
def _run_settings(config: RunConfig, catalog: ModelCatalog, profile: TaskProfile, tasks: list[TaskSpec]):
    """The keyword arguments every run of `tasks` takes, `dataset.collect`'s
    and `topology.execute`'s alike, among them the one backend registry every
    run shares, by backend_id. A task whose expected answer the evaluator
    cannot read is refused, and `out_dir` made, before any call; HTTP
    backends' kept-alive connections close as the block ends."""
    evaluator = get_evaluator(profile.evaluator)
    for task in tasks:
        expected_answer(evaluator, task)
    if config.mock:
        script = profile.mock_script
        if script is None:
            raise ValueError("mock mode requires a 'mock_script' section in the task profile")
        mock = backend.ScriptedBackend.from_config(script)
        covered = {rule.role for rule in mock.rules}
        missing = [] if "*" in covered else [role for role in ROLES if role not in covered]
        if missing:
            raise ValueError(f"mock_script has no rule for role(s): {', '.join(missing)}")
        backends = {m.backend_id: mock for m in catalog.models}
    else:
        backends = {}
        for model in catalog.models:
            if model.backend_id in backends:
                continue
            where = f"backends.{model.backend_id}"
            entry = check(catalog.backends.get(model.backend_id, {}), _BACKEND_FIELDS, where, required=("base_url",))
            api_key = os.environ.get(f"{model.backend_id.upper()}_API_KEY", "")
            backends[model.backend_id] = backend.HttpBackend(api_key=api_key, **entry)
    Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    try:
        yield {
            "backends": backends,
            "evaluator": evaluator,
            "limits": config.limits,
            "max_tokens": profile.max_tokens,
            "planned_t_in": profile.t_in,
        }
    finally:
        if not config.mock:
            for endpoint in backends.values():
                endpoint.close()


def _solve_for_budget(config: RunConfig, catalog: ModelCatalog, profile: TaskProfile, budget: float):
    problem = provision.ProvisionProblem(
        budget=budget,
        tier_costs=tuple(catalog.tier_costs(profile.t_in, profile.t_out)),
        instance_cap=config.instance_cap,
        min_agents=config.min_agents,
    )
    return problem, provision.solve(problem)


def _pool(config: RunConfig, catalog: ModelCatalog, profile: TaskProfile, budget: float) -> list:
    """The agent pool for one budget, solved from the current catalog, profile
    and config: `collect` and `run` both take their pools from here."""
    _, solution = _solve_for_budget(config, catalog, profile, budget)
    if not solution.feasible:
        raise ValueError(f"provisioning infeasible for budget {budget_label(budget)}: {solution.reason}")
    return topology.expand_pool(catalog, solution.counts)


def cmd_provision(args: argparse.Namespace) -> int:
    config, catalog, profile = _load_inputs(args)

    any_infeasible = False
    for budget in config.budgets:
        label = budget_label(budget)
        problem, solution = _solve_for_budget(config, catalog, profile, budget)
        doc = {"budget": budget, "tier_costs": list(problem.tier_costs), **asdict(solution)}
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)  # only once a problem has solved
        (Path(config.out_dir) / f"provision_{label}.json").write_text(
            json.dumps(doc, ensure_ascii=False), encoding="utf-8"
        )
        if solution.feasible:
            print(
                f"budget {label}: counts {list(solution.counts)} "
                f"cost {solution.total_cost:g} weight {solution.total_weight}"
            )
        else:
            any_infeasible = True
            print(f"budget {label}: infeasible ({solution.reason})")
        if args.explain:
            weights = provision.compute_weights(problem)
            for tier, (w, c) in enumerate(zip(weights, problem.tier_costs), start=1):
                print(f"  tier {tier}: unit cost {c:g}, decision weight {w}")
    return EXIT_INFEASIBLE if any_infeasible else EXIT_OK


def cmd_collect(args: argparse.Namespace) -> int:
    config, catalog, profile = _load_inputs(args)
    pools = {budget: _pool(config, catalog, profile, budget) for budget in config.budgets}
    tasks = list(profile.tasks)
    with _run_settings(config, catalog, profile, tasks) as settings:
        rows = dataset.collect(tasks, config.budgets, pools, jobs=config.jobs, **settings)
    out_path = Path(config.out_dir) / "dataset.jsonl"
    dataset.save(rows, out_path, {"catalog_hash": catalog.content_hash(), "seed": config.seed})
    print(f"collected {len(rows)} experiences -> {out_path}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    from . import policy

    config = _load_config(args)
    ds_path = Path(config.out_dir) / "dataset.jsonl"
    if not ds_path.exists():
        raise ValueError(f"dataset not found: {ds_path}; run 'collect' first")
    _, rows = dataset.load(ds_path)

    trainer = config.trainer
    result = policy.train(rows, trainer, reward_config=config.reward)

    weights_path = Path(config.out_dir) / "policy.json"
    policy.save_params(result.params, weights_path, seed=trainer.seed)
    report = {
        "epoch_scores": result.epoch_scores,
        "best_epoch": result.best_epoch,
        "best_score": result.epoch_scores[result.best_epoch - 1],
        "trainer": asdict(trainer),
    }
    (Path(config.out_dir) / "training_report.json").write_text(
        json.dumps(report, ensure_ascii=False), encoding="utf-8"
    )
    print(
        f"trained {trainer.epochs} epochs; best epoch {result.best_epoch} "
        f"(expected reward {report['best_score']:.4f}) -> {weights_path}"
    )
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    if args.answer is not None and not args.task:
        raise ValueError("--answer grades an ad-hoc task; pass --task with it")
    config, catalog, profile = _load_inputs(args)
    if len(config.budgets) > 1:
        raise ValueError(
            f"{len(config.budgets)} budgets are configured and 'run' serves one; pass --budget"
        )

    override = topology_from_name(args.topology) if args.topology else None
    params = None
    if override is None:
        from . import policy

        weights_path = Path(config.out_dir) / "policy.json"
        if not weights_path.exists():
            raise ValueError(
                f"no trained policy at {weights_path}; run 'train' or pass --topology"
            )
        params = policy.load_params(weights_path)

    if args.task:
        tasks = [TaskSpec(id="adhoc", text=args.task, answer=args.answer)]
    else:
        tasks = list(profile.tasks)
    if not tasks:
        raise ValueError("no tasks to run")

    budget = config.budgets[0]
    pool = _pool(config, catalog, profile, budget)
    staffable = topology.staffable_topologies(pool)
    if not staffable:
        raise ValueError(
            f"the pool for budget {budget_label(budget)} has {len(pool)} agent(s), too few for any topology"
        )
    if override is None:
        topologies = [Topology(t) for t in policy.select_topology(params, tasks, budget, allowed=staffable)]
    else:
        topologies = [override] * len(tasks)
    traces = []
    with _run_settings(config, catalog, profile, tasks) as settings:
        for task, topo in zip(tasks, topologies):
            trace = topology.execute(task, pool, topo, budget, **settings)
            traces.append(trace)
            print(
                f"{task.id}: topology={trace.topology} cost={trace.cumulative_cost:g} "
                f"success={trace.success} oob={trace.oob} answer={trace.final_answer!r}"
            )

    out_path = Path(config.out_dir) / "traces.jsonl"
    out_path.write_text("\n".join(t.to_json() for t in traces) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.traces)
    if not path.exists():
        raise ValueError(f"trace file not found: {path}")
    lines = path.read_text(encoding="utf-8").splitlines()
    traces = list(read_jsonl(path, lines, topology.TRACE_FIELDS, topology.TRACE_REQUIRED, "trace"))

    n = len(traces)
    if not n:
        print("warning: no traces found", file=sys.stderr)
    # Accuracy is over the graded runs, those whose `success` is not null.
    graded = [t["success"] for t in traces if t.get("success") is not None]
    acc = f"{100.0 * sum(graded) / len(graded):.1f}%" if graded else "n/a"
    avg_cost = sum(t["cumulative_cost"] for t in traces) / (n or 1)  # an empty file's mean is 0
    oob = sum(1 for t in traces if t["oob"])
    print(f"Acc {acc}  Avg Cost {avg_cost:g}  OOB {oob}/{n}")
    counts = {name: 0 for name in topology.TOPOLOGY_NAMES}
    halts = {reason: 0 for reason in topology.HALT_REASONS}
    for t in traces:
        counts[t["topology"]] += 1
        if t["halt"] is not None:
            halts[t["halt"]] += 1
    for name in topology.TOPOLOGY_NAMES:
        print(f"  {name}: {counts[name]}/{n}")
    for reason in topology.HALT_REASONS:
        print(f"  halt {reason}: {halts[reason]}/{n}")
    return EXIT_OK


@functools.cache  # one parser per process: `main` may run many commands
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="budgetagents",
        description="Budget-aware multi-agent pipeline: provision, collect, train, run, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The flags every pipeline command shares, built once; each one's dest is
    # the `RunConfig` field it sets (`--config` aside).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its fields")
    common.add_argument("--catalog", help="model catalog JSON")
    common.add_argument("--profile", dest="task_profile", metavar="PROFILE", help="task profile JSON")
    common.add_argument("--budget", dest="budgets", metavar="BUDGET", type=float, help="single budget override")
    common.add_argument("--seed", type=int, help="global random seed (default 42)")
    common.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory (default 'out')")
    common.add_argument("--jobs", type=int, help="worker pool size for collection")
    common.add_argument("--mock", action="store_true", default=None, help="use the profile's scripted backend")

    p = sub.add_parser("provision", parents=[common], help="solve the budgeted pool selection")
    p.add_argument("--explain", action="store_true", help="print per-tier decision weights")
    p.set_defaults(func=cmd_provision)

    p = sub.add_parser("collect", parents=[common], help="execute all topologies per task into a dataset")
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("train", parents=[common], help="train the topology-selection policy")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("run", parents=[common], help="provision, select a topology, and execute")
    p.add_argument("--task", help="ad-hoc task text (default: run every profile task)")
    p.add_argument("--answer", help="expected answer for the ad-hoc task")
    p.add_argument("--topology", help="bypass the policy with a fixed topology")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="summarize a JSONL trace file")
    p.add_argument("traces", help="path to traces.jsonl")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed usage (2 here means infeasible) or help (0)
        return EXIT_USAGE if exc.code == 2 else exc.code
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
