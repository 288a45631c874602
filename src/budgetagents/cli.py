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
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

# `policy` (and with it numpy) is imported by the commands that use it:
# provision, collect, report and `run --topology` never load numpy.
from . import backend, dataset, provision, topology
from .catalog import ModelCatalog
from .evaluators import get_evaluator
from .profile import TaskProfile, TaskSpec, load_profile
from .reward import RewardConfig
from .schema import BOOL, INT, NUMBER, STRING, check, non_negative, nullable, obj, positive, read_json, read_jsonl
from .topology import ExecutionLimits, Topology, topology_from_name

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2


class ConfigError(Exception):
    pass


# The config file's fields, and the only copy of each default.
@dataclass
class RunConfig:
    catalog: str
    task_profile: str
    budgets: list[float] = field(default_factory=list)
    out_dir: str = "out"
    seed: int = 42
    mock: bool = False
    jobs: int = 1
    instance_cap: int = 5
    min_agents: int = 2
    reward: RewardConfig = field(default_factory=RewardConfig)
    trainer: dict = field(default_factory=dict)
    limits: ExecutionLimits = field(default_factory=ExecutionLimits)
    stamp: bool = False  # include a collection timestamp in dataset headers


# Shape of the config file: field -> spec (see schema). Value ranges beyond
# these are checked where a field is used. The trainer's seed is the
# top-level 'seed'.
_CONFIG_FIELDS = {
    "catalog": STRING,
    "task_profile": STRING,
    "out_dir": STRING,
    "budgets": (lambda v: isinstance(v, list) and all(NUMBER[0](b) for b in v), "a list of finite numbers"),
    "seed": non_negative(INT),
    "jobs": positive(INT),
    "instance_cap": INT,
    "min_agents": INT,
    "mock": BOOL,
    "stamp": BOOL,
    "limits": obj({
        "max_feedback_rounds": non_negative(INT),
        "max_replans": non_negative(INT),
        "precall_slack": nullable(non_negative(NUMBER)),
    }),
    "reward": obj({f.name: NUMBER for f in fields(RewardConfig)}),
    "trainer": obj({
        "learning_rate": NUMBER,
        "entropy_coeff": NUMBER,
        "batch_size": INT,
        "epochs": INT,
        "budget_ref": nullable(NUMBER),
    }),
}
# `--seed`, `--jobs` and `--budget` are checked like their config fields.
_FLAG_FIELDS = {"--seed": _CONFIG_FIELDS["seed"], "--jobs": _CONFIG_FIELDS["jobs"], "--budget": positive(NUMBER)}
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
            raise ConfigError(f"config file not found: {path}")
        data = check(read_json(path), _CONFIG_FIELDS, name=f"config file {path}")
    flags = {flag: getattr(args, flag[2:]) for flag in _FLAG_FIELDS}
    check({flag: value for flag, value in flags.items() if value is not None}, _FLAG_FIELDS)

    # A given flag wins over the file's field; "" and a missing --mock are not given.
    given = {
        "catalog": args.catalog,
        "task_profile": args.profile,
        "out_dir": args.out,
        "seed": args.seed,
        "jobs": args.jobs,
        "mock": args.mock or None,
        "budgets": None if args.budget is None else [args.budget],
    }
    data.update((key, value) for key, value in given.items() if value is not None and value != "")

    if not data.get("catalog"):
        raise ConfigError("no catalog configured (use --catalog or 'catalog' in the config file)")
    if not data.get("task_profile"):
        raise ConfigError("no task profile configured (use --profile or 'task_profile')")
    for p in (data["catalog"], data["task_profile"]):
        if not Path(p).exists():
            raise ConfigError(f"file not found: {p}")

    if "budgets" in data:
        budgets = data["budgets"] = [float(b) for b in data["budgets"]]
        if any(b <= 0 for b in budgets):
            raise ConfigError("budgets must be > 0")
        for i, b in enumerate(budgets):
            if b in budgets[:i]:
                raise ConfigError(f"budgets[{i}] repeats budget {_budget_label(b)}")
    for key, build in (("reward", RewardConfig), ("limits", ExecutionLimits)):
        if key in data:
            data[key] = build(**data[key])
    return RunConfig(**data)


def _build_backends(config: RunConfig, catalog: ModelCatalog, profile: TaskProfile):
    """Returns (backends, close): the one registry every run shares, by
    backend_id, and a close that ends HTTP backends' kept-alive connections."""
    if config.mock:
        script = profile.mock_script
        if script is None:
            raise ConfigError("mock mode requires a 'mock_script' section in the task profile")
        mock = backend.ScriptedBackend.from_config(script)
        covered = {rule.role for rule in mock.rules}
        missing = [
            role for role in ("executor", "critic", "planner")
            if role not in covered and "*" not in covered
        ]
        if missing:
            raise ConfigError(f"mock_script has no rule for role(s): {', '.join(missing)}")
        return {m.backend_id: mock for m in catalog.models}, lambda: None

    endpoints = {}
    for model in catalog.models:
        if model.backend_id in endpoints:
            continue
        where = f"backends.{model.backend_id}"
        entry = check(catalog.backends.get(model.backend_id, {}), _BACKEND_FIELDS, where, required=("base_url",))
        api_key = os.environ.get(f"{model.backend_id.upper()}_API_KEY", "")
        endpoints[model.backend_id] = backend.HttpBackend(
            base_url=entry["base_url"],
            api_key=api_key,
            timeout=float(entry.get("timeout", 60.0)),
            requests_per_second=entry.get("requests_per_second"),
        )

    def close():
        for endpoint in endpoints.values():
            endpoint.close()

    return endpoints, close


def _budget_label(budget: float) -> str:
    """How a budget is printed and how its provision file is named: `:g` where
    that reads back as the same number, so distinct budgets never share one."""
    short = f"{budget:g}"
    return short if float(short) == budget else repr(budget)


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
        raise ConfigError(f"provisioning infeasible for budget {_budget_label(budget)}: {solution.reason}")
    return topology.expand_pool(catalog, solution.counts)


def cmd_provision(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if not config.budgets:
        raise ConfigError("no budgets configured")
    catalog = ModelCatalog.load(config.catalog)
    profile = load_profile(config.task_profile)
    Path(config.out_dir).mkdir(parents=True, exist_ok=True)

    any_infeasible = False
    for budget in config.budgets:
        label = _budget_label(budget)
        problem, solution = _solve_for_budget(config, catalog, profile, budget)
        weights = provision.compute_weights(problem)
        doc = {"budget": budget, "tier_costs": list(problem.tier_costs), **asdict(solution)}
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
            for tier, (w, c) in enumerate(zip(weights, problem.tier_costs), start=1):
                print(f"  tier {tier}: unit cost {c:g}, decision weight {w}")
    return EXIT_INFEASIBLE if any_infeasible else EXIT_OK


def cmd_collect(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if not config.budgets:
        raise ConfigError("no budgets configured")
    catalog = ModelCatalog.load(config.catalog)
    profile = load_profile(config.task_profile)
    pools = {budget: _pool(config, catalog, profile, budget) for budget in config.budgets}
    backends, close_backends = _build_backends(config, catalog, profile)
    evaluator = get_evaluator(profile.evaluator_kind)

    header = {"catalog_hash": catalog.content_hash(), "seed": config.seed}
    if config.stamp:
        import datetime

        header["collected_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()

    try:
        ds = dataset.collect(
            list(profile.tasks),
            config.budgets,
            pools,
            backends,
            evaluator,
            limits=config.limits,
            max_tokens=profile.max_tokens,
            planned_t_in=profile.t_in,
            header=header,
            jobs=config.jobs,
        )
    finally:
        close_backends()
    out_path = Path(config.out_dir) / "dataset.jsonl"
    Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    dataset.save(ds, out_path)
    print(f"collected {len(ds)} experiences -> {out_path}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    from . import policy

    config = _load_config(args)
    ds_path = Path(config.out_dir) / "dataset.jsonl"
    if not ds_path.exists():
        raise ConfigError(f"dataset not found: {ds_path}; run 'collect' first")
    ds = dataset.load(ds_path)
    if len(ds) == 0:
        raise ConfigError("dataset is empty; nothing to train on")

    trainer = policy.TrainerConfig(seed=config.seed, **config.trainer)
    result = policy.train(ds, trainer, reward_config=config.reward)

    weights_path = Path(config.out_dir) / "policy.json"
    policy.save_params(result.params, weights_path, seed=trainer.seed)
    report = {
        "epoch_scores": result.epoch_scores,
        "best_epoch": result.best_epoch,
        "best_score": result.epoch_scores[result.best_epoch - 1],
        # budget_ref's resolved value is policy.json's meta.budget_ref.
        "trainer": {k: v for k, v in asdict(trainer).items() if k != "budget_ref"},
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
    config = _load_config(args)
    if not config.budgets:
        raise ConfigError("no budget configured (use --budget)")
    if len(config.budgets) > 1:
        raise ConfigError(
            f"{len(config.budgets)} budgets are configured and 'run' serves one; pass --budget"
        )
    catalog = ModelCatalog.load(config.catalog)
    profile = load_profile(config.task_profile)
    backends, close_backends = _build_backends(config, catalog, profile)
    evaluator = get_evaluator(profile.evaluator_kind)

    override = topology_from_name(args.topology) if args.topology else None
    params = None
    if override is None:
        from . import policy

        weights_path = Path(config.out_dir) / "policy.json"
        if not weights_path.exists():
            raise ConfigError(
                f"no trained policy at {weights_path}; run 'train' or pass --topology"
            )
        params = policy.load_params(weights_path)

    if args.task:
        tasks = [TaskSpec(task_id="adhoc", text=args.task, answer=args.answer)]
        out_path = Path(config.out_dir) / "trace.json"
    else:
        tasks = list(profile.tasks)
        out_path = Path(config.out_dir) / "traces.jsonl"
    if not tasks:
        raise ConfigError("no tasks to run")

    budget = config.budgets[0]
    pool = _pool(config, catalog, profile, budget)
    staffable = topology.staffable_topologies(pool)
    if not staffable:
        raise ConfigError(
            f"the pool for budget {_budget_label(budget)} has {len(pool)} agent(s), too few for any topology"
        )
    if override is None:
        topologies = [Topology(t) for t in policy.select_topology(params, tasks, budget, allowed=staffable)]
    else:
        topologies = [override] * len(tasks)
    traces = []
    try:
        for task, topo in zip(tasks, topologies):
            trace = topology.execute(
                task,
                pool,
                topo,
                budget,
                backends,
                evaluator,
                limits=config.limits,
                max_tokens=profile.max_tokens,
                planned_t_in=profile.t_in,
            )
            traces.append(trace)
            print(
                f"{task.task_id}: topology={trace.topology} cost={trace.cumulative_cost:g} "
                f"success={trace.success} oob={trace.oob} answer={trace.final_answer!r}"
            )
    finally:
        close_backends()

    Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    if args.task:
        out_path.write_text(traces[0].to_json(), encoding="utf-8")
    else:
        out_path.write_text("\n".join(t.to_json() for t in traces) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.traces)
    if not path.exists():
        raise ConfigError(f"trace file not found: {path}")
    lines = path.read_text(encoding="utf-8").splitlines()
    traces = [t for _, t in read_jsonl(path, lines, topology.TRACE_FIELDS, topology.TRACE_REQUIRED, "trace")]

    if not traces:
        print("warning: no traces found")
        print("Acc 0.0%  Avg Cost 0.0  OOB 0/0")
        return EXIT_OK

    n = len(traces)
    successes = sum(1 for t in traces if t.get("success"))
    avg_cost = sum(t["cumulative_cost"] for t in traces) / n
    oob = sum(1 for t in traces if t["oob"])
    print(f"Acc {100.0 * successes / n:.1f}%  Avg Cost {avg_cost:g}  OOB {oob}/{n}")
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

    # The flags every pipeline command shares, built once.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its fields")
    common.add_argument("--catalog", help="model catalog JSON")
    common.add_argument("--profile", help="task profile JSON")
    common.add_argument("--budget", type=float, help="single budget override")
    common.add_argument("--seed", type=int, help="global random seed (default 42)")
    common.add_argument("--out", help="output directory (default 'out')")
    common.add_argument("--jobs", type=int, help="worker pool size for collection")
    common.add_argument("--mock", action="store_true", help="use the profile's scripted backend")

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
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
