import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import budgetagents
from budgetagents import policy, provision
from budgetagents.backend import HttpBackend, ScriptedBackend
from budgetagents.catalog import ModelCatalog
from budgetagents.cli import RunConfig, _budget_label, _build_backends, main
from budgetagents.profile import TaskSpec, profile_from_dict
from synth import dominant_topology_dataset

# tier costs at t_in = t_out = 500 come out to [1235.0, 250.0]
CATALOG = {
    "models": [
        {"name": "strong-model", "tier": 1, "price_in_per_mtok": 0.27,
         "price_out_per_mtok": 2.20, "backend_id": "strong"},
        {"name": "cheap-model", "tier": 2, "price_in_per_mtok": 0.10,
         "price_out_per_mtok": 0.40, "backend_id": "cheap"},
    ],
    "backends": {
        "strong": {"base_url": "https://example.invalid/v1"},
        "cheap": {"base_url": "https://example.invalid/v1"},
    },
}

PROFILE = {
    "t_in": 500,
    "t_out": 500,
    "evaluator": "numeric",
    "max_tokens": {"planner": 384, "executor": 384, "critic": 384},
    "tasks": [
        {"id": "t1", "text": "What is 6 times 7?", "answer": "42"},
        {"id": "t2", "text": "What is 10 plus 5?", "answer": "15"},
    ],
    "mock_script": {
        "default_prompt_tokens": 500,
        "rules": [
            {"role": "executor", "text": "the answer is 42", "completion_tokens": 100},
            {"role": "critic", "text": "ACCEPT", "completion_tokens": 2},
            {"role": "planner", "text": "1. compute\n2. answer", "completion_tokens": 10},
        ],
    },
}


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "catalog.json").write_text(json.dumps(CATALOG))
    (tmp_path / "profile.json").write_text(json.dumps(PROFILE))
    config = {
        "catalog": str(tmp_path / "catalog.json"),
        "task_profile": str(tmp_path / "profile.json"),
        "budgets": [2000.0],
        "seed": 42,
        "mock": True,
        "out_dir": str(tmp_path / "out"),
        "trainer": {"learning_rate": 0.0015, "batch_size": 32, "epochs": 5},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    return tmp_path


def run(*argv):
    return main(list(argv))


def test_provision_writes_solution(workdir, capsys):
    code = run("provision", "--config", str(workdir / "config.json"))
    assert code == 0
    assert (workdir / "out" / "provision_2000.json").read_text() == (
        '{"budget": 2000.0, "tier_costs": [1235.0, 250.0], "counts": [1, 3], "total_weight": 12, '
        '"total_cost": 1985.0, "feasible": true, "reason": null}'
    )
    assert "counts [1, 3]" in capsys.readouterr().out


def test_provision_infeasible_exit_code(workdir):
    code = run("provision", "--config", str(workdir / "config.json"), "--budget", "300")
    assert code == 2
    assert (workdir / "out" / "provision_300.json").read_text() == (
        '{"budget": 300.0, "tier_costs": [1235.0, 250.0], "counts": [0, 0], "total_weight": 0, '
        '"total_cost": 0.0, "feasible": false, "reason": "budget 300 affords at most 1 agent(s); at least 2 required"}'
    )


def test_provision_explain_prints_weights(workdir, capsys):
    code = run("provision", "--config", str(workdir / "config.json"), "--explain")
    assert code == 0
    out = capsys.readouterr().out
    assert "decision weight 9" in out
    assert "decision weight 1" in out


def edit_config(workdir, **fields):
    path = workdir / "config.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **fields}))


def collect_linear_costs(workdir, *flags):
    """The linear rows' costs in the dataset a fresh `collect` writes."""
    assert run("collect", "--config", str(workdir / "config.json"), *flags) == 0
    rows = (workdir / "out" / "dataset.jsonl").read_text().splitlines()[1:]
    return [row["actual_cost"] for row in map(json.loads, rows) if row["topology"] == 0]


def run_linear_costs(workdir):
    assert run("run", "--config", str(workdir / "config.json"), "--topology", "linear") == 0
    traces = (workdir / "out" / "traces.jsonl").read_text().splitlines()
    return [json.loads(line)["cumulative_cost"] for line in traces]


def test_collect_needs_no_provision_file(workdir):
    config = str(workdir / "config.json")
    assert run("collect", "--config", config) == 0
    dataset = (workdir / "out" / "dataset.jsonl").read_bytes()

    assert run("provision", "--config", config, "--out", str(workdir / "provisioned")) == 0
    assert run("collect", "--config", config, "--out", str(workdir / "provisioned")) == 0
    assert (workdir / "provisioned" / "dataset.jsonl").read_bytes() == dataset

    (workdir / "corrupt").mkdir()
    (workdir / "corrupt" / "provision_2000.json").write_text('{"counts": [}')
    assert run("collect", "--config", config, "--out", str(workdir / "corrupt")) == 0
    assert (workdir / "corrupt" / "dataset.jsonl").read_bytes() == dataset


def test_collect_fails_on_a_response_with_negative_token_counts(workdir, fake_server, capsys):
    # The provider billed this call; a dataset row at cost 0.0 would drop it.
    catalog = json.loads(json.dumps(CATALOG))
    for entry in catalog["backends"].values():
        entry["base_url"] = fake_server.url
    (workdir / "catalog.json").write_text(json.dumps(catalog))
    edit_config(workdir, mock=False)
    fake_server.enqueue(200, {
        "choices": [{"message": {"content": "42"}}],
        "usage": {"prompt_tokens": -5, "completion_tokens": 3},
    })
    assert run("collect", "--config", str(workdir / "config.json")) == 1
    assert capsys.readouterr().err == "error: token counts must be >= 0\n"
    assert len(fake_server.requests) == 1
    assert not (workdir / "out" / "dataset.jsonl").exists()


def test_collect_and_run_share_the_pool_after_instance_cap_changes(workdir):
    edit_config(workdir, instance_cap=5)
    assert run("provision", "--config", str(workdir / "config.json")) == 0  # [1, 3]: linear costs 625
    edit_config(workdir, instance_cap=1)  # [1, 1]: one strong and one cheap call
    assert collect_linear_costs(workdir) == [445.0, 445.0]
    assert run_linear_costs(workdir) == [445.0, 445.0]


def test_collect_and_run_share_the_pool_after_a_price_changes(workdir):
    assert run("provision", "--config", str(workdir / "config.json")) == 0
    catalog = json.loads(json.dumps(CATALOG))
    catalog["models"][0]["price_out_per_mtok"] = 22.0  # tier costs become [11135.0, 250.0]: pool [0, 5]
    (workdir / "catalog.json").write_text(json.dumps(catalog))
    assert collect_linear_costs(workdir) == [450.0, 450.0]
    assert run_linear_costs(workdir) == [450.0, 450.0]


def test_collect_solves_provisioning_once_per_budget(workdir, monkeypatch):
    budgets = []
    real_solve = provision.solve

    def counting_solve(problem):
        budgets.append(problem.budget)
        return real_solve(problem)

    monkeypatch.setattr(provision, "solve", counting_solve)
    edit_config(workdir, budgets=[2000.0, 500.0])
    assert run("collect", "--config", str(workdir / "config.json")) == 0
    rows = (workdir / "out" / "dataset.jsonl").read_text().splitlines()
    assert len(rows) == 1 + 2 * 2 * 4  # header + 2 tasks x 2 budgets x 4 topologies
    assert budgets == [2000.0, 500.0]


def test_collect_infeasible_budget_errors_before_any_run(workdir, capsys):
    assert run("collect", "--config", str(workdir / "config.json"), "--budget", "300") == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: provisioning infeasible for budget 300: ")
    assert captured.out == ""
    assert not (workdir / "out" / "dataset.jsonl").exists()


@pytest.mark.parametrize("command", ["provision", "collect"])
def test_repeated_budget_rejected_before_any_work(workdir, capsys, command):
    edit_config(workdir, budgets=[2000, 500, 2000.0])
    assert run(command, "--config", str(workdir / "config.json")) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: budgets[2] repeats budget 2000\n"
    assert captured.out == ""
    assert not (workdir / "out").exists()


def test_distinct_budgets_get_distinct_provision_files(workdir, capsys):
    # Both budgets print as 1.23457e+06 with :g; each keeps its own label and file.
    edit_config(workdir, budgets=[1234567, 1234568])
    assert run("provision", "--config", str(workdir / "config.json")) == 0
    out = capsys.readouterr().out
    assert "budget 1234567.0: counts" in out and "budget 1234568.0: counts" in out
    files = sorted(p.name for p in (workdir / "out").glob("provision_*.json"))
    assert files == ["provision_1234567.0.json", "provision_1234568.0.json"]
    for name in files:
        doc = json.loads((workdir / "out" / name).read_text())
        assert repr(doc["budget"]) == name[len("provision_"):-len(".json")]


@pytest.mark.parametrize(
    "budget, label", [(2000.0, "2000"), (0.5, "0.5"), (1e6, "1e+06"), (0.1 + 0.2, "0.30000000000000004")]
)
def test_budget_label_is_short_where_it_reads_back(budget, label):
    assert _budget_label(budget) == label
    assert float(label) == budget


def test_collect_then_train_then_run(workdir, capsys):
    config = str(workdir / "config.json")
    assert run("provision", "--config", config) == 0
    assert run("collect", "--config", config) == 0

    dataset_path = workdir / "out" / "dataset.jsonl"
    lines = dataset_path.read_text().splitlines()
    assert len(lines) == 1 + 2 * 4  # header + 2 tasks x 1 budget x 4 topologies
    header = json.loads(lines[0])
    assert header["seed"] == 42 and "catalog_hash" in header

    assert run("train", "--config", config) == 0
    assert (workdir / "out" / "policy.json").exists()
    report = json.loads((workdir / "out" / "training_report.json").read_text())
    assert len(report["epoch_scores"]) == 5
    assert report["best_score"] == max(report["epoch_scores"])
    assert list(report["trainer"]) == ["learning_rate", "entropy_coeff", "batch_size", "epochs", "seed"]

    assert run("run", "--config", config) == 0
    traces_path = workdir / "out" / "traces.jsonl"
    traces = [json.loads(line) for line in traces_path.read_text().splitlines()]
    assert len(traces) == 2
    assert all(t["cumulative_cost"] > 0 for t in traces)

    capsys.readouterr()
    assert run("report", str(traces_path)) == 0
    out = capsys.readouterr().out
    assert "Acc" in out and "OOB" in out


def test_run_with_topology_override_and_adhoc_task(workdir):
    # budget 500 provisions the two cheap agents; linear gives the 180.0 trace
    config = str(workdir / "config.json")
    code = run(
        "run", "--config", config, "--task", "What is 6 times 7?", "--answer", "42",
        "--topology", "linear", "--budget", "500",
    )
    assert code == 0
    trace = json.loads((workdir / "out" / "trace.json").read_text())
    assert trace["topology"] == "linear"
    assert trace["success"] is True
    assert trace["cumulative_cost"] == pytest.approx(180.0)
    assert [c["instance"] for c in trace["calls"]] == ["cheap-model#1", "cheap-model#2"]


def test_run_solves_provisioning_once(workdir, monkeypatch):
    calls = []
    real_solve = provision.solve

    def counting_solve(problem):
        calls.append(problem)
        return real_solve(problem)

    monkeypatch.setattr(provision, "solve", counting_solve)
    code = run("run", "--config", str(workdir / "config.json"), "--topology", "star")
    assert code == 0
    traces = (workdir / "out" / "traces.jsonl").read_text().splitlines()
    assert len(traces) == len(PROFILE["tasks"]) == 2
    assert len(calls) == 1


def test_run_infeasible_budget_errors_before_any_task(workdir, capsys):
    code = run("run", "--config", str(workdir / "config.json"), "--topology", "linear", "--budget", "300")
    assert code == 1
    captured = capsys.readouterr()
    assert "infeasible" in captured.err
    assert captured.out == ""


def test_run_with_several_budgets_needs_budget_flag(workdir, capsys):
    config = json.loads((workdir / "config.json").read_text())
    config["budgets"] = [2000.0, 500.0]
    (workdir / "config.json").write_text(json.dumps(config))
    code = run("run", "--config", str(workdir / "config.json"), "--topology", "linear")
    assert code == 1
    captured = capsys.readouterr()
    assert "2 budgets are configured" in captured.err and "--budget" in captured.err
    assert captured.out == ""
    assert not (workdir / "out" / "traces.jsonl").exists()


def test_run_pool_too_small_for_any_topology_errors(workdir, capsys):
    config = json.loads((workdir / "config.json").read_text())
    config["min_agents"] = 1  # budget 300 then provisions one cheap agent
    (workdir / "config.json").write_text(json.dumps(config))
    code = run("run", "--config", str(workdir / "config.json"), "--topology", "linear", "--budget", "300")
    assert code == 1
    captured = capsys.readouterr()
    assert "too few for any topology" in captured.err
    assert captured.out == ""


def test_greedy_planner_on_two_agent_pool_picks_a_staffable_topology(workdir):
    # A policy that always prefers planner, served at budget 500, where the
    # pool is two cheap agents: too few for planner's three seats.
    config = policy.TrainerConfig(learning_rate=0.0015, batch_size=64, epochs=10, seed=0)
    params = policy.train(dominant_topology_dataset(dominant=3, budget=8000), config).params
    tasks = [TaskSpec(task["id"], task["text"]) for task in PROFILE["tasks"]]
    assert policy.select_topology(params, tasks, 500.0) == [3, 3]
    (workdir / "out").mkdir()
    policy.save_params(params, workdir / "out" / "policy.json", seed=0)

    code = run("run", "--config", str(workdir / "config.json"), "--budget", "500")
    assert code == 0
    traces = [json.loads(line) for line in (workdir / "out" / "traces.jsonl").read_text().splitlines()]
    assert len(traces) == 2
    assert all(t["topology"] != "planner" for t in traces)
    assert all(len({c["instance"] for c in t["calls"]}) == 2 for t in traces)


def test_run_selects_every_topology_in_one_call(workdir, monkeypatch):
    (workdir / "out").mkdir()
    policy.save_params(policy.init_params(seed=0, budget_ref=2000.0), workdir / "out" / "policy.json")
    calls = []
    real_select = policy.select_topology

    def counting_select(params, tasks, budget, allowed=None):
        calls.append([task.task_id for task in tasks])
        return real_select(params, tasks, budget, allowed)

    monkeypatch.setattr(policy, "select_topology", counting_select)
    assert run("run", "--config", str(workdir / "config.json")) == 0
    assert calls == [["t1", "t2"]]


def test_run_with_corrupt_weights_errors_before_any_task(workdir, capsys):
    (workdir / "out").mkdir()
    path = workdir / "out" / "policy.json"
    policy.save_params(policy.init_params(seed=0, budget_ref=2000.0), path)
    doc = json.loads(path.read_text())
    doc["layers"]["core_b"]["values"] = doc["layers"]["core_b"]["values"][:-8]
    path.write_text(json.dumps(doc))
    assert run("run", "--config", str(workdir / "config.json")) == 1
    captured = capsys.readouterr()
    assert "layer core_b" in captured.err
    assert captured.out == ""
    assert not (workdir / "out" / "traces.jsonl").exists()


def test_run_with_a_layer_of_another_shape_errors_before_any_task(workdir, capsys):
    (workdir / "out").mkdir()
    path = workdir / "out" / "policy.json"
    policy.save_params(policy.init_params(seed=0, budget_ref=2000.0), path)
    doc = json.loads(path.read_text())
    doc["layers"]["head_b"] = {"shape": [1], "values": "AAAAAAAAAAA="}  # one 0.0, where this build has 4 topologies
    path.write_text(json.dumps(doc))
    assert run("run", "--config", str(workdir / "config.json")) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: layer head_b has shape [1], this build's is [4]\n"
    assert captured.out == ""
    assert not (workdir / "out" / "traces.jsonl").exists()


def test_run_with_weights_of_another_embedding_width_errors_before_any_task(workdir, capsys):
    (workdir / "out").mkdir()
    path = workdir / "out" / "policy.json"
    params = policy.init_params(seed=0, budget_ref=2000.0)
    params.embed_w = params.embed_w[:, :100]
    policy.save_params(params, path)
    assert run("run", "--config", str(workdir / "config.json")) == 1
    captured = capsys.readouterr()
    assert f"{path}: weights were trained on 100-d embeddings, this build embeds in 384-d" in captured.err
    assert captured.out == ""


def test_run_without_weights_errors(workdir, capsys):
    config = str(workdir / "config.json")
    code = run("run", "--config", config, "--task", "anything")
    assert code == 1
    assert "policy" in capsys.readouterr().err


def test_train_without_dataset_errors(workdir):
    assert run("train", "--config", str(workdir / "config.json")) == 1


def test_zero_epoch_config_errors(workdir):
    config = json.loads((workdir / "config.json").read_text())
    config["trainer"]["epochs"] = 0
    (workdir / "config.json").write_text(json.dumps(config))
    assert run("provision", "--config", str(workdir / "config.json")) == 0
    assert run("collect", "--config", str(workdir / "config.json")) == 0
    assert run("train", "--config", str(workdir / "config.json")) == 1


def test_empty_task_list_collects_empty_dataset(workdir):
    profile = dict(PROFILE, tasks=[])
    (workdir / "profile.json").write_text(json.dumps(profile))
    config = str(workdir / "config.json")
    assert run("provision", "--config", config) == 0
    assert run("collect", "--config", config) == 0
    lines = (workdir / "out" / "dataset.jsonl").read_text().splitlines()
    assert len(lines) == 1  # header only


def test_mock_mode_without_script_errors(workdir, capsys):
    profile = {k: v for k, v in PROFILE.items() if k != "mock_script"}
    (workdir / "profile.json").write_text(json.dumps(profile))
    config = str(workdir / "config.json")
    assert run("provision", "--config", config) == 0
    assert run("collect", "--config", config) == 1
    assert "mock_script" in capsys.readouterr().err


def test_mock_script_missing_role_errors(workdir, capsys):
    profile = dict(PROFILE)
    profile["mock_script"] = {
        "rules": [{"role": "executor", "text": "42", "completion_tokens": 5}]
    }
    (workdir / "profile.json").write_text(json.dumps(profile))
    config = str(workdir / "config.json")
    assert run("provision", "--config", config) == 0
    assert run("collect", "--config", config) == 1
    err = capsys.readouterr().err
    assert "critic" in err and "planner" in err


def test_stamp_adds_collection_timestamp(workdir):
    config = json.loads((workdir / "config.json").read_text())
    config["stamp"] = True
    (workdir / "config.json").write_text(json.dumps(config))
    assert run("provision", "--config", str(workdir / "config.json")) == 0
    assert run("collect", "--config", str(workdir / "config.json")) == 0
    header = json.loads((workdir / "out" / "dataset.jsonl").read_text().splitlines()[0])
    assert "collected_at" in header


def test_report_empty_file_warns(workdir, capsys):
    empty = workdir / "none.jsonl"
    empty.write_text("")
    assert run("report", str(empty)) == 0
    out = capsys.readouterr().out
    assert "warning" in out and "0/0" in out


def test_report_math(workdir, capsys):
    traces = []
    for i, (cost, ok) in enumerate([(100.0, True), (200.0, True), (300.0, True), (400.0, False)]):
        traces.append(json.dumps({
            "task_id": f"t{i}", "topology": "linear", "budget": 500.0, "calls": [],
            "cumulative_cost": cost, "final_answer": "x", "success": ok,
            "oob": cost > 350.0, "halt": "budget_exceeded" if cost > 350.0 else None, "detail": None,
        }))
    path = workdir / "tr.jsonl"
    path.write_text("\n".join(traces) + "\n")
    assert run("report", str(path)) == 0
    out = capsys.readouterr().out
    assert "Acc 75.0%" in out
    assert "Avg Cost 250" in out
    assert "OOB 1/4" in out
    assert "  halt budget_exceeded: 1/4\n" in out and "  halt backend_failure: 0/4\n" in out


def _trace_line(**overrides):
    trace = {
        "task_id": "t0", "topology": "linear", "budget": 500.0, "calls": [],
        "cumulative_cost": 100.0, "final_answer": "x", "success": True,
        "oob": False, "halt": None, "detail": None,
    }
    return json.dumps(dict(trace, **overrides))


_CALL = {"model": "m", "instance": "m#1", "role": "executor", "t_in": 10, "t_out": 5, "cost": 1.0}


@pytest.mark.parametrize(
    "bad_line, named",
    [
        ("[1, 2]", "trace must be an object, got [1, 2]"),
        (_trace_line(calls=None), "calls must be a list, got None"),
        (_trace_line(budget="lots"), "budget must be a finite number, got 'lots'"),
        (_trace_line(success="false"), "success must be null or true or false, got 'false'"),
        (_trace_line(oob="false"), "oob must be true or false, got 'false'"),
        (_trace_line(topology="ring"), "topology must be one of linear, star, feedback, planner, got 'ring'"),
        (_trace_line(calls=[dict(_CALL, t_in=1.5)]), "calls[0].t_in must be an integer, got 1.5"),
        (_trace_line(halt="timeout"), "halt must be null or one of budget_exceeded, precall_guard, "
                                      "backend_failure, evaluator_failure, got 'timeout'"),
        (_trace_line(terminated_early=False), "unknown field terminated_early"),
    ],
    ids=["array", "null_calls", "budget_string", "success_string", "oob_string", "unknown_topology",
         "call_t_in_float", "unknown_halt", "old_terminated_early"],
)
def test_report_malformed_trace_names_its_line(workdir, capsys, bad_line, named):
    path = workdir / "tr.jsonl"
    path.write_text(_trace_line(calls=[_CALL]) + "\n" + bad_line + "\n")
    assert run("report", str(path)) == 1
    captured = capsys.readouterr()
    assert f"{path}: line 2: {named}" in captured.err
    assert captured.out == ""


def test_missing_config_file(capsys):
    assert run("provision", "--config", "/nonexistent/config.json") == 1


@pytest.mark.parametrize(
    "section, fields, named",
    [
        ("limits", {"precall_slack": "10"}, "limits.precall_slack"),
        ("limits", {"max_replans": -1}, "limits.max_replans"),
        ("reward", {"w_costs": 1.0}, "reward.w_costs"),
        ("trainer", {"seed": 3}, "trainer.seed"),
        ("trainer", {"epochs": "5"}, "trainer.epochs"),
        ("trainer", {"adam_beta1": 0.9}, "unknown field trainer.adam_beta1"),
    ],
    ids=["slack_string", "negative_replans", "misspelt_reward", "trainer_seed", "epochs_string", "adam_constant"],
)
def test_malformed_config_section_rejected_before_any_work(workdir, capsys, section, fields, named):
    config = json.loads((workdir / "config.json").read_text())
    config[section] = dict(config.get(section, {}), **fields)
    (workdir / "config.json").write_text(json.dumps(config))
    assert run("provision", "--config", str(workdir / "config.json")) == 1
    assert named in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("budgets", "25"),
        ("budgets", [2000.0, True]),
        ("mock", "false"),
        ("stamp", "false"),
        ("instance_cap", 2.9),
        ("min_agents", 2.0),
        ("seed", "42"),
        ("seed", -1),
        ("jobs", "2"),
        ("jobs", 0),
        ("jobs", -4),
        ("catalog", 7),
        ("out_dir", ["out"]),
    ],
    ids=["budgets_string", "budgets_bool", "mock_string", "stamp_string", "instance_cap_float",
         "min_agents_float", "seed_string", "seed_negative", "jobs_string", "jobs_zero", "jobs_negative",
         "catalog_number", "out_dir_list"],
)
def test_malformed_top_level_field_rejected_before_any_work(workdir, capsys, key, value):
    config = json.loads((workdir / "config.json").read_text())
    config[key] = value
    (workdir / "config.json").write_text(json.dumps(config))
    assert run("provision", "--config", str(workdir / "config.json")) == 1
    assert f"{key} must be" in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--jobs", "-2"], "--jobs must be an integer > 0, got -2"),
        (["--jobs", "0"], "--jobs must be an integer > 0, got 0"),
        (["--seed", "-1"], "--seed must be an integer >= 0, got -1"),
        (["--budget", "inf"], "--budget must be a finite number > 0, got inf"),
        (["--budget", "nan"], "--budget must be a finite number > 0, got nan"),
        (["--budget", "0"], "--budget must be a finite number > 0, got 0.0"),
        (["--budget", "-5"], "--budget must be a finite number > 0, got -5.0"),
    ],
    ids=["jobs_negative", "jobs_zero", "seed_negative", "budget_inf", "budget_nan", "budget_zero", "budget_negative"],
)
def test_malformed_flag_rejected_before_any_work(workdir, capsys, flags, named):
    assert run("provision", "--config", str(workdir / "config.json"), *flags) == 1
    assert capsys.readouterr().err == f"error: {named}\n"
    assert not (workdir / "out").exists()


@pytest.mark.parametrize(
    "key, value", [("instance_caps", 1), ("budget", 500.0)], ids=["instance_caps", "budget"]
)
def test_unknown_top_level_field_rejected_before_any_work(workdir, capsys, key, value):
    config = json.loads((workdir / "config.json").read_text())
    config[key] = value
    (workdir / "config.json").write_text(json.dumps(config))
    assert run("provision", "--config", str(workdir / "config.json")) == 1
    assert f"unknown field {key};" in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize(
    "models, named",
    [(["a"], "models[0] must be an object, got 'a'"), ("a", "models must be a list, got 'a'")],
    ids=["entry_not_object", "models_not_list"],
)
def test_malformed_catalog_rejected_before_any_work(workdir, capsys, models, named):
    (workdir / "catalog.json").write_text(json.dumps(dict(CATALOG, models=models)))
    assert run("provision", "--config", str(workdir / "config.json")) == 1
    assert named in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize(
    "script, message",
    [
        ({"rules": ["x"]}, "mock_script.rules[0] must be an object"),
        ([], "mock_script must be an object"),
        ({"rules": [{"role": "*", "completion_tokens": "ten"}]}, "mock_script.rules[0].completion_tokens"),
    ],
    ids=["rule_string", "script_list", "tokens_string"],
)
def test_malformed_mock_script_rejected_before_any_work(workdir, capsys, script, message):
    profile = json.loads(json.dumps(PROFILE))
    profile["mock_script"] = script
    (workdir / "profile.json").write_text(json.dumps(profile))
    code = run("run", "--config", str(workdir / "config.json"), "--topology", "linear", "--task", "x")
    assert code == 1
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "key, value",
    [
        ("requests_per_second", "5"),
        ("requests_per_second", 0),
        ("timeout", "30"),
        ("timeout", None),
        ("timeout", -1.0),
        ("base_url", 7),
    ],
    ids=["rps_string", "rps_zero", "timeout_string", "timeout_null", "timeout_negative", "base_url_number"],
)
def test_malformed_backend_entry_rejected_before_any_call(workdir, capsys, key, value):
    catalog = json.loads(json.dumps(CATALOG))
    catalog["backends"]["strong"][key] = value
    (workdir / "catalog.json").write_text(json.dumps(catalog))
    config = json.loads((workdir / "config.json").read_text())
    config["mock"] = False
    (workdir / "config.json").write_text(json.dumps(config))
    code = run("run", "--config", str(workdir / "config.json"), "--topology", "linear", "--task", "x")
    assert code == 1
    captured = capsys.readouterr()
    assert f"backends.strong.{key} must be" in captured.err
    assert captured.out == ""


def test_backends_are_built_from_the_loaded_catalog(workdir):
    catalog_doc = json.loads(json.dumps(CATALOG))
    catalog_doc["backends"]["cheap"] = {"base_url": "http://localhost:8/v1", "timeout": 5.0}
    path = workdir / "catalog.json"
    path.write_text(json.dumps(catalog_doc))
    catalog = ModelCatalog.load(path)
    path.write_text("{not json")  # a second parse of the file would fail
    config = RunConfig(catalog=str(path), task_profile=str(workdir / "profile.json"), budgets=[2000.0])
    endpoints, close = _build_backends(config, catalog, profile_from_dict(PROFILE))
    try:
        assert sorted(endpoints) == ["cheap", "strong"]
        assert all(isinstance(endpoint, HttpBackend) for endpoint in endpoints.values())
        assert (endpoints["strong"]._host, endpoints["strong"].timeout) == ("example.invalid", 60.0)
        assert (endpoints["cheap"]._host, endpoints["cheap"]._port, endpoints["cheap"].timeout) == ("localhost", 8, 5.0)
    finally:
        close()


def test_mock_backends_share_one_scripted_instance(workdir):
    catalog = ModelCatalog.load(workdir / "catalog.json")
    config = RunConfig(catalog="", task_profile="", budgets=[2000.0], mock=True)
    backends, close = _build_backends(config, catalog, profile_from_dict(PROFILE))
    close()
    assert sorted(backends) == ["cheap", "strong"]
    assert isinstance(backends["cheap"], ScriptedBackend)
    assert backends["cheap"] is backends["strong"]


def test_usage_error_exits_1_not_the_infeasible_code(capsys):
    assert main(["provision", "--jobs", "x"]) == 1
    assert "argument --jobs: invalid int value: 'x'" in capsys.readouterr().err
    assert main(["--help"]) == 0


# Each command's --help at COLUMNS=80, as printed when the shared flags were
# added to each command one by one.
HELP_TEXTS = {
    '': """\
usage: budgetagents [-h] {provision,collect,train,run,report} ...

Budget-aware multi-agent pipeline: provision, collect, train, run, report.

positional arguments:
  {provision,collect,train,run,report}
    provision           solve the budgeted pool selection
    collect             execute all topologies per task into a dataset
    train               train the topology-selection policy
    run                 provision, select a topology, and execute
    report              summarize a JSONL trace file

options:
  -h, --help            show this help message and exit
""",
    'provision': """\
usage: budgetagents provision [-h] [--config CONFIG] [--catalog CATALOG]
                              [--profile PROFILE] [--budget BUDGET]
                              [--seed SEED] [--out OUT] [--jobs JOBS] [--mock]
                              [--explain]

options:
  -h, --help         show this help message and exit
  --config CONFIG    JSON config file; flags override its fields
  --catalog CATALOG  model catalog JSON
  --profile PROFILE  task profile JSON
  --budget BUDGET    single budget override
  --seed SEED        global random seed (default 42)
  --out OUT          output directory (default 'out')
  --jobs JOBS        worker pool size for collection
  --mock             use the profile's scripted backend
  --explain          print per-tier decision weights
""",
    'collect': """\
usage: budgetagents collect [-h] [--config CONFIG] [--catalog CATALOG]
                            [--profile PROFILE] [--budget BUDGET]
                            [--seed SEED] [--out OUT] [--jobs JOBS] [--mock]

options:
  -h, --help         show this help message and exit
  --config CONFIG    JSON config file; flags override its fields
  --catalog CATALOG  model catalog JSON
  --profile PROFILE  task profile JSON
  --budget BUDGET    single budget override
  --seed SEED        global random seed (default 42)
  --out OUT          output directory (default 'out')
  --jobs JOBS        worker pool size for collection
  --mock             use the profile's scripted backend
""",
    'train': """\
usage: budgetagents train [-h] [--config CONFIG] [--catalog CATALOG]
                          [--profile PROFILE] [--budget BUDGET] [--seed SEED]
                          [--out OUT] [--jobs JOBS] [--mock]

options:
  -h, --help         show this help message and exit
  --config CONFIG    JSON config file; flags override its fields
  --catalog CATALOG  model catalog JSON
  --profile PROFILE  task profile JSON
  --budget BUDGET    single budget override
  --seed SEED        global random seed (default 42)
  --out OUT          output directory (default 'out')
  --jobs JOBS        worker pool size for collection
  --mock             use the profile's scripted backend
""",
    'run': """\
usage: budgetagents run [-h] [--config CONFIG] [--catalog CATALOG]
                        [--profile PROFILE] [--budget BUDGET] [--seed SEED]
                        [--out OUT] [--jobs JOBS] [--mock] [--task TASK]
                        [--answer ANSWER] [--topology TOPOLOGY]

options:
  -h, --help           show this help message and exit
  --config CONFIG      JSON config file; flags override its fields
  --catalog CATALOG    model catalog JSON
  --profile PROFILE    task profile JSON
  --budget BUDGET      single budget override
  --seed SEED          global random seed (default 42)
  --out OUT            output directory (default 'out')
  --jobs JOBS          worker pool size for collection
  --mock               use the profile's scripted backend
  --task TASK          ad-hoc task text (default: run every profile task)
  --answer ANSWER      expected answer for the ad-hoc task
  --topology TOPOLOGY  bypass the policy with a fixed topology
""",
    'report': """\
usage: budgetagents report [-h] traces

positional arguments:
  traces      path to traces.jsonl

options:
  -h, --help  show this help message and exit
""",
}


@pytest.mark.parametrize("command", list(HELP_TEXTS), ids=[c or "top" for c in HELP_TEXTS])
def test_help_text_is_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([*command.split(), "--help"]) == 0
    assert capsys.readouterr().out == HELP_TEXTS[command]


@pytest.mark.parametrize(
    "name, command",
    [
        ("config.json", "provision"),
        ("catalog.json", "provision"),
        ("profile.json", "provision"),
        ("out/policy.json", "run"),
    ],
    ids=["config", "catalog", "profile", "weights"],
)
def test_invalid_json_names_its_file(workdir, capsys, name, command):
    path = workdir / name
    path.parent.mkdir(exist_ok=True)
    path.write_text('{"models": [}')
    assert run(command, "--config", str(workdir / "config.json")) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: invalid JSON: Expecting value (line 1 column 13)\n"
    assert captured.out == ""


def python_with_src(*args):
    """Runs a fresh interpreter that imports the package from this checkout."""
    src = str(Path(budgetagents.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def test_module_entry_point_runs_the_command(tmp_path):
    missing = tmp_path / "missing.jsonl"
    result = python_with_src("-m", "budgetagents.cli", "report", str(missing))
    assert result.returncode == 1
    assert f"trace file not found: {missing}" in result.stderr


def test_cli_start_up_does_not_import_requests():
    result = python_with_src("-c", "import budgetagents.cli, sys; print('requests' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_explicit_config_sections_accepted(workdir):
    config = json.loads((workdir / "config.json").read_text())
    config["limits"] = {"max_feedback_rounds": 0, "max_replans": 0, "precall_slack": 0.5}
    config["reward"] = {"w_cost": 2, "bonus_slope": 0.25}
    config["trainer"]["budget_ref"] = None
    (workdir / "config.json").write_text(json.dumps(config))
    assert run("provision", "--config", str(workdir / "config.json")) == 0


def test_flags_override_config(workdir):
    config = str(workdir / "config.json")
    assert run("provision", "--config", config, "--budget", "500") == 0
    doc = json.loads((workdir / "out" / "provision_500.json").read_text())
    assert doc["counts"] == [0, 2]


def test_pipeline_byte_determinism(workdir, tmp_path):
    def run_pipeline(out_dir):
        config = {
            "catalog": str(workdir / "catalog.json"),
            "task_profile": str(workdir / "profile.json"),
            "budgets": [2000.0],
            "seed": 42,
            "mock": True,
            "out_dir": str(out_dir),
            "trainer": {"learning_rate": 0.0015, "batch_size": 32, "epochs": 3},
        }
        config_path = out_dir.parent / f"{out_dir.name}.json"
        config_path.write_text(json.dumps(config))
        for command in ("provision", "collect", "train", "run"):
            assert run(command, "--config", str(config_path)) == 0

    a, b = tmp_path / "out_a", tmp_path / "out_b"
    run_pipeline(a)
    run_pipeline(b)
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
