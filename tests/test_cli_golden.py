"""Golden bytes for a mock `provision → collect → run --topology linear →
report` through the CLI.

Every string below was captured from the code before `collect`, `save` and
`load` stopped passing a dataset object between them. Each command's stdout
and each file it writes must keep these exact bytes, with the work directory
read as `<DIR>`. `train` and `policy.json` are left out: their last bits
depend on the numpy build's linear algebra.
"""

import json

from budgetagents.cli import main
from test_cli import CATALOG, PROFILE

STDOUT = {
    "provision": (
        "budget 2000: counts [1, 3] cost 1985 weight 12\n"
        "  tier 1: unit cost 1235, decision weight 9\n"
        "  tier 2: unit cost 250, decision weight 1\n"
        "budget 600: counts [0, 2] cost 500 weight 2\n"
        "  tier 1: unit cost 1235, decision weight 3\n"
        "  tier 2: unit cost 250, decision weight 1\n"
    ),
    "collect": "collected 16 experiences -> <DIR>/out/dataset.jsonl\n",
    "run": (
        "t1: topology=linear cost=625 success=True oob=False answer='the answer is 42'\n"
        "t2: topology=linear cost=625 success=False oob=False answer='the answer is 42'\n"
        "wrote <DIR>/out/traces.jsonl\n"
    ),
    "report": (
        "Acc 50.0%  Avg Cost 625  OOB 0/2\n"
        "  linear: 2/2\n"
        "  star: 0/2\n"
        "  feedback: 0/2\n"
        "  planner: 0/2\n"
        "  halt budget_exceeded: 0/2\n"
        "  halt precall_guard: 0/2\n"
        "  halt backend_failure: 0/2\n"
        "  halt evaluator_failure: 0/2\n"
    ),
}

_PLANNER_TOO_FEW = "planner topology needs at least 3 instances (planner + critic + executor), pool has 2"
_CALLS = (
    '"calls": [{"model": "strong-model", "instance": "strong-model#1", "role": "executor", '
    '"t_in": 500, "t_out": 100, "cost": 355.0}, {"model": "cheap-model", "instance": "cheap-model#1", '
    '"role": "executor", "t_in": 500, "t_out": 100, "cost": 90.0}, {"model": "cheap-model", '
    '"instance": "cheap-model#2", "role": "executor", "t_in": 500, "t_out": 100, "cost": 90.0}, '
    '{"model": "cheap-model", "instance": "cheap-model#3", "role": "executor", "t_in": 500, '
    '"t_out": 100, "cost": 90.0}]'
)

FILES = {
    "provision_2000.json": (
        '{"budget": 2000.0, "tier_costs": [1235.0, 250.0], "counts": [1, 3], "total_weight": 12, '
        '"total_cost": 1985.0, "feasible": true, "reason": null}'
    ),
    "provision_600.json": (
        '{"budget": 600.0, "tier_costs": [1235.0, 250.0], "counts": [0, 2], "total_weight": 2, '
        '"total_cost": 500.0, "feasible": true, "reason": null}'
    ),
    "dataset.jsonl": (
        '{"version": 1, "catalog_hash": "1611d9db062090ec", "seed": 7}\n'
        '{"task_id": "t1", "task_text": "What is 6 times 7?", "budget": 2000.0, "topology": 0, "success": true, "actual_cost": 625.0}\n'
        '{"task_id": "t1", "task_text": "What is 6 times 7?", "budget": 2000.0, "topology": 1, "success": true, "actual_cost": 625.0}\n'
        '{"task_id": "t1", "task_text": "What is 6 times 7?", "budget": 2000.0, "topology": 2, "success": true, "actual_cost": 409.4}\n'
        '{"task_id": "t1", "task_text": "What is 6 times 7?", "budget": 2000.0, "topology": 3, "success": true, "actual_cost": 387.8}\n'
        '{"task_id": "t1", "task_text": "What is 6 times 7?", "budget": 600.0, "topology": 0, "success": true, "actual_cost": 180.0}\n'
        '{"task_id": "t1", "task_text": "What is 6 times 7?", "budget": 600.0, "topology": 1, "success": true, "actual_cost": 180.0}\n'
        '{"task_id": "t1", "task_text": "What is 6 times 7?", "budget": 600.0, "topology": 2, "success": true, "actual_cost": 140.8}\n'
        '{"task_id": "t1", "task_text": "What is 6 times 7?", "budget": 600.0, "topology": 3, "success": false, "actual_cost": 0.0, '
        f'"error": "{_PLANNER_TOO_FEW}"}}\n'
        '{"task_id": "t2", "task_text": "What is 10 plus 5?", "budget": 2000.0, "topology": 0, "success": false, "actual_cost": 625.0}\n'
        '{"task_id": "t2", "task_text": "What is 10 plus 5?", "budget": 2000.0, "topology": 1, "success": false, "actual_cost": 625.0}\n'
        '{"task_id": "t2", "task_text": "What is 10 plus 5?", "budget": 2000.0, "topology": 2, "success": false, "actual_cost": 409.4}\n'
        '{"task_id": "t2", "task_text": "What is 10 plus 5?", "budget": 2000.0, "topology": 3, "success": false, "actual_cost": 387.8}\n'
        '{"task_id": "t2", "task_text": "What is 10 plus 5?", "budget": 600.0, "topology": 0, "success": false, "actual_cost": 180.0}\n'
        '{"task_id": "t2", "task_text": "What is 10 plus 5?", "budget": 600.0, "topology": 1, "success": false, "actual_cost": 180.0}\n'
        '{"task_id": "t2", "task_text": "What is 10 plus 5?", "budget": 600.0, "topology": 2, "success": false, "actual_cost": 140.8}\n'
        '{"task_id": "t2", "task_text": "What is 10 plus 5?", "budget": 600.0, "topology": 3, "success": false, "actual_cost": 0.0, '
        f'"error": "{_PLANNER_TOO_FEW}"}}\n'
    ),
    "traces.jsonl": (
        f'{{"task_id": "t1", "topology": "linear", "budget": 2000.0, {_CALLS}, "cumulative_cost": 625.0, '
        '"final_answer": "the answer is 42", "success": true, "oob": false, "halt": null, "detail": null}\n'
        f'{{"task_id": "t2", "topology": "linear", "budget": 2000.0, {_CALLS}, "cumulative_cost": 625.0, '
        '"final_answer": "the answer is 42", "success": false, "oob": false, "halt": null, "detail": null}\n'
    ),
}


def test_mock_pipeline_bytes_are_unchanged(tmp_path, capsys):
    (tmp_path / "catalog.json").write_text(json.dumps(CATALOG))
    (tmp_path / "profile.json").write_text(json.dumps(PROFILE))
    config = str(tmp_path / "config.json")
    (tmp_path / "config.json").write_text(json.dumps({
        "catalog": str(tmp_path / "catalog.json"),
        "task_profile": str(tmp_path / "profile.json"),
        "budgets": [2000.0, 600.0],
        "seed": 7,
        "mock": True,
        "out_dir": str(tmp_path / "out"),
    }))
    commands = {
        "provision": ["--config", config, "--explain"],
        "collect": ["--config", config],
        "run": ["--config", config, "--budget", "2000", "--topology", "linear"],
        "report": [str(tmp_path / "out" / "traces.jsonl")],
    }
    for command, argv in commands.items():
        assert main([command, *argv]) == 0, command
        captured = capsys.readouterr()
        assert (captured.out.replace(str(tmp_path), "<DIR>"), captured.err) == (STDOUT[command], ""), command

    written = {path.name: path.read_bytes() for path in (tmp_path / "out").iterdir()}
    assert written == {name: text.encode() for name, text in FILES.items()}
