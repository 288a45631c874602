"""Each table that checks a JSON object names exactly the fields of the
dataclass built from it, so a reader and a writer of one file share one
shape: `report` and `dataset.load` read what `run` and `collect` write, and
the config, catalog, profile, mock-script and `policy.json` readers build their
dataclasses by field name. Most tables are `schema.table` of their
dataclass; these tests also catch a field declared without a spec, and a
constructor that accepts a value its field's spec rejects."""

import math
from dataclasses import fields

import pytest

from budgetagents import backend, catalog, cli, dataset, policy, profile, provision, reward, schema, topology

# Fields no file states: the trainer's seed is the config's top-level 'seed',
# and a catalog's tier count is its weakest model's tier.
UNSTATED = {reward.TrainerConfig: {"seed"}, catalog.ModelCatalog: {"num_tiers"}}


def _stated(cls) -> list[str]:
    return [f.name for f in fields(cls) if f.name not in UNSTATED.get(cls, ())]


def test_tables_match_their_dataclasses():
    for table, cls, required in [
        (topology.TRACE_FIELDS, topology.RunTrace, topology.TRACE_REQUIRED),
        (topology._CALL_FIELDS, topology.CallRecord, ()),
        (dataset._ROW_FIELDS, dataset.Experience, dataset._ROW_REQUIRED),
        (cli._CONFIG_FIELDS, cli.RunConfig, ()),
        (catalog._MODEL_FIELDS, catalog.ModelSpec, ()),
        (backend._RULE_FIELDS, backend.ScriptRule, ()),
        (catalog._CATALOG_FIELDS, catalog.ModelCatalog, ()),
        # A task entry's table sits inside the profile table's 'tasks' spec.
        (schema.table(profile.TaskSpec), profile.TaskSpec, ()),
        # The profile file's one key with no field bounds t_out.
        ({k: v for k, v in profile._PROFILE_FIELDS.items() if k != "output_token_samples"}, profile.TaskProfile, ()),
    ]:
        assert list(table) == _stated(cls) == list(schema.table(cls)), cls.__name__
        assert set(required) <= set(table), cls.__name__


@pytest.mark.parametrize(
    "section, cls",
    [
        ("limits", topology.ExecutionLimits),
        ("reward", reward.RewardConfig),
        ("trainer", reward.TrainerConfig),
    ],
)
def test_config_sections_match_their_dataclasses(section, cls):
    # A section's table is inside a closure; its "expected one of" lists it.
    with pytest.raises(ValueError) as info:
        schema.check({section: {"?": 0}}, cli._CONFIG_FIELDS)
    assert str(info.value) == f"unknown field {section}.?; expected one of {', '.join(_stated(cls))}"
    assert _stated(cls) == list(schema.table(cls))


def test_config_fields_are_listed_in_file_order():
    with pytest.raises(ValueError) as info:
        schema.check({"?": 0}, cli._CONFIG_FIELDS)
    assert str(info.value) == (
        "unknown field ?; expected one of catalog, task_profile, out_dir, budgets, seed, jobs, "
        "instance_cap, min_agents, mock, limits, reward, trainer"
    )


# The types that check their constructor's arguments with `schema.validate`,
# with the arguments a valid instance needs beyond the defaults.
VALIDATED = {
    reward.RewardConfig: {},
    reward.TrainerConfig: {},
    catalog.ModelSpec: {"name": "m", "tier": 1, "price_in_per_mtok": 1.0, "price_out_per_mtok": 1.0, "backend_id": "x"},
    provision.ProvisionProblem: {"budget": 100.0, "tier_costs": (10.0,)},
    topology.ExecutionLimits: {},
    backend.ScriptRule: {},
}
CANDIDATES = (None, True, "x", -1, 0, -0.5, 0.5, math.nan, math.inf, [], [0.0], (1.0, 0.0))


@pytest.mark.parametrize(
    "cls, name",
    [(cls, name) for cls in VALIDATED for name, spec in schema.table(cls).items() if type(spec) is tuple],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_constructor_rejects_what_the_field_spec_rejects(cls, name):
    check, description = schema.table(cls)[name]
    rejected = [value for value in CANDIDATES if not check(value)]
    assert rejected, f"no candidate falls outside {cls.__name__}.{name}'s spec"
    cls(**VALIDATED[cls])
    for value in rejected:
        with pytest.raises(ValueError) as info:
            cls(**dict(VALIDATED[cls], **{name: value}))
        assert str(info.value).startswith(f"{name} must be {description}, got "), value


def test_trainer_config_is_the_policys():
    assert policy.TrainerConfig is reward.TrainerConfig


def test_policy_shapes_name_every_layer():
    assert set(policy.SHAPES) == {f.name for f in fields(policy.PolicyParams)} - {"budget_ref"}
