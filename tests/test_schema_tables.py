"""Each table that checks a JSON object names exactly the fields of the
dataclass built from it, so a reader and a writer of one file share one
shape: `report` and `dataset.load` read what `run` and `collect` write, and
the config, catalog, mock-script and `policy.json` readers build their
dataclasses by field name."""

from dataclasses import fields

from budgetagents import backend, catalog, cli, dataset, policy, topology


def test_tables_match_their_dataclasses():
    for table, cls, required in [
        (topology.TRACE_FIELDS, topology.RunTrace, topology.TRACE_REQUIRED),
        (topology._CALL_FIELDS, topology.CallRecord, ()),
        (dataset._ROW_FIELDS, dataset.Experience, dataset._ROW_REQUIRED),
        (cli._CONFIG_FIELDS, cli.RunConfig, ()),
        (catalog._MODEL_FIELDS, catalog.ModelSpec, ()),
        (backend._RULE_FIELDS, backend.ScriptRule, ()),
    ]:
        assert set(table) == {f.name for f in fields(cls)}, cls.__name__
        assert set(required) <= set(table), cls.__name__


def test_policy_shapes_name_every_layer():
    assert set(policy.SHAPES) == {f.name for f in fields(policy.PolicyParams)} - {"budget_ref"}
