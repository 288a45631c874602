"""Each table that checks a JSON line read back names exactly the fields of
the dataclass that writes it, so `report` and `dataset.load` read the shape
that `run` and `collect` write."""

from dataclasses import fields

from budgetagents import dataset, topology


def test_tables_match_their_dataclasses():
    for table, cls, required in [
        (topology.TRACE_FIELDS, topology.RunTrace, topology.TRACE_REQUIRED),
        (topology._CALL_FIELDS, topology.CallRecord, ()),
        (dataset._ROW_FIELDS, dataset.Experience, dataset._ROW_REQUIRED),
    ]:
        assert set(table) == {f.name for f in fields(cls)}, cls.__name__
        assert set(required) <= set(table), cls.__name__
