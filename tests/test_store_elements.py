"""``elements_from_store_tables``: store-layout tables (the form
``read_pbf`` and ``synth_store`` return) lifted column-wise to the
ELEMENTS_SCHEMA "create" table, against a per-row build."""

import pyarrow as pa
import pyarrow.compute as pc

from osm_replication_rust_ray.sources.osmxml import (
    ELEMENTS_SCHEMA,
    MEMBER_T,
    TAG_T,
    elements_from_store_tables,
    elements_to_osc,
)
from osm_replication_rust_ray.sources.store import _delta_table

NODES = pa.table({
    "id": pa.array([1, 2, 5], pa.int64()),
    "lat": pa.array([10, -20, 0], pa.int64()),
    "lon": pa.array([30, 40, -50], pa.int64()),
})
WAYS = pa.table({
    "id": pa.array([7, 9], pa.int64()),
    "refs": pa.array([[1, 2, 5], []], pa.list_(pa.int64())),
})
RELATIONS = pa.table({
    "id": pa.array([3, 4, 8], pa.int64()),
    "members": pa.array([
        [{"ref": 7, "role": "outer", "type": "way"},
         {"ref": 1, "role": "", "type": "node"}],
        [{"ref": 3, "role": "sub", "type": "relation"}],
        [],
    ], pa.list_(MEMBER_T)),
    "tags": pa.array([
        [{"k": "type", "v": "multipolygon"}, {"k": "name", "v": "A"}],
        [],
        [{"k": "type", "v": "route"}],
    ], pa.list_(TAG_T)),
})


def _per_row(nodes, ways, relations) -> pa.Table:
    rows = []
    for etype, tbl in (("node", nodes), ("way", ways), ("relation", relations)):
        for r in tbl.to_pylist():
            row = dict.fromkeys(ELEMENTS_SCHEMA.names)
            row.update(r, pos=len(rows), etype=etype, action="create")
            rows.append(row)
    return pa.Table.from_pylist(rows, schema=ELEMENTS_SCHEMA)


def test_lift_equals_per_row_build():
    got = elements_from_store_tables(NODES, WAYS, RELATIONS)
    want = _per_row(NODES, WAYS, RELATIONS)
    assert got.schema == ELEMENTS_SCHEMA
    assert got.equals(want)
    assert elements_to_osc(got) == elements_to_osc(want)


def test_delta_of_lift_returns_input_rows():
    got = elements_from_store_tables(NODES, WAYS, RELATIONS)
    for tname, etype, tbl in (("nodes", "node", NODES), ("ways", "way", WAYS),
                              ("relations", "relation", RELATIONS)):
        delta = _delta_table(tname, got.filter(pc.equal(got["etype"], etype)))
        assert not pc.any(delta["deleted"]).as_py()
        assert delta.drop_columns(["deleted"]).equals(tbl.sort_by("id")), tname


def test_empty_tables():
    empty = [t.slice(0, 0) for t in (NODES, WAYS, RELATIONS)]
    got = elements_from_store_tables(*empty)
    assert got.num_rows == 0 and got.schema == ELEMENTS_SCHEMA
