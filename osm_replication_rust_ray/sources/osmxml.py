"""OSM XML (.osm / .osc, optionally gzipped) <-> Arrow elements table.

Engine analogue of the reference's event-driven XML reader/writer
(``src/osmxml.rs:104-785``): instead of streaming per-element trait
callbacks, a file parses into ONE columnar Arrow table (the "elements"
table) that every downstream stage consumes as `ray.data` blocks.

Elements-table schema (all element kinds in one table, file order kept
in ``pos`` — the reference relies on document order for its
modified-children semantics, ``src/osmxml/bbox.rs:60-67``):

    pos:int64, etype:string(node|way|relation), id:int64,
    action:string(create|modify|delete|none),
    lat:int64, lon:int64            (decimicro; nodes only, else null)
    refs:list<int64>                (ways only)
    members:list<struct<ref:int64, role:string, type:string>>
    tags:list<struct<k:string, v:string>>   (ordered pairs)
    version:int64, timestamp:string, uid:int64, user:string,
    changeset:int64                 (optional metadata)
    minlat/maxlat/minlon/maxlon:int64   (decimicro bbox annotation from
                                        <bbox> child, src/osmxml.rs:738-774)

Coordinates parse via the exact round-half-away codec so a
float-printed ``.osm`` round-trips bit-identically
(``src/osm.rs:137-143``).
"""

from __future__ import annotations

import gzip
import xml.etree.ElementTree as ET

import numpy as np
import pyarrow as pa

from ..geom import coord_to_decimicro, decimicro_to_coord

MEMBER_T = pa.struct([("ref", pa.int64()), ("role", pa.string()), ("type", pa.string())])
TAG_T = pa.struct([("k", pa.string()), ("v", pa.string())])

ELEMENTS_SCHEMA = pa.schema(
    [
        ("pos", pa.int64()),
        ("etype", pa.string()),
        ("id", pa.int64()),
        ("action", pa.string()),
        ("lat", pa.int64()),
        ("lon", pa.int64()),
        ("refs", pa.list_(pa.int64())),
        ("members", pa.list_(MEMBER_T)),
        ("tags", pa.list_(TAG_T)),
        ("version", pa.int64()),
        ("timestamp", pa.string()),
        ("uid", pa.int64()),
        ("user", pa.string()),
        ("changeset", pa.int64()),
        ("minlat", pa.int64()),
        ("maxlat", pa.int64()),
        ("minlon", pa.int64()),
        ("maxlon", pa.int64()),
    ]
)


def elements_from_store_tables(nodes: pa.Table, ways: pa.Table,
                               relations: pa.Table) -> pa.Table:
    """The ELEMENTS_SCHEMA "create" table of store-layout tables (nodes:
    id, lat, lon; ways: id, refs; relations: id, members and, when
    present, tags), nodes then ways then relations, ``pos`` in that
    order.  Column-wise: a column the table carries is reused as is,
    every other one is null; no per-row Python."""
    out, pos0 = [], 0
    for tbl, etype in ((nodes, "node"), (ways, "way"), (relations, "relation")):
        m = tbl.num_rows
        cols = {
            "pos": pa.array(pos0 + np.arange(m, dtype=np.int64)),
            "etype": pa.array([etype] * m, pa.string()),
            "action": pa.array(["create"] * m, pa.string()),
        }
        out.append(pa.table(
            {f.name: cols[f.name] if f.name in cols
             else tbl[f.name] if f.name in tbl.column_names
             else pa.nulls(m, f.type) for f in ELEMENTS_SCHEMA},
            schema=ELEMENTS_SCHEMA,
        ))
        pos0 += m
    return pa.concat_tables(out)


_ACTIONS = {"create", "modify", "delete"}


def _open_xml(path: str):
    if path.endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def _dmc(s: str | None):
    if s is None:
        return None
    return int(coord_to_decimicro(float(s)))


def parse_osm_xml(path: str) -> pa.Table:
    """Parse a .osm/.osc[.gz] file into the elements table.

    Plain ``<osm>`` snapshots get action="none"; ``<osmChange>`` diffs
    carry the surrounding action tag (src/osmxml.rs:525-527)."""
    rows: list[dict] = []
    action = "none"
    pos = 0
    root_tag = None
    with _open_xml(path) as f:
        # iterparse keeps memory bounded per element
        context = ET.iterparse(f, events=("start", "end"))
        for event, el in context:
            if event == "start":
                if root_tag is None:
                    root_tag = el.tag  # document root (osm | osmChange)
                if el.tag in _ACTIONS:
                    action = el.tag
                continue
            # end events
            if el.tag in _ACTIONS:
                action = "none"
                el.clear()
                continue
            if el.tag not in ("node", "way", "relation"):
                continue
            a = el.attrib
            row = {
                "pos": pos,
                "etype": el.tag,
                "id": int(a["id"]),
                "action": action,
                "lat": _dmc(a.get("lat")),
                "lon": _dmc(a.get("lon")),
                "refs": None,
                "members": None,
                "tags": None,
                "version": int(a["version"]) if "version" in a else None,
                "timestamp": a.get("timestamp"),
                "uid": int(a["uid"]) if "uid" in a else None,
                "user": a.get("user"),
                "changeset": int(a["changeset"]) if "changeset" in a else None,
                "minlat": None,
                "maxlat": None,
                "minlon": None,
                "maxlon": None,
            }
            pos += 1
            tags = []
            refs = []
            members = []
            for child in el:
                if child.tag == "tag":
                    tags.append({"k": child.attrib["k"], "v": child.attrib["v"]})
                elif child.tag == "nd":
                    refs.append(int(child.attrib["ref"]))
                elif child.tag == "member":
                    ca = child.attrib
                    members.append(
                        {
                            "ref": int(ca["ref"]),
                            "role": ca.get("role", ""),
                            "type": ca["type"],
                        }
                    )
                elif child.tag == "bbox":
                    ca = child.attrib
                    row["minlat"] = _dmc(ca["minlat"])
                    row["maxlat"] = _dmc(ca["maxlat"])
                    row["minlon"] = _dmc(ca["minlon"])
                    row["maxlon"] = _dmc(ca["maxlon"])
            if tags:
                row["tags"] = tags
            if el.tag == "way":
                row["refs"] = refs
            if el.tag == "relation":
                row["members"] = members
            rows.append(row)
            el.clear()
    schema = ELEMENTS_SCHEMA.with_metadata(
        {b"osm_root": (root_tag or "osm").encode()}
    )
    return pa.Table.from_pylist(rows, schema=schema)


def _fmt_coord(d: int) -> str:
    # Rust prints f64 with shortest-roundtrip; Python repr does the same.
    return repr(float(decimicro_to_coord(np.int64(d))))


def elements_to_osc(table: pa.Table, change: bool = True,
                    root: str | None = None) -> str:
    """Serialize an elements table back to .osc/.osm text.

    Consecutive same-action elements group under one action tag,
    mirroring ``write_action_start`` (src/osmxml.rs:72-101).  Intended
    for byte-comparable small outputs and tests, not the hot path (the
    engine's native sink is partitioned Parquet).

    The root tag mirrors the input document's root, as the reference
    binaries do (src/osmxml.rs:406-407 dispatches <osm>/<osmChange> to
    write_start(change), src/osmxml.rs:954-972): an <osmChange>-rooted
    diff serializes back under <osmChange>, while the reference's
    <osm>-rooted bbox fixture stays byte-identical.  Resolution order:
    explicit ``root`` arg > ``osm_root`` schema metadata carried by
    ``parse_osm_xml`` > (osmChange if change else osm)."""
    out = []
    if root is None:
        meta = table.schema.metadata or {}
        root = meta.get(b"osm_root", b"").decode() or (
            "osmChange" if change else "osm"
        )
    out.append(f'<{root} version="0.6">')
    cur_action = None
    rows = table.to_pylist()
    ind = "  " if not change else "    "

    def close_action():
        if change and cur_action is not None:
            out.append(f"  </{cur_action}>")

    for row in rows:
        if change and row["action"] != cur_action:
            close_action()
            out.append(f"  <{row['action']}>")
            cur_action = row["action"]
        attrs = [f'id="{row["id"]}"']
        if row["lat"] is not None:
            attrs.append(f'lat="{_fmt_coord(row["lat"])}"')
            attrs.append(f'lon="{_fmt_coord(row["lon"])}"')
        for k in ("version", "timestamp", "uid", "user", "changeset"):
            if row[k] is not None:
                v = str(row[k]).replace("&", "&amp;").replace('"', "&quot;").replace("<", "&lt;")
                attrs.append(f'{k}="{v}"')
        head = f"{ind}<{row['etype']} {' '.join(attrs)}"
        children = []
        for r in row["refs"] or []:
            children.append(f'{ind}  <nd ref="{r}"/>')
        for m in row["members"] or []:
            children.append(
                f'{ind}  <member type="{m["type"]}" ref="{m["ref"]}" role="{m["role"]}"/>'
            )
        for t in row["tags"] or []:
            k = t["k"].replace("&", "&amp;").replace('"', "&quot;").replace("<", "&lt;")
            v = t["v"].replace("&", "&amp;").replace('"', "&quot;").replace("<", "&lt;")
            children.append(f'{ind}  <tag k="{k}" v="{v}"/>')
        if row["minlat"] is not None:
            children.append(
                f'{ind}  <bbox minlat="{_fmt_coord(row["minlat"])}" '
                f'maxlat="{_fmt_coord(row["maxlat"])}" '
                f'minlon="{_fmt_coord(row["minlon"])}" '
                f'maxlon="{_fmt_coord(row["maxlon"])}"/>'
            )
        if children:
            out.append(head + ">")
            out.extend(children)
            out.append(f"{ind}</{row['etype']}>")
        else:
            out.append(head + "/>")
    close_action()
    out.append(f"</{root}>")
    # no trailing newline — matches the reference writer byte-for-byte
    return "\n".join(out)
