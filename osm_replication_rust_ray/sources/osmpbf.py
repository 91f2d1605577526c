"""Minimal pure-Python OSM PBF reader -> Arrow store tables.

Engine analogue of the reference's PBF source (``src/osmpbf.rs:37-141``):
like the reference, it keeps only the fields the downstream store needs
(nodes: lat/lon; ways: node refs; relations: everything).

Implements the public OSM PBF container format
(https://wiki.openstreetmap.org/wiki/PBF_Format) directly on the
protobuf wire encoding with stdlib ``zlib`` — no external protobuf
dependency.  Coordinates land as decimicro-degrees:
``decimicro = (offset + granularity * raw_nanodeg_units) // 100``.

Output: three pyarrow tables matching the element-store schema
(`osm_replication_rust_ray.sources.store`).
"""

from __future__ import annotations

import struct
import zlib

import pyarrow as pa

from .osmxml import MEMBER_T, TAG_T, elements_from_store_tables

_MEMBER_TYPES = ("node", "way", "relation")


def _varint(buf: bytes, i: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        b = buf[i]
        i += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, i
        shift += 7


def _zigzag(v: int) -> int:
    return (v >> 1) ^ -(v & 1)


def _fields(buf: bytes):
    """Yield (field_number, wire_type, value) over a protobuf message.

    wire 0 -> varint value; wire 2 -> bytes; wire 5/1 -> fixed (raw)."""
    i = 0
    n = len(buf)
    while i < n:
        key, i = _varint(buf, i)
        fno, wt = key >> 3, key & 7
        if wt == 0:
            v, i = _varint(buf, i)
        elif wt == 2:
            ln, i = _varint(buf, i)
            v = buf[i : i + ln]
            i += ln
        elif wt == 5:
            v = buf[i : i + 4]
            i += 4
        elif wt == 1:
            v = buf[i : i + 8]
            i += 8
        else:  # pragma: no cover - groups unused in PBF
            raise ValueError(f"unsupported wire type {wt}")
        yield fno, wt, v


def _packed_varints(buf: bytes, zig: bool = False, delta: bool = False) -> list[int]:
    out = []
    i = 0
    acc = 0
    n = len(buf)
    while i < n:
        v, i = _varint(buf, i)
        if zig:
            v = _zigzag(v)
        if delta:
            acc += v
            out.append(acc)
        else:
            out.append(v)
    return out


def _nano_to_dmc(nano: int) -> int:
    """nanodegrees -> decimicro, truncating toward zero (Rust `/` semantics
    in osmpbfreader's decimicro computation)."""
    return nano // 100 if nano >= 0 else -((-nano) // 100)


def _iter_blobs(path: str):
    with open(path, "rb") as f:
        while True:
            head = f.read(4)
            if len(head) < 4:
                return
            (hlen,) = struct.unpack(">I", head)
            header = f.read(hlen)
            btype = None
            datasize = 0
            for fno, _wt, v in _fields(header):
                if fno == 1:
                    btype = v.decode()
                elif fno == 3:
                    datasize = v
            blob = f.read(datasize)
            raw = None
            for fno, _wt, v in _fields(blob):
                if fno == 1:
                    raw = v
                elif fno == 3:
                    raw = zlib.decompress(v)
            yield btype, raw


def _parse_dense(buf: bytes):
    ids = lats = lons = []
    for fno, _wt, v in _fields(buf):
        if fno == 1:
            ids = _packed_varints(v, zig=True, delta=True)
        elif fno == 8:
            lats = _packed_varints(v, zig=True, delta=True)
        elif fno == 9:
            lons = _packed_varints(v, zig=True, delta=True)
    return ids, lats, lons


def _parse_way(buf: bytes):
    wid = None
    refs: list[int] = []
    for fno, wt, v in _fields(buf):
        if fno == 1:
            wid = v
        elif fno == 8:
            refs = _packed_varints(v, zig=True, delta=True)
    return wid, refs


def _parse_relation(buf: bytes, strings: list[bytes]):
    rid = None
    keys: list[int] = []
    vals: list[int] = []
    roles: list[int] = []
    memids: list[int] = []
    types: list[int] = []
    for fno, wt, v in _fields(buf):
        if fno == 1:
            rid = v
        elif fno == 2:
            keys = _packed_varints(v)
        elif fno == 3:
            vals = _packed_varints(v)
        elif fno == 8:
            roles = _packed_varints(v)
        elif fno == 9:
            memids = _packed_varints(v, zig=True, delta=True)
        elif fno == 10:
            types = _packed_varints(v)
    members = [
        {"ref": m, "role": strings[r].decode(), "type": _MEMBER_TYPES[t]}
        for m, r, t in zip(memids, roles, types)
    ]
    tags = [
        {"k": strings[k].decode(), "v": strings[x].decode()} for k, x in zip(keys, vals)
    ]
    return rid, members, tags


def pbf_to_elements(path: str):
    """.pbf -> unified elements table (ELEMENTS_SCHEMA, action='create')
    — the engine's extension-dispatch path for `osmxml --input x.pbf`
    (reference: OsmWriter::import, src/osm.rs:262-279)."""
    return elements_from_store_tables(*read_pbf(path))


def read_pbf(path: str):
    """-> (nodes, ways, relations) pyarrow tables.

    nodes: id,lat,lon (decimicro int64); ways: id, refs list<int64>;
    relations: id, members list<struct>, tags list<struct>."""
    nid: list[int] = []
    nlat: list[int] = []
    nlon: list[int] = []
    wid: list[int] = []
    wrefs: list[list[int]] = []
    rid: list[int] = []
    rmembers: list[list[dict]] = []
    rtags: list[list[dict]] = []

    for btype, raw in _iter_blobs(path):
        if btype != "OSMData":
            continue
        strings: list[bytes] = []
        groups: list[bytes] = []
        granularity = 100
        lat_off = 0
        lon_off = 0
        for fno, _wt, v in _fields(raw):
            if fno == 1:
                for sfno, _swt, sv in _fields(v):
                    if sfno == 1:
                        strings.append(sv)
            elif fno == 2:
                groups.append(v)
            elif fno == 17:
                granularity = v
            elif fno == 19:  # int64 (two's complement varint)
                lat_off = v - (1 << 64) if v >= (1 << 63) else v
            elif fno == 20:
                lon_off = v - (1 << 64) if v >= (1 << 63) else v
        for g in groups:
            for fno, _wt, v in _fields(g):
                if fno == 2:  # dense nodes
                    ids, lats, lons = _parse_dense(v)
                    nid.extend(ids)
                    nlat.extend(_nano_to_dmc(lat_off + granularity * x) for x in lats)
                    nlon.extend(_nano_to_dmc(lon_off + granularity * x) for x in lons)
                elif fno == 1:  # plain node
                    oid = None
                    la = lo = 0
                    for sfno, _swt, sv in _fields(v):
                        if sfno == 1:
                            oid = _zigzag(sv)
                        elif sfno == 8:
                            la = _zigzag(sv)
                        elif sfno == 9:
                            lo = _zigzag(sv)
                    nid.append(oid)
                    nlat.append(_nano_to_dmc(lat_off + granularity * la))
                    nlon.append(_nano_to_dmc(lon_off + granularity * lo))
                elif fno == 3:  # way
                    i, refs = _parse_way(v)
                    wid.append(i)
                    wrefs.append(refs)
                elif fno == 4:  # relation
                    i, members, tags = _parse_relation(v, strings)
                    rid.append(i)
                    rmembers.append(members)
                    rtags.append(tags)

    nodes = pa.table(
        {
            "id": pa.array(nid, pa.int64()),
            "lat": pa.array(nlat, pa.int64()),
            "lon": pa.array(nlon, pa.int64()),
        }
    )
    ways = pa.table(
        {"id": pa.array(wid, pa.int64()), "refs": pa.array(wrefs, pa.list_(pa.int64()))}
    )
    relations = pa.table(
        {
            "id": pa.array(rid, pa.int64()),
            "members": pa.array(rmembers, pa.list_(MEMBER_T)),
            "tags": pa.array(rtags, pa.list_(TAG_T)),
        }
    )
    return nodes, ways, relations
