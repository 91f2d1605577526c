"""Element store — the engine's replacement for the osmbin binary DB.

The reference opens its osmbin once and reads it in place by id
(``src/osmbin.rs:28-40,208-225``: node.crd @ id*8, way.idx/way.data
slabs, relation JSON files).  The engine keeps one **id-sorted,
uncompressed Arrow IPC file per element type**, memory-mapped on read,
plus a log of pending deltas:

    {dir}/store.json                       {"layout": "id-sorted"}
    {dir}/nodes.arrow                      id, lat, lon (decimicro int64)
    {dir}/ways.arrow                       id, refs:list<int64>
    {dir}/relations.arrow                  id, members, tags
    {dir}/deltas/{type}/d-{n:09d}-{digest}.arrow
                                           pending changes: the type's
                                           columns + deleted:bool

- bulk import (S5)   = ``write_table``: the table is folded in as the
                       type's newest write
- random read (S6)   = Resolver: per type, the pending deltas merged
                       into one small overlay over the memory-mapped
                       base; a lookup searchsorts the overlay first (a
                       tombstone or a null list reads as missing) and
                       the base second.  Loading it reads the deltas
                       and maps three files, so its cost follows the
                       pending changes, not the store.  Nodes are
                       lat/lon columns, ways CSR (offsets + flat int64
                       refs), relations the Arrow members list decoded
                       per lookup; negative results are misses,
                       mirroring the negative caching of
                       src/osmbin.rs:428,467.
- Δ-apply (update_*) = one delta file per element type per diff: the
                       last row per id, a delete kept as a tombstone
                       row.  Once a type holds ``FOLD_DELTAS`` deltas,
                       the next apply first folds them into the base
                       (writes the merged base, then deletes the
                       deltas; a fold cut short folds again to the
                       same bytes).  A type with no base yet is folded
                       at once.  ``digest`` hashes the delta's
                       contents: an apply whose delta equals the
                       type's newest pending one is skipped, so
                       re-running a diff after a crash between apply
                       and commit leaves the store byte-identical.

Every file is written to a tmp path and renamed over its target
(``ElementStore._write``), never written in place: a reader's mapping
keeps the old file alive across the rename.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_TYPES = ("nodes", "ways", "relations")


def _ids(table: pa.Table) -> np.ndarray:
    return table["id"].to_numpy(zero_copy_only=False)


def _last_per_id(ids: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Row indices of the last row (greatest ``pos``) of each id, in
    ascending id order."""
    order = np.lexsort((pos, ids))
    last = np.ones(len(order), dtype=bool)
    sorted_ids = ids[order]
    last[:-1] = sorted_ids[1:] != sorted_ids[:-1]
    return order[last]


def _merge_last(tables: list[pa.Table]) -> pa.Table:
    """The last row per id of ``tables`` taken in order, ascending by id."""
    t = pa.concat_tables(tables, promote_options="permissive")
    ids = _ids(t)
    return t.take(pa.array(_last_per_id(ids, np.arange(len(ids)))))


def _merged(base: pa.Table | None, chg: pa.Table) -> pa.Table:
    """``base`` (ascending unique ids) with the changes ``chg`` (ascending
    unique ids plus a ``deleted`` tombstone flag) merged over it,
    ascending by id."""
    deleted = chg["deleted"].to_numpy(zero_copy_only=False)
    parts = [chg.drop_columns(["deleted"]).filter(pa.array(~deleted))]
    if base is not None:
        found, idx = _lookup(_ids(base), _ids(chg))
        keep = np.ones(base.num_rows, bool)
        keep[idx[found]] = False
        parts.insert(0, base.filter(pa.array(keep)))
    t = pa.concat_tables(parts, promote_options="permissive")
    return t.take(pa.array(np.argsort(_ids(t), kind="stable")))


def _delta_table(tname: str, sub: pa.Table) -> pa.Table:
    """One type's rows of an elements table as a delta: the last row per
    id (``pos`` order) in the store schema plus a ``deleted`` tombstone
    flag, ascending by id."""
    sub = sub.take(pa.array(_last_per_id(
        _ids(sub), sub["pos"].to_numpy(zero_copy_only=False))))
    if tname == "nodes":
        cols = {"id": sub["id"], "lat": sub["lat"].cast(pa.int64()),
                "lon": sub["lon"].cast(pa.int64())}
    elif tname == "ways":
        cols = {"id": sub["id"], "refs": sub["refs"]}
    else:
        cols = {"id": sub["id"], "members": sub["members"], "tags": sub["tags"]}
    cols["deleted"] = pc.equal(sub["action"], "delete")
    return pa.table(cols)


def _digest(table: pa.Table) -> str:
    """First 16 hex digits of the sha256 of ``table``'s Arrow IPC stream."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as w:
        w.write_table(table.combine_chunks())
    return hashlib.sha256(sink.getvalue()).hexdigest()[:16]


def _read_ipc(path: str) -> pa.Table | None:
    """The Arrow IPC file at ``path`` (None if absent), memory-mapped:
    its buffers point into the mapping, which outlives the closed file
    handle for as long as they do."""
    try:
        with pa.memory_map(path) as src:
            return pa.ipc.open_file(src).read_all()
    except FileNotFoundError:
        return None


def _lookup(sorted_ids: np.ndarray, ids: np.ndarray):
    """(found, idx): membership of ``ids`` in ``sorted_ids`` and the
    clipped position of each (meaningful where found)."""
    if len(sorted_ids) == 0:
        return np.zeros(len(ids), bool), np.zeros(len(ids), np.int64)
    idx = np.searchsorted(sorted_ids, ids)
    idx_c = np.clip(idx, 0, len(sorted_ids) - 1)
    return (idx < len(sorted_ids)) & (sorted_ids[idx_c] == ids), idx_c


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges ``[s, s + c)`` of ``starts`` / ``counts``, concatenated."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(starts - ends + counts, counts) + np.arange(total)


class ElementStore:
    """Id-sorted Arrow IPC base files of nodes/ways/relations plus their
    pending deltas."""

    # pending deltas per type that the next apply folds into the base
    FOLD_DELTAS = 8

    def __init__(self, directory: str):
        self.dir = directory
        meta_path = os.path.join(directory, "store.json")
        if os.path.exists(meta_path):
            with open(meta_path) as f:
                if "n_buckets" in json.load(f):
                    raise ValueError(
                        f"{directory} holds the old id-hash bucket layout, which "
                        "this version does not read; rebuild the store from its "
                        "source with `osmbin --import`")

    # ---------------- import ----------------
    def init(self):
        os.makedirs(self.dir, exist_ok=True)
        with open(os.path.join(self.dir, "store.json"), "w") as f:
            json.dump({"layout": "id-sorted"}, f)

    def _base_path(self, etype: str) -> str:
        return os.path.join(self.dir, f"{etype}.arrow")

    def _write(self, path: str, table: pa.Table):
        """``table`` as one record batch at ``path``, through tmp + atomic
        rename (mirrors src/diffs.rs:105-149)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with pa.OSFile(tmp, "wb") as f, pa.ipc.new_file(f, table.schema) as w:
            w.write_table(table.combine_chunks())
        os.replace(tmp, path)

    def write_table(self, etype: str, table: pa.Table):
        """Bulk import (engine form of the id-indexed bulk importer,
        src/osmbin.rs:542-663): ``table``'s rows replace the rows of their
        ids.  Pending deltas are folded first, so the import is the newest
        write."""
        live = pa.array(np.zeros(table.num_rows, bool))
        self._fold(etype, self._deltas(etype), table.append_column("deleted", live))

    def import_pbf(self, path: str):
        from .osmpbf import read_pbf

        nodes, ways, relations = read_pbf(path)
        self.init()
        self.write_table("nodes", nodes)
        self.write_table("ways", ways)
        self.write_table("relations", relations)

    # ---------------- read ----------------
    def read_layers(self, etype: str) -> tuple[pa.Table | None, pa.Table | None]:
        """(base, overlay): the memory-mapped base file and the pending
        deltas merged into one table (last row per id, ascending, with
        the ``deleted`` flag), each None if absent."""
        pending = self._deltas(etype)
        overlay = _merge_last([_read_ipc(p) for p in pending]) if pending else None
        return _read_ipc(self._base_path(etype)), overlay

    def read_type(self, etype: str) -> pa.Table | None:
        """Every row of ``etype``, ascending by id (None if the type was
        never written)."""
        base, overlay = self.read_layers(etype)
        return base if overlay is None else _merged(base, overlay)

    # ---------------- Δ-apply ----------------
    def apply_changes(self, elements: pa.Table):
        """Apply an OsmChange elements table (engine Δ-semantics of
        src/osmbin.rs:665-748): create/modify = upsert, delete =
        tombstone; last occurrence per id wins (``pos`` order).  Writes
        one delta file per element type; a type with no base yet (the
        bulk seed) is folded straight into its base."""
        for etype, tname in (("node", "nodes"), ("way", "ways"), ("relation", "relations")):
            sub = elements.filter(pc.equal(elements["etype"], etype))
            if sub.num_rows == 0:
                continue
            delta = _delta_table(tname, sub)
            digest = _digest(delta)
            pending = self._deltas(tname)
            if pending and pending[-1].endswith(f"-{digest}.arrow"):
                continue  # the same change is already the newest delta
            if not os.path.exists(self._base_path(tname)):
                self._fold(tname, pending, delta)
                continue
            if len(pending) >= self.FOLD_DELTAS:
                self._fold(tname, pending)
                pending = []
            n = int(os.path.basename(pending[-1])[2:11]) + 1 if pending else 1
            self._write(os.path.join(self._delta_dir(tname), f"d-{n:09d}-{digest}.arrow"),
                        delta)

    def _delta_dir(self, tname: str) -> str:
        return os.path.join(self.dir, "deltas", tname)

    def _deltas(self, tname: str) -> list[str]:
        """Paths of the pending deltas of ``tname``, oldest first."""
        d = self._delta_dir(tname)
        try:
            return [os.path.join(d, n) for n in sorted(os.listdir(d)) if n.endswith(".arrow")]
        except FileNotFoundError:
            return []

    def _fold(self, tname: str, pending: list[str], extra: pa.Table | None = None):
        """Merge the ``pending`` deltas (then ``extra``) into the base, then
        delete the delta files: a fold cut short leaves deltas that fold
        again to the same base."""
        tabs = [_read_ipc(p) for p in pending] + ([] if extra is None else [extra])
        if not tabs:
            return
        path = self._base_path(tname)
        self._write(path, _merged(_read_ipc(path), _merge_last(tabs)))
        for p in pending:
            os.remove(p)

    def destroy(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class _Layer:
    """One element type's rows as unique ascending ``ids`` and the
    row-aligned payload columns.  ``live`` (None: every row) is False
    where the row is a tombstone or its list is null: the row hides the
    id's rows in older layers but reads as missing."""

    def __init__(self, table: pa.Table | None, column: str | None, dedupe: bool):
        """``dedupe`` keeps the last row per id (a base file or a merged
        overlay is already unique and ascending)."""
        self.live = None
        if table is None or table.num_rows == 0:
            self.ids = np.empty(0, np.int64)
            return
        if dedupe:
            ids = _ids(table)
            table = table.take(pa.array(_last_per_id(ids, np.arange(len(ids)))))
        table = table.combine_chunks()
        self.ids = _ids(table).astype(np.int64, copy=False)
        if column is not None and table[column].null_count:
            self.live = table[column].is_valid().to_numpy(zero_copy_only=False)
        if "deleted" in table.column_names:
            kept = ~table["deleted"].to_numpy(zero_copy_only=False)
            self.live = kept if self.live is None else self.live & kept
        if column is None:  # a tombstone's null lat/lon reads as 0
            self.lat, self.lon = (
                (table[c].fill_null(0) if table[c].null_count else table[c])
                .to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
                for c in ("lat", "lon"))
        elif column == "refs":
            refs = table["refs"].chunk(0)
            if refs.values.null_count:
                raise ValueError("way refs hold a null node id")
            self.off = refs.offsets.to_numpy()
            self.refs = refs.values.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        else:
            self.members = table["members"].chunk(0)


def _probe(layers: list[_Layer], ids: np.ndarray):
    """(src, idx): for each of ``ids``, the index in ``layers`` (newest
    first) of the layer whose row of it wins, -1 if none holds it or that
    row is not live, and the row's position there."""
    src = np.full(len(ids), -1, np.int64)
    idx = np.zeros(len(ids), np.int64)
    todo = np.ones(len(ids), bool)
    for k, layer in enumerate(layers):
        found, pos = _lookup(layer.ids, ids)
        found &= todo
        todo &= ~found
        if layer.live is not None:
            found[found] = layer.live[pos[found]]
        src[found], idx[found] = k, pos[found]
    return src, idx


class Resolver:
    """Vectorized batch reader over store tables (OsmReader analogue,
    src/osm.rs:197-247).  Lookup = sorted-array searchsorted over the
    layers of each type, newest first; also counts lookups so tests can
    pin the reference's lookup-amplification invariants
    (src/osmxml/bbox.rs:269-271, src/osmxml/filter.rs:390-392).

    Built from tables, the last row of a duplicate id wins and an id
    whose list is null reads as missing.
    """

    def __init__(self, nodes: pa.Table | None, ways: pa.Table | None,
                 relations: pa.Table | None):
        self._set_layers(*([_Layer(t, c, dedupe=True)] for t, c in
                           zip((nodes, ways, relations), (None, "refs", "members"))))

    def _set_layers(self, nodes: list[_Layer], ways: list[_Layer], relations: list[_Layer]):
        self._n, self._w, self._r = ([x for x in layers if len(x.ids)]
                                     for layers in (nodes, ways, relations))
        self.num_read_nodes = 0
        self.num_read_ways = 0
        self.num_read_relations = 0
        # the last diff closure walked over this resolver
        # (stages/filter.py:diff_closure); it lives as long as the resolver
        self.closure = None

    @staticmethod
    def from_store(store: ElementStore):
        """The store's Resolver: per type, the pending deltas' overlay over
        the memory-mapped base."""
        def layers(etype, column):
            base, overlay = store.read_layers(etype)
            return [_Layer(overlay, column, dedupe=False), _Layer(base, column, dedupe=False)]

        r = Resolver.__new__(Resolver)
        r._set_layers(layers("nodes", None), layers("ways", "refs"),
                      layers("relations", "members"))
        return r

    @staticmethod
    def empty() -> "Resolver":
        return Resolver(None, None, None)

    # --- batch node lookup: (found, lat, lon)
    def read_nodes(self, ids: np.ndarray):
        ids = np.asarray(ids, np.int64)
        self.num_read_nodes += len(ids)
        return self.node_points(ids)

    # --- whole-diff batch reads (the bbox and filter kernels'): not
    #     counted, the counters pin the reference's per-probe lookups
    def node_points(self, ids: np.ndarray):
        """(found, lat, lon) of ``ids``; 0 where missing."""
        ids = np.asarray(ids, np.int64)
        src, idx = _probe(self._n, ids)
        lat, lon = np.zeros(len(ids), np.int64), np.zeros(len(ids), np.int64)
        for k, layer in enumerate(self._n):
            m = src == k
            lat[m], lon[m] = layer.lat[idx[m]], layer.lon[idx[m]]
        return src >= 0, lat, lon

    def way_refs(self, wids: np.ndarray):
        """CSR (offsets, flat refs) of the store refs of ``wids``; a
        missing way has none."""
        wids = np.asarray(wids, np.int64)
        src, idx = _probe(self._w, wids)
        n = np.zeros(len(wids), np.int64)
        for k, layer in enumerate(self._w):
            m = src == k
            n[m] = layer.off[idx[m] + 1] - layer.off[idx[m]]
        off = np.zeros(len(wids) + 1, np.int64)
        np.cumsum(n, out=off[1:])
        flat = np.empty(off[-1], np.int64)
        for k, layer in enumerate(self._w):
            rows = np.flatnonzero(src == k)
            flat[_ranges(off[rows], n[rows])] = layer.refs[
                _ranges(layer.off[idx[rows]], n[rows])]
        return off, flat

    def relation_members(self, rids: np.ndarray):
        """(offsets, member types, member refs) of the store members of
        ``rids``, CSR; a missing relation has none."""
        rids = np.asarray(rids, np.int64)
        src, idx = _probe(self._r, rids)
        n = np.zeros(len(rids), np.int64)
        parts = []
        for k, layer in enumerate(self._r):
            rows = np.flatnonzero(src == k)
            lists = layer.members.take(pa.array(idx[rows]))
            n[rows] = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
            parts.append((rows, pc.list_flatten(lists)))
        off = np.zeros(len(rids) + 1, np.int64)
        np.cumsum(n, out=off[1:])
        if not off[-1]:
            return off, pa.array([], pa.string()), np.empty(0, np.int64)
        # each layer's flat members, in row order, fill their rows' slots
        order = np.empty(off[-1], np.int64)
        start = 0
        for rows, flat in parts:
            order[_ranges(off[rows], n[rows])] = start + np.arange(len(flat))
            start += len(flat)
        types = pa.concat_arrays([pc.struct_field(f, "type") for _r, f in parts])
        refs = np.concatenate([pc.struct_field(f, "ref").to_numpy(zero_copy_only=False)
                               for _r, f in parts])
        return off, types.take(pa.array(order)), refs[order]

    def read_way(self, wid: int) -> list[int] | None:
        self.num_read_ways += 1
        (k,), (i,) = _probe(self._w, np.array([wid], np.int64))
        if k < 0:
            return None
        layer = self._w[k]
        return layer.refs[layer.off[i]:layer.off[i + 1]].tolist()

    def read_relation(self, rid: int) -> list[dict] | None:
        self.num_read_relations += 1
        (k,), (i,) = _probe(self._r, np.array([rid], np.int64))
        return None if k < 0 else self._r[k].members[int(i)].as_py()

    # --- materialized joins (read_way_full / read_relation_full,
    #     src/osm.rs:203-246): element + resolved children; recursion
    #     cycle-guarded by the prev-relations path (dropped edge)
    def read_way_full(self, wid: int) -> dict | None:
        refs = self.read_way(wid)
        if refs is None:
            return None
        found, lat, lon = self.read_nodes(np.asarray(refs, np.int64))
        nodes = [
            {"id": int(r), "lat": int(la), "lon": int(lo)} if f else None
            for r, f, la, lo in zip(refs, found.tolist(), lat.tolist(), lon.tolist())
        ]
        return {"id": int(wid), "nodes": nodes}

    def read_relation_full(self, rid: int, prev: tuple = ()) -> dict | None:
        members = self.read_relation(rid)
        if members is None:
            return None
        if rid in prev:
            return None  # recursive edge dropped (src/osm.rs:219-223)
        out = []
        for m in members:
            ref, typ = int(m["ref"]), m["type"]
            if typ == "node":
                found, lat, lon = self.read_nodes(np.array([ref], np.int64))
                full = (
                    {"id": ref, "lat": int(lat[0]), "lon": int(lon[0])}
                    if found[0]
                    else None
                )
            elif typ == "way":
                full = self.read_way_full(ref)
            else:
                full = self.read_relation_full(ref, prev + (rid,))
            out.append({"role": m["role"], "type": typ, "ref": ref, "full": full})
        return {"id": int(rid), "members": out}


def check_store(store: ElementStore) -> pa.Table:
    """Referential-integrity audit (engine form of check_database,
    src/osmbin.rs:283-363): every way ref and relation member must
    resolve; returns a violations table (src_type, src_id, ref_type,
    ref_id).  Anti-join over sorted id arrays — no per-element probing.
    """
    r = Resolver(*(store.read_type(t) for t in _TYPES))
    wid = r._w[0].ids if r._w else np.empty(0, np.int64)
    rid = r._r[0].ids if r._r else np.empty(0, np.int64)
    # ways: one batched node lookup over every flat ref
    w_off, w_refs = r.way_refs(wid)
    w_bad = ~r.read_nodes(w_refs)[0]
    w_src = np.repeat(wid, np.diff(w_off))[w_bad]
    # relations: one membership test per member type
    off, m_type, m_ref = r.relation_members(rid)
    m_src = np.repeat(rid, np.diff(off))
    m_type = m_type.cast(pa.string())
    is_node = pc.equal(m_type, "node").fill_null(False).to_numpy(zero_copy_only=False)
    is_way = pc.equal(m_type, "way").fill_null(False).to_numpy(zero_copy_only=False)
    other = ~(is_node | is_way)
    ok = np.zeros(len(m_ref), bool)
    ok[is_node] = r.read_nodes(m_ref[is_node])[0]
    ok[is_way] = _probe(r._w, m_ref[is_way])[0] >= 0
    ok[other] = _probe(r._r, m_ref[other])[0] >= 0
    m_bad = ~ok
    n_w = int(w_bad.sum())
    return pa.table(
        {
            "src_type": pa.array(["way"] * n_w + ["relation"] * int(m_bad.sum()), pa.string()),
            "src_id": pa.array(np.concatenate([w_src, m_src[m_bad]]), pa.int64()),
            "ref_type": pa.concat_arrays(
                [pa.array(["node"] * n_w, pa.string()), m_type.filter(pa.array(m_bad))]
            ),
            "ref_id": pa.array(
                np.concatenate([w_refs[w_bad], m_ref[m_bad]]).astype(np.int64), pa.int64()
            ),
        }
    )
