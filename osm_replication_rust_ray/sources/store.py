"""Element store — the engine's replacement for the osmbin binary DB.

The reference stores the planet as seek-addressable files
(``src/osmbin.rs:32-45``: node.crd @ id*8, way.idx/way.data slabs,
relation JSON files).  The engine replaces this with an id-hash
**bucketed Parquet store** (columnar, resumable, cluster-readable):

    {dir}/nodes/bucket=K/part.parquet      id,lat,lon (decimicro int64)
    {dir}/ways/bucket=K/part.parquet       id, refs:list<int64>
    {dir}/relations/bucket=K/part.parquet  id, members, tags
    {dir}/deltas/{type}/d-{n:09d}-{digest}.parquet
                                           pending changes: the type's
                                           columns + deleted:bool

- bulk import (S5)   = write all buckets from a source table
- random read (S6)   = Resolver: sorted-id numpy arrays + searchsorted;
                       nodes as lat/lon columns, ways as CSR (offsets +
                       flat int64 refs), relations as the Arrow members
                       list decoded per lookup (vectorized batch lookup;
                       negative results are represented as misses,
                       mirroring the negative caching of
                       src/osmbin.rs:428,467)
- Δ-apply (update_*) = one delta file per element type per diff: the
                       last row per id, a delete kept as a tombstone
                       row (tmp + atomic rename).  Reads merge the
                       buckets with the pending deltas, last writer
                       wins.  Once a type holds ``FOLD_DELTAS`` deltas,
                       the next apply first folds them into the buckets
                       (rewrites the touched buckets, then deletes the
                       deltas; a fold cut short folds again to the same
                       bytes).  A type with no bucket yet is folded at
                       once, and the bulk import (``write_table``)
                       folds first.  ``digest`` hashes the delta's
                       contents: an apply whose delta equals the
                       type's newest pending one is skipped,
                       so re-running a diff after a crash between apply
                       and commit leaves the store byte-identical.

At cluster scale the Resolver is not loaded whole: callers first
compute the (small) needed-id closure of a diff and load only matching
buckets (`Resolver.from_store(..., needed=...)`), the engine-side
equivalent of the reference's per-diff OsmCache (src/osmcache.rs:19-23).

Every bucket and delta read goes through ``ElementStore._read_bucket``,
which keeps the table it read under the file's stat key (inode, size,
mtime, ctime): a file unchanged since the last read is not read again,
and one replaced by another process or ``ElementStore`` is.  The memo
holds at most one table per bucket file the instance has read plus the
pending deltas (at most ``FOLD_DELTAS`` per type), so at most one copy
of the store's base; ``apply_changes`` alone adds no entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

DEFAULT_BUCKETS = 64

_TYPES = ("nodes", "ways", "relations")


def _bucket_of(ids: np.ndarray, n_buckets: int) -> np.ndarray:
    # splitmix-style mix so sequential OSM ids spread evenly
    x = ids.astype(np.uint64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    return (x % np.uint64(n_buckets)).astype(np.int64)


def _stat_key(st: os.stat_result) -> tuple:
    return (st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


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
    ids = t["id"].to_numpy(zero_copy_only=False)
    return t.take(pa.array(_last_per_id(ids, np.arange(len(ids)))))


def _delta_table(tname: str, sub: pa.Table) -> pa.Table:
    """One type's rows of an elements table as a delta: the last row per
    id (``pos`` order) in the store schema plus a ``deleted`` tombstone
    flag, ascending by id."""
    ids = sub["id"].to_numpy(zero_copy_only=False)
    sub = sub.take(pa.array(_last_per_id(ids, sub["pos"].to_numpy(zero_copy_only=False))))
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


def _lookup(sorted_ids: np.ndarray, ids: np.ndarray):
    """(found, idx): membership of ``ids`` in ``sorted_ids`` and the
    clipped position of each (meaningful where found)."""
    if len(sorted_ids) == 0:
        return np.zeros(len(ids), bool), np.zeros(len(ids), np.int64)
    idx = np.searchsorted(sorted_ids, ids)
    idx_c = np.clip(idx, 0, len(sorted_ids) - 1)
    return (idx < len(sorted_ids)) & (sorted_ids[idx_c] == ids), idx_c


def _find(sorted_ids: np.ndarray, eid: int) -> int:
    """Position of ``eid`` in ``sorted_ids``, or -1."""
    i = int(np.searchsorted(sorted_ids, eid))
    return i if i < len(sorted_ids) and sorted_ids[i] == eid else -1


def _id_sorted_lists(table: pa.Table | None, column: str):
    """(ids, lists): the last row per id of ``table``'s list ``column``,
    ascending by id, rows with a null list dropped."""
    if table is None or table.num_rows == 0:
        return np.empty(0, np.int64), pa.array([], pa.list_(pa.int64()))
    ids = table["id"].to_numpy(zero_copy_only=False).astype(np.int64)
    keep = _last_per_id(ids, np.arange(len(ids)))
    lists = table[column].take(pa.array(keep)).combine_chunks()
    valid = lists.is_valid().to_numpy(zero_copy_only=False)
    if not valid.all():
        keep, lists = keep[valid], lists.filter(pa.array(valid))
    return ids[keep], lists


class ElementStore:
    """Bucketed parquet store of nodes/ways/relations."""

    # pending deltas per type that the next apply folds into the buckets
    FOLD_DELTAS = 8

    def __init__(self, directory: str, n_buckets: int = DEFAULT_BUCKETS):
        self.dir = directory
        meta_path = os.path.join(directory, "store.json")
        if os.path.exists(meta_path):
            with open(meta_path) as f:
                self.n_buckets = json.load(f)["n_buckets"]
        else:
            self.n_buckets = n_buckets
        # bucket path -> (stat key, table); see _read_bucket
        self._memo: dict[str, tuple[tuple, pa.Table]] = {}

    # ---------------- import ----------------
    def init(self):
        os.makedirs(self.dir, exist_ok=True)
        for t in _TYPES:
            os.makedirs(os.path.join(self.dir, t), exist_ok=True)
        with open(os.path.join(self.dir, "store.json"), "w") as f:
            json.dump({"n_buckets": self.n_buckets}, f)

    def _bucket_path(self, etype: str, bucket: int) -> str:
        return os.path.join(self.dir, etype, f"bucket={bucket}", "part.parquet")

    def _read_bucket(self, path: str, keep: bool = True) -> pa.Table | None:
        """The bucket file at ``path`` (None if absent), memoized under its
        stat key; ``keep=False`` uses a current entry but adds none."""
        try:
            st = os.stat(path)
        except FileNotFoundError:
            self._memo.pop(path, None)
            return None
        key = _stat_key(st)
        hit = self._memo.get(path)
        if hit is not None and hit[0] == key:
            return hit[1]
        # stat before read: a file replaced in between is re-read next time
        with pq.ParquetFile(path) as f:
            table = f.read()
        if keep:
            self._memo[path] = (key, table)
        return table

    def _write_bucket(self, path: str, table: pa.Table):
        """tmp + atomic rename (mirrors src/diffs.rs:105-149); refreshes
        the memo entry of an already memoized bucket, in the schema a
        read of the file returns (Parquet renames list items)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        pq.write_table(table, tmp)
        os.replace(tmp, path)
        if path in self._memo:
            key = _stat_key(os.stat(path))
            self._memo[path] = (key, table.cast(pq.read_schema(path)))

    def write_table(self, etype: str, table: pa.Table):
        """Bulk import: hash-partition ``table`` by id into buckets
        (engine form of the id-indexed bulk importer, src/osmbin.rs:542-663).
        Pending deltas are folded first, so the import is the newest write."""
        self._fold(etype, self._deltas(etype))
        ids = table["id"].to_numpy(zero_copy_only=False)
        buckets = _bucket_of(ids, self.n_buckets)
        order = np.argsort(buckets, kind="stable")
        table = table.take(pa.array(order))
        buckets = buckets[order]
        bounds = np.searchsorted(buckets, np.arange(self.n_buckets + 1))
        for b in range(self.n_buckets):
            lo, hi = bounds[b], bounds[b + 1]
            if lo == hi:
                continue
            sub = table.slice(lo, hi - lo)
            sub = sub.take(
                pa.array(np.argsort(sub["id"].to_numpy(zero_copy_only=False)))
            )
            self._write_bucket(self._bucket_path(etype, b), sub)

    def import_pbf(self, path: str):
        from .osmpbf import read_pbf

        nodes, ways, relations = read_pbf(path)
        self.init()
        self.write_table("nodes", nodes)
        self.write_table("ways", ways)
        self.write_table("relations", relations)

    # ---------------- read ----------------
    def read_type(self, etype: str, buckets: list[int] | None = None) -> pa.Table:
        rng = range(self.n_buckets) if buckets is None else sorted(set(buckets))
        tabs = [self._read_bucket(self._bucket_path(etype, b)) for b in rng]
        tabs = [t for t in tabs if t is not None]
        pending = self._deltas(etype)
        if not pending:
            return pa.concat_tables(tabs) if tabs else None
        deltas = [self._read_bucket(p) for p in pending]
        if buckets is not None:
            want = np.asarray(rng, np.int64)
            deltas = [
                d.filter(pa.array(np.isin(_bucket_of(
                    d["id"].to_numpy(zero_copy_only=False), self.n_buckets), want)))
                for d in deltas
            ]
        base = [t.append_column("deleted", pa.array(np.zeros(t.num_rows, bool)))
                for t in tabs]
        merged = _merge_last(base + deltas)
        return merged.filter(pc.invert(merged["deleted"])).drop_columns(["deleted"])

    def read_for_ids(self, etype: str, ids: np.ndarray) -> pa.Table | None:
        """Load only the buckets containing ``ids`` and filter to them."""
        if len(ids) == 0:
            return None
        buckets = np.unique(_bucket_of(np.asarray(ids, np.int64), self.n_buckets))
        t = self.read_type(etype, buckets.tolist())
        if t is None:
            return None
        return t.filter(pc.is_in(t["id"], pa.array(np.unique(ids))))

    # ---------------- Δ-apply ----------------
    def apply_changes(self, elements: pa.Table):
        """Apply an OsmChange elements table (engine Δ-semantics of
        src/osmbin.rs:665-748): create/modify = upsert, delete =
        tombstone; last occurrence per id wins (``pos`` order).  Writes
        one delta file per element type; a type with no bucket yet (the
        bulk seed) is folded straight into its buckets."""
        for etype, tname in (("node", "nodes"), ("way", "ways"), ("relation", "relations")):
            sub = elements.filter(pc.equal(elements["etype"], etype))
            if sub.num_rows == 0:
                continue
            delta = _delta_table(tname, sub)
            digest = _digest(delta)
            pending = self._deltas(tname)
            if pending and pending[-1].endswith(f"-{digest}.parquet"):
                continue  # the same change is already the newest delta
            if not any(os.path.exists(self._bucket_path(tname, b))
                       for b in range(self.n_buckets)):
                self._fold(tname, pending, delta)
                continue
            if len(pending) >= self.FOLD_DELTAS:
                self._fold(tname, pending)
                pending = []
            n = int(os.path.basename(pending[-1])[2:11]) + 1 if pending else 1
            name = f"d-{n:09d}-{digest}.parquet"
            self._write_bucket(os.path.join(self._delta_dir(tname), name), delta)

    def _delta_dir(self, tname: str) -> str:
        return os.path.join(self.dir, "deltas", tname)

    def _deltas(self, tname: str) -> list[str]:
        """Paths of the pending deltas of ``tname``, oldest first; drops
        the memo entries of deltas folded away since."""
        d = self._delta_dir(tname)
        try:
            paths = [os.path.join(d, n) for n in sorted(os.listdir(d))
                     if n.endswith(".parquet")]
        except FileNotFoundError:
            paths = []
        live = set(paths)
        for p in [p for p in self._memo if p.startswith(d + os.sep) and p not in live]:
            del self._memo[p]
        return paths

    def _fold(self, tname: str, pending: list[str], extra: pa.Table | None = None):
        """Merge the ``pending`` deltas (then ``extra``) into the buckets,
        then delete the delta files: a fold cut short leaves deltas that
        fold again to the same buckets."""
        tabs = [self._read_bucket(p, keep=False) for p in pending]
        if extra is not None:
            tabs.append(extra)
        if not tabs:
            return
        chg = _merge_last(tabs)
        buckets = _bucket_of(chg["id"].to_numpy(zero_copy_only=False), self.n_buckets)
        for b in np.unique(buckets):
            in_b = buckets == b
            self._apply_bucket(tname, int(b), chg.take(pa.array(np.nonzero(in_b)[0])))
        for p in pending:
            os.remove(p)
            self._memo.pop(p, None)

    def _apply_bucket(self, tname: str, bucket: int, chg: pa.Table):
        path = self._bucket_path(tname, bucket)
        old = self._read_bucket(path, keep=False)
        chg_ids = chg["id"].to_numpy(zero_copy_only=False)
        deleted = chg["deleted"].to_numpy(zero_copy_only=False)
        new = chg.drop_columns(["deleted"]).filter(pa.array(~deleted))
        parts = [new]
        if old is not None:
            old_keep = ~np.isin(
                old["id"].to_numpy(zero_copy_only=False), chg_ids
            )
            parts.append(old.filter(pa.array(old_keep)).select(new.column_names))
        merged = pa.concat_tables(parts, promote_options="permissive")
        merged = merged.take(
            pa.array(np.argsort(merged["id"].to_numpy(zero_copy_only=False)))
        )
        self._write_bucket(path, merged)

    def destroy(self):
        self._memo.clear()
        shutil.rmtree(self.dir, ignore_errors=True)


class Resolver:
    """Vectorized batch reader over store tables (OsmReader analogue,
    src/osm.rs:197-247).  Lookup = sorted-array searchsorted; also
    counts lookups so tests can pin the reference's lookup-amplification
    invariants (src/osmxml/bbox.rs:269-271, src/osmxml/filter.rs:390-392).

    Ways are CSR arrays (sorted ids, offsets, flat refs) and relations
    sorted ids plus their Arrow ``members`` list, decoded per lookup.
    The last row of a duplicate id wins; an id whose list is null reads
    as missing.
    """

    def __init__(self, nodes: pa.Table | None, ways: pa.Table | None,
                 relations: pa.Table | None):
        if nodes is not None and nodes.num_rows:
            self._nid = nodes["id"].to_numpy(zero_copy_only=False).astype(np.int64)
            o = np.argsort(self._nid)
            self._nid = self._nid[o]
            self._nlat = nodes["lat"].to_numpy(zero_copy_only=False).astype(np.int64)[o]
            self._nlon = nodes["lon"].to_numpy(zero_copy_only=False).astype(np.int64)[o]
        else:
            self._nid = np.empty(0, np.int64)
            self._nlat = self._nlon = np.empty(0, np.int64)
        self._wid, refs = _id_sorted_lists(ways, "refs")
        flat = pc.list_flatten(refs)
        if flat.null_count:
            raise ValueError("way refs hold a null node id")
        self._wrefs = flat.to_numpy().astype(np.int64)
        self._woff = np.zeros(len(self._wid) + 1, np.int64)
        np.cumsum(pc.list_value_length(refs).to_numpy(), out=self._woff[1:])
        self._rid, self._members = _id_sorted_lists(relations, "members")
        self.num_read_nodes = 0
        self.num_read_ways = 0
        self.num_read_relations = 0

    @staticmethod
    def from_store(store: ElementStore, node_ids=None, way_ids=None, rel_ids=None):
        def grab(etype, ids):
            if ids is None:
                return store.read_type(etype)
            return store.read_for_ids(etype, np.asarray(ids, np.int64))

        return Resolver(
            grab("nodes", node_ids), grab("ways", way_ids), grab("relations", rel_ids)
        )

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
        found, idx_c = _lookup(self._nid, ids)
        if not len(self._nid):
            return found, idx_c, idx_c
        lat = np.where(found, self._nlat[idx_c], 0)
        lon = np.where(found, self._nlon[idx_c], 0)
        return found, lat, lon

    def way_refs(self, wids: np.ndarray):
        """CSR (offsets, flat refs) of the store refs of ``wids``; a
        missing way has none."""
        wids = np.asarray(wids, np.int64)
        found, idx = _lookup(self._wid, wids)
        lo = np.where(found, self._woff[idx], 0)
        n = np.where(found, self._woff[np.minimum(idx + 1, len(self._wid))] - lo, 0)
        off = np.zeros(len(wids) + 1, np.int64)
        np.cumsum(n, out=off[1:])
        return off, self._wrefs[np.repeat(lo - off[:-1], n) + np.arange(off[-1])]

    def relation_members(self, rids: np.ndarray):
        """(offsets, member types, member refs) of the store members of
        ``rids``, CSR; a missing relation has none."""
        rids = np.asarray(rids, np.int64)
        found, idx = _lookup(self._rid, rids)
        lists = self._members.take(pa.array(idx[found]))
        n = np.zeros(len(rids), np.int64)
        n[found] = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        off = np.zeros(len(rids) + 1, np.int64)
        np.cumsum(n, out=off[1:])
        if not off[-1]:
            return off, pa.array([], pa.string()), np.empty(0, np.int64)
        flat = pc.list_flatten(lists)
        return (off, pc.struct_field(flat, "type"),
                pc.struct_field(flat, "ref").to_numpy(zero_copy_only=False))

    def read_way(self, wid: int) -> list[int] | None:
        self.num_read_ways += 1
        i = _find(self._wid, int(wid))
        if i < 0:
            return None
        return self._wrefs[self._woff[i]:self._woff[i + 1]].tolist()

    def read_relation(self, rid: int) -> list[dict] | None:
        self.num_read_relations += 1
        i = _find(self._rid, int(rid))
        return None if i < 0 else self._members[i].as_py()

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
    r = Resolver.from_store(store)
    # ways: one batched node lookup over every flat ref
    w_bad = ~r.read_nodes(r._wrefs)[0]
    w_src = np.repeat(r._wid, np.diff(r._woff))[w_bad]
    # relations: one membership test per member type
    off, m_type, m_ref = r.relation_members(r._rid)
    m_src = np.repeat(r._rid, np.diff(off))
    m_type = m_type.cast(pa.string())
    is_node = pc.equal(m_type, "node").fill_null(False).to_numpy(zero_copy_only=False)
    is_way = pc.equal(m_type, "way").fill_null(False).to_numpy(zero_copy_only=False)
    other = ~(is_node | is_way)
    ok = np.zeros(len(m_ref), bool)
    ok[is_node] = r.read_nodes(m_ref[is_node])[0]
    ok[is_way] = _lookup(r._wid, m_ref[is_way])[0]
    ok[other] = _lookup(r._rid, m_ref[other])[0]
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
                np.concatenate([r._wrefs[w_bad], m_ref[m_bad]]).astype(np.int64), pa.int64()
            ),
        }
    )
