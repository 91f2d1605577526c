"""Distributed bbox annotation — the scale path of OsmXmlBBox.

Same semantics as ``stages/bbox.py:annotate_bbox`` (the sequential
parity path), re-expressed as the 3-round topological join SURVEY §7
hard-part #1 specifies, so a catch-up diff of 10^8 elements streams
through ``ray.data`` blocks instead of one driver process:

1. **nodes**: new point ∪ old store point per occurrence, then a
   per-id prefix-union scan (``functions/scan.py``) — this IS the
   reference's ``nodes_modified`` map as a (id, pos)-keyed table.
2. **ways**: old+new refs exploded -> ONE hash join against store
   node points + ONE as-of join (``functions/asof.py``) against the
   node prefix table at pos-1 (strict "modified earlier", positions
   are unique) -> segment min/max per occurrence -> per-way-id prefix
   scan = ``ways_modified``.
3. **relations**: the store-member closure (``stages/dist.py``,
   cycle-guarded like src/osmxml/bbox.rs:106-123) turns recursion into
   bounded join rounds; leaf nodes/ways probe the phase-1/2 prefix
   tables; the cross-relation ``relations_modified`` dependency (a
   relation's box may include another relation's box from earlier in
   the diff) is a monotone fixpoint solved in as many as-of rounds as
   the longest earlier-position reference chain (1-2 in practice).

Boxes are int64 SENTINEL-encoded internally (scan.py) and nullable
int64 in the output (pos, minlat, maxlat, minlon, maxlon).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.agg import small_sorted_aggregate
from ..functions.asof import asof_join
from ..functions.scan import SENT_MAX, SENT_MIN, prefix_box_scan
from .dist import (REL_ROUNDS_CAP, DiffPlan, FixpointCapError, mat_coalesced,
                   reroot, safe_join)

BOX = ("minlat", "maxlat", "minlon", "maxlon")
_SENT = {"minlat": SENT_MIN, "maxlat": SENT_MAX, "minlon": SENT_MIN, "maxlon": SENT_MAX}
_AGG = {"minlat": "min", "maxlat": "max", "minlon": "min", "maxlon": "max"}


def _np_sent(col, sent: int) -> np.ndarray:
    """nullable int column -> int64 with sentinel at nulls (coords are
    < 2^53 so the float64 null path is exact)."""
    # stay in the Arrow int64 domain end to end: the int64 sentinel
    # extremes are not float64-representable, so any to_numpy() path
    # that promotes nulls to float64 would overflow-wrap on cast
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count == 0 and pa.types.is_int64(col.type):
        return col.to_numpy(zero_copy_only=False)
    filled = pc.fill_null(pc.cast(col, pa.int64()), sent)
    return filled.to_numpy(zero_copy_only=False)


def _box_agg(ds, key: str):
    return small_sorted_aggregate(
        ds, key, {c: (c, _AGG[c]) for c in BOX}
    )


def _seg_min(a, b):
    return np.minimum(a, b)


def _union_cols(point_valid, plat, plon, state_cols):
    """candidate box per probe row: store point ∪ as-of prefix state."""
    sminlat, smaxlat, sminlon, smaxlon = state_cols
    minlat = np.where(point_valid, plat, SENT_MIN)
    maxlat = np.where(point_valid, plat, SENT_MAX)
    minlon = np.where(point_valid, plon, SENT_MIN)
    maxlon = np.where(point_valid, plon, SENT_MAX)
    return (
        np.minimum(minlat, sminlat),
        np.maximum(maxlat, smaxlat),
        np.minimum(minlon, sminlon),
        np.maximum(maxlon, smaxlon),
    )


def _fill_box_sentinels(batch: pa.Table, keep: list[str]) -> pa.Table:
    cols = {c: batch[c] for c in keep}
    for c in BOX:
        cols[c] = pa.array(_np_sent(batch[c], _SENT[c]))
    return pa.table(cols)


def annotate_bbox_dist(plan: DiffPlan, rel_rounds_cap: int = REL_ROUNDS_CAP):
    """-> Dataset (pos, minlat, maxlat, minlon, maxlon), nullable int64
    box columns; one row per diff element (null box where none)."""
    import ray.data

    flat = plan.flat
    npart = plan.num_partitions

    # ---------------- phase 1: nodes ----------------
    # materialized ONCE: two joins consume it; lazy it would re-execute
    # the store scan per consumer (and safe_join materializes its right
    # side anyway)
    store_pts = mat_coalesced(
        flat.nodes.map_batches(
            lambda b: pa.table(
                {"nid": b["id"], "plat": b["lat"], "plon": b["lon"]}
            ),
            batch_format="pyarrow",
        )
    )
    pt_payload = {"plat": pa.int64(), "plon": pa.int64()}
    nodes_old = safe_join(
        plan.nodes, store_pts, "left_outer", npart,
        on=("id",), right_on=("nid",), payload=pt_payload,
    )

    def node_base(batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False).astype(np.int64)
        lon = batch["lon"].to_numpy(zero_copy_only=False).astype(np.int64)
        plat = _np_sent(batch["plat"], SENT_MIN)
        plon = _np_sent(batch["plon"], SENT_MIN)
        found = plat != SENT_MIN
        return pa.table(
            {
                "pos": batch["pos"],
                "id": batch["id"],
                "minlat": pa.array(np.where(found, np.minimum(lat, plat), lat)),
                "maxlat": pa.array(np.where(found, np.maximum(lat, plat), lat)),
                "minlon": pa.array(np.where(found, np.minimum(lon, plon), lon)),
                "maxlon": pa.array(np.where(found, np.maximum(lon, plon), lon)),
            }
        )

    # ---------------- node-point probes (ways + relations) ----------
    def as_probe(dst: int, ref_col: str = "ref"):
        def fn(batch: pa.Table) -> pa.Table:
            pos = batch["pos"].to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "id": batch[ref_col],
                    "pos": pa.array(pos - 1),  # strict "< pos" as-of
                    "tag": batch["pos"],
                    "dst": pa.array(np.full(len(batch), dst, np.int8)),
                }
            )

        return fn

    probes = (
        plan.way_new_refs.map_batches(as_probe(0), batch_format="pyarrow")
        .union(plan.way_old_refs.map_batches(as_probe(0), batch_format="pyarrow"))
        .union(plan.rel_node_probes.map_batches(as_probe(1), batch_format="pyarrow"))
        .union(plan.rel_way_store_refs.map_batches(as_probe(1), batch_format="pyarrow"))
    )

    # node_scan (phase-1 sort+scan), the probe-point join and the
    # phase-3 way-state probes are mutually independent: overlap them
    # (round-3 verdict item #2 — barrier chain -> antichain)
    from concurrent.futures import ThreadPoolExecutor

    def mk_node_scan():
        return prefix_box_scan(
            nodes_old.map_batches(node_base, batch_format="pyarrow"),
            "id", "pos",
        ).materialize()

    def mk_probes_pt():
        return safe_join(
            probes, store_pts, "left_outer", npart,
            on=("id",), right_on=("nid",), payload=pt_payload,
            left_fields={
                "id": pa.int64(), "pos": pa.int64(),
                "tag": pa.int64(), "dst": pa.int8(),
            },
        ).materialize()

    def mk_way_state_probes():
        return plan.rel_way_probes.map_batches(
            as_probe(1), batch_format="pyarrow"
        ).materialize()

    with ThreadPoolExecutor(max_workers=3) as ex:
        f_scan = ex.submit(mk_node_scan)
        f_ppt = ex.submit(mk_probes_pt)
        f_wsp = ex.submit(mk_way_state_probes)
        node_scan = f_scan.result()
        probes_pt = f_ppt.result()
        way_state_probes = f_wsp.result()
    if probes_pt.count() > 0:
        node_asof = asof_join(
            probes_pt, node_scan, by="id", on="pos", state_cols=list(BOX)
        )
    else:
        node_asof = ray.data.from_arrow(
            pa.schema(
                [("id", pa.int64()), ("pos", pa.int64()), ("tag", pa.int64()),
                 ("dst", pa.int8()), ("plat", pa.int64()), ("plon", pa.int64())]
                + [(c, pa.int64()) for c in BOX]
            ).empty_table()
        )

    def contrib(batch: pa.Table) -> pa.Table:
        plat = _np_sent(batch["plat"], SENT_MIN)
        plon = _np_sent(batch["plon"], SENT_MIN)
        found = plat != SENT_MIN
        states = tuple(_np_sent(batch[c], _SENT[c]) for c in BOX)
        minlat, maxlat, minlon, maxlon = _union_cols(found, plat, plon, states)
        return pa.table(
            {
                "tag": batch["tag"],
                "dst": batch["dst"],
                "minlat": pa.array(minlat),
                "maxlat": pa.array(maxlat),
                "minlon": pa.array(minlon),
                "maxlon": pa.array(maxlon),
            }
        )

    node_contrib = node_asof.map_batches(contrib, batch_format="pyarrow").materialize()

    # ---------------- phase 2: ways ----------------
    way_contrib = node_contrib.map_batches(
        lambda b: b.filter(pc.equal(b["dst"], 0)).drop_columns(["dst"]),
        batch_format="pyarrow",
    )
    way_box_occ = _box_agg(way_contrib, "tag")
    box_payload = {c: pa.int64() for c in BOX}
    way_occ_box = safe_join(
        plan.way_occ, way_box_occ, "left_outer", npart,
        on=("pos",), right_on=("tag",), payload=box_payload,
    ).map_batches(
        lambda b: _fill_box_sentinels(b, ["pos", "id"]), batch_format="pyarrow"
    )
    way_scan = prefix_box_scan(way_occ_box, "id", "pos").materialize()

    # ---------------- phase 3: relations ----------------
    if way_state_probes.count() > 0:
        way_asof = asof_join(
            way_state_probes, way_scan, by="id", on="pos", state_cols=list(BOX)
        )
        way_state_contrib = way_asof.map_batches(
            lambda b: _fill_box_sentinels(b, ["tag"]), batch_format="pyarrow"
        )
    else:
        way_state_contrib = ray.data.from_arrow(
            pa.schema(
                [("tag", pa.int64())] + [(c, pa.int64()) for c in BOX]
            ).empty_table()
        )
    rel_node_contrib = node_contrib.map_batches(
        lambda b: b.filter(pc.equal(b["dst"], 1)).drop_columns(["dst"]),
        batch_format="pyarrow",
    )
    rel_static = _box_agg(
        rel_node_contrib.union(way_state_contrib), "tag"
    ).materialize()

    def occ_join_fill(box_by_tag):
        return safe_join(
            plan.rel_occ, box_by_tag, "left_outer", npart,
            on=("pos",), right_on=("tag",),
            payload={c: pa.int64() for c in BOX},
        ).map_batches(
            lambda b: _fill_box_sentinels(b, ["pos", "id"]),
            batch_format="pyarrow",
        )

    rel_box = occ_join_fill(rel_static).materialize()
    if plan.rel_rel_probes.count() > 0:
        memo_probes = plan.rel_rel_probes.map_batches(
            as_probe(1), batch_format="pyarrow"
        ).materialize()
        static_rows = rel_static.map_batches(
            lambda b: b.select(["tag", *BOX]), batch_format="pyarrow"
        )
        for _ in range(rel_rounds_cap):
            rel_scan = prefix_box_scan(rel_box, "id", "pos")
            memo_contrib = asof_join(
                memo_probes, rel_scan, by="id", on="pos", state_cols=list(BOX)
            ).map_batches(
                lambda b: _fill_box_sentinels(b, ["tag"]),
                batch_format="pyarrow",
            )
            new_box = reroot(occ_join_fill(
                _box_agg(static_rows.union(memo_contrib), "tag")
            ))
            # converged? (pos-keyed compare; relation-count-sized)
            joined = safe_join(
                rel_box,
                new_box.map_batches(
                    lambda b: pa.table(
                        {"pos": b["pos"], **{f"n_{c}": b[c] for c in BOX}}
                    ),
                    batch_format="pyarrow",
                ),
                "inner", npart, on=("pos",),
                payload={f"n_{c}": pa.int64() for c in BOX},
            )
            changed = joined.map_batches(
                lambda b: pa.table(
                    {
                        "c": pa.array(
                            np.logical_or.reduce(
                                [
                                    b[c].to_numpy(zero_copy_only=False)
                                    != b[f"n_{c}"].to_numpy(zero_copy_only=False)
                                    for c in BOX
                                ]
                            )
                        )
                    }
                ),
                batch_format="pyarrow",
            ).sum("c")
            rel_box = new_box
            if not changed:
                break
        else:
            raise FixpointCapError(
                f"bbox relation fixpoint did not converge within "
                f"rel_rounds_cap={rel_rounds_cap} rounds (relation memo "
                f"chain deeper than the cap); raise rel_rounds_cap"
            )

    # ---------------- assemble nullable output ----------------
    def to_nullable(batch: pa.Table) -> pa.Table:
        cols = {"pos": batch["pos"]}
        valid = None
        sent = {c: _np_sent(batch[c], _SENT[c]) for c in BOX}
        valid = sent["minlat"] != SENT_MIN
        for c in BOX:
            cols[c] = pa.array(
                np.where(valid, sent[c], 0), pa.int64(), mask=~valid
            )
        return pa.table(cols)

    out = (
        node_scan.map_batches(to_nullable, batch_format="pyarrow")
        .union(way_scan.map_batches(to_nullable, batch_format="pyarrow"))
        .union(rel_box.map_batches(to_nullable, batch_format="pyarrow"))
    )
    return out
